// Per-block cost profiler: aggregates kBlockCost trace events by BlockId.
//
// For each basic block executed under tracing, accumulates execution count,
// total / maximum observed cycles, and L1 I/D-cache misses. The hot-block
// table ranks blocks by total observed cycles and sets the per-execution
// maximum against the static per-block WCET ceiling
// (WcetAnalyzer::PerBlockBounds), the per-block analogue of the paper's
// computed-vs-observed comparison (Section 6.2 / Figure 8).

#ifndef SRC_OBS_BLOCK_PROFILE_H_
#define SRC_OBS_BLOCK_PROFILE_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "src/kir/program.h"
#include "src/obs/trace_sink.h"

namespace pmk {

struct BlockStats {
  BlockId block = kNoBlock;
  std::uint64_t execs = 0;
  Cycles total_cycles = 0;
  Cycles max_cycles = 0;
  std::uint64_t l1i_misses = 0;
  std::uint64_t l1d_misses = 0;
};

class BlockProfiler : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override;

  void Reset() { stats_.clear(); }

  // Stats for one block (zeroed entry if never executed).
  BlockStats StatsFor(BlockId id) const;
  const std::vector<BlockStats>& raw() const { return stats_; }

  // Total cycles attributed across all profiled blocks.
  Cycles TotalCycles() const;

  // Executed blocks ranked by total observed cycles, descending.
  std::vector<BlockStats> Ranked() const;

  // Prints the top |top_n| blocks: execs, total/max cycles, misses, and —
  // when |bounds| (indexed by BlockId) is given — the per-execution WCET
  // ceiling and the max/bound ratio.
  void PrintTopBlocks(const Program& program, std::size_t top_n,
                      const std::vector<Cycles>* bounds, std::ostream& os) const;

  // True iff every profiled block's max per-execution cost is within its
  // bound. Blocks beyond |bounds|'s range fail the check.
  bool CheckAgainstBounds(const std::vector<Cycles>& bounds, std::ostream* err = nullptr) const;

 private:
  std::vector<BlockStats> stats_;  // indexed by BlockId, grown on demand
};

}  // namespace pmk

#endif  // SRC_OBS_BLOCK_PROFILE_H_
