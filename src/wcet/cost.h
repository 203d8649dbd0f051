// Conservative per-node cost model (paper Section 5.1).
//
// The caches are analyzed as direct-mapped caches of one way's size — "a
// pessimistic but sound approximation", since the most recently accessed line
// in a set is guaranteed resident under round-robin replacement. A must-cache
// abstract analysis over the inlined graph classifies fetches and
// statically-addressed data accesses; a persistence analysis classifies lines
// that cannot be evicted within a loop as first-miss and charges them on the
// loop's entry edges (Chronos-style cache analysis). Dynamically-addressed
// accesses are conservatively charged as misses on every execution. The L2
// is not modelled beyond its effect on the memory latency and the lines
// locked into it (Chronos's address analysis is substituted by the kernel
// IR's declared access discipline; see DESIGN.md). Every latency, stall,
// branch cost and cache geometry is read from the MachineConfig the
// simulator runs (src/hw).

#ifndef SRC_WCET_COST_H_
#define SRC_WCET_COST_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/machine.h"
#include "src/kir/trace.h"
#include "src/wcet/cfg.h"

namespace pmk {

// Sorted flat vector of way-locked line addresses. Keeps the std::set-shaped
// construction API (insert one / insert range, count) that analysis.cc and
// the tests use, but membership probes in the cost hot loop are a binary
// search over contiguous storage instead of pointer-chasing a red-black tree.
class PinnedLineSet {
 public:
  PinnedLineSet() = default;

  void insert(Addr line) {
    const auto it = std::lower_bound(lines_.begin(), lines_.end(), line);
    if (it == lines_.end() || *it != line) {
      lines_.insert(it, line);
    }
  }
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) {
      insert(*first);
    }
  }
  std::size_t count(Addr line) const {
    return std::binary_search(lines_.begin(), lines_.end(), line) ? 1u : 0u;
  }
  bool empty() const { return lines_.empty(); }
  std::size_t size() const { return lines_.size(); }
  const std::vector<Addr>& lines() const { return lines_; }

 private:
  std::vector<Addr> lines_;
};

// What the cost model charges: every cost is read from |machine|, the same
// description the simulator runs (src/hw), and the pinned sets are exactly
// the lines the kernel locks (SelectPinnedLines, src/kernel/image.h).
struct CostModelOptions {
  MachineConfig machine;
  PinnedLineSet pinned_ilines;   // locked into the L1I: always hit
  PinnedLineSet pinned_dlines;   // locked into the L1D: always hit
  PinnedLineSet pinned_l2lines;  // locked into the L2: an L1 miss hits there

  // Throws std::invalid_argument for a machine the one-way must-cache cannot
  // model: an invalid L1 geometry, L1I and L1D line or way sizes that
  // differ, or pinned L2 lines shorter than an L1 line.
  void Validate() const;

  // Both L1s are analyzed as direct-mapped caches of one way's size.
  std::uint32_t LineBytes() const { return machine.l1i.line_bytes; }
  std::uint32_t NumSets() const { return machine.l1i.NumSets(); }
  // The constant cost with the predictor off; its worst outcome with it on.
  Cycles BranchCost() const {
    const BranchPredictorConfig& b = machine.bpred;
    return b.enabled ? std::max({b.mispredict, b.correct_taken, b.correct_not_taken})
                     : b.disabled_cost;
  }
  // Worst-case L1 refill: from memory, or with the L2 on the dearer of an L2
  // hit and an L2 miss.
  Cycles MissPenalty() const {
    const MemoryConfig& m = machine.memory;
    return machine.l2_enabled ? std::max(m.mem_latency_l2_on, m.l2_hit_latency)
                              : m.mem_latency_l2_off;
  }
  // Refill of the L1 line at |line|: an L2 hit if the enabled L2 holds it
  // locked.
  Cycles MissPenaltyFor(Addr line) const {
    if (!pinned_l2lines.empty() && machine.l2_enabled &&
        pinned_l2lines.count(line / machine.l2.line_bytes * machine.l2.line_bytes) != 0) {
      return machine.memory.l2_hit_latency;
    }
    return MissPenalty();
  }
};

// One statically-known line touch of a block.
struct LineAccess {
  Addr line = 0;
  std::uint32_t set = 0;  // the line's set in one L1 way
  bool instruction = false;
};

// Enumerates the statically-known lines a block touches, pinned ones included.
void CollectAccesses(const Program& p, const Block& b, const CostModelOptions& opts,
                     std::vector<LineAccess>& out);

// Whether |a| is a way-locked line (always a hit).
bool IsPinned(const CostModelOptions& opts, const LineAccess& a);

// Fixed (cache-independent) cost of one block execution.
Cycles BaseCost(const Block& b, const CostModelOptions& opts);

// One statically-known, not way-locked line touch of a block, as the
// must-cache passes read it. A must-cache state is one line id per set of
// each L1: index |slot| holds the id of the line guaranteed resident there.
struct PooledAccess {
  std::uint32_t slot = 0;  // the line's set, plus NumSets() for the L1D
  std::uint16_t id = 0;    // the line among the lines of its slot
  Cycles miss = 0;         // MissPenaltyFor(line)
};

// Per-block cost-model state derived once from (program, options) and shared
// by every analysis pass: the statically-known line accesses of each block
// with way-locked (pinned) lines already filtered out, the cache-independent
// base cost, and the any-state worst-case cost. Immutable after
// construction, so it is safe to share across the job pool's threads.
class CostModelCache {
 public:
  // Line ids number the distinct lines of each set of each L1 from 1 as
  // they are pooled. 0 stands for "no line known resident"; ComputeNodeCosts
  // keeps kMaxLineId + 1 for "more than one line in a loop".
  static constexpr std::uint16_t kNoLine = 0;
  static constexpr std::uint16_t kMaxLineId = 0xFFFE;

  // Throws std::invalid_argument for a machine |opts| cannot model
  // (CostModelOptions::Validate), and for a program with more than
  // kMaxLineId distinct lines in one set of one L1.
  CostModelCache(const Program& program, const CostModelOptions& opts);

  const Program& program() const { return *program_; }
  const CostModelOptions& options() const { return opts_; }
  // Entries of one must-cache state: the sets of the L1I, then the L1D's.
  std::size_t state_width() const { return 2 * static_cast<std::size_t>(opts_.NumSets()); }

  const PooledAccess* accesses_begin(BlockId id) const { return pool_.data() + start_[id]; }
  const PooledAccess* accesses_end(BlockId id) const { return pool_.data() + start_[id + 1]; }
  Cycles base_cost(BlockId id) const { return base_[id]; }
  // Unconditional per-execution ceiling: every non-pinned access is assumed
  // to miss. Unlike must-cache node costs (which depend on the abstract cache
  // state reaching the node), this bound holds for ANY concrete cache state,
  // so profiled per-execution block costs can be checked against it
  // directly: a branch charges at most BranchCost() on any predictor state.
  Cycles worst_case(BlockId id) const { return worst_[id]; }

 private:
  const Program* program_;
  CostModelOptions opts_;
  std::vector<std::uint32_t> start_;  // num_blocks + 1, CSR-style offsets
  std::vector<PooledAccess> pool_;
  std::vector<Cycles> base_;
  std::vector<Cycles> worst_;
};

struct CostResult {
  std::vector<Cycles> node_costs;   // per inlined node, per execution
  std::vector<Cycles> edge_extras;  // per inlined edge: loop first-miss cost
};

// Computes worst-case execution costs: per-node recurring cost plus, for
// loop-persistent lines, a one-time cost on the loop's entry edges.
// Loop bounds must already be attached (ComputeLoopBounds) so innermost-loop
// membership is known.
CostResult ComputeNodeCosts(const InlinedGraph& graph, const CostModelCache& cache);

// Conservative cost of one concrete executed path (block sequence), using
// the same cost model without joins. Used to force the analysis onto a
// measured path (paper Sections 5.4 and 6.2).
Cycles EvaluateTraceCost(const CostModelCache& cache, const Trace& trace);

}  // namespace pmk

#endif  // SRC_WCET_COST_H_
