// Incremental WCET analysis keyed on kernel-IR content digests (ROADMAP
// item 5's engine; paper context: every added preemption point re-runs the
// whole Table 2 / Fig 8 analysis, so re-analysis after a small edit must be
// cheap).
//
// Where WcetAnalyzer memoizes whole-kernel state behind std::call_once — any
// IR edit means building a new analyzer and re-deriving everything — this
// analyzer keys every pipeline stage on a chained FNV digest of the block
// content that stage actually consumes (src/kir/digest.h):
//
//   graph key = chain(structure digests over the entry's call closure)
//   loop  key = chain(loop digests, seeded by the graph key)
//   cost  key = chain(cost digests, seeded by the loop key)
//   ipet  key = chain(ipet digests, seeded by the cost key)
//
// A query re-derives only the stages below the first key that moved: a
// loop-bound annotation edit re-runs loop bounds + node costs and patches
// the dirtied ILP rows in place; a preemption-point toggle patches only the
// preemption/exec constraint-row families; anything structural rebuilds
// cold. The ILP solve itself warm-restarts from the previous optimal basis
// (SolveIlpWarm) and falls back to a cold solve deterministically — results
// are bit-identical to a fresh WcetAnalyzer on the edited image
// (wcet_incremental_test gates this against randomized edit scripts).
//
// Thread-safety contract: Analyze and NotifyBlockEdited mutate the caches
// and require exclusive access. Fresh/Cached/CachedResponseBound/
// PerBlockBounds are read-only and may run concurrently with each other.
// WcetService (src/wcet/serve.h) implements the shared/exclusive lock
// discipline on top of this contract for the query daemon.

#ifndef SRC_WCET_INCREMENTAL_H_
#define SRC_WCET_INCREMENTAL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/kernel/image.h"
#include "src/kir/digest.h"
#include "src/wcet/analysis.h"
#include "src/wcet/cost.h"
#include "src/wcet/ipet.h"
#include "src/wcet/loopbound.h"

namespace pmk {

class IncrementalWcetAnalyzer {
 public:
  IncrementalWcetAnalyzer(const KernelImage& image, const AnalysisOptions& options);

  // Analyzes |entry|, re-deriving only the stages whose content keys moved
  // since the last query. The returned reference stays valid until the next
  // Analyze/NotifyBlockEdited call.
  const EntryResult& Analyze(EntryPoint entry);

  // Worst-case interrupt response time, through the same ResponseBoundOf
  // sum as WcetAnalyzer (throws if any entry is not optimal).
  Cycles InterruptResponseBound();

  // Unconditional per-block cost ceilings, from the immutable block-level
  // cost cache. Supported edits never change block cost content, so this is
  // constant for the analyzer's lifetime.
  std::vector<Cycles> PerBlockBounds() const;

  // Tells the analyzer |block|'s content may have changed (after a
  // Program::mutable_block edit). Recomputes the block's digests; entries
  // whose cached keys no longer match re-derive the affected stages on
  // their next Analyze. Returns true if any digest actually moved.
  bool NotifyBlockEdited(BlockId block);

  // True iff Analyze(|e|) would be a pure cache hit (read-only probe).
  bool Fresh(EntryPoint e) const;
  // The cached result of |e|; only meaningful while Fresh(e).
  const EntryResult& Cached(EntryPoint e) const {
    return entries_[static_cast<std::size_t>(e)].result;
  }

  const AnalysisOptions& options() const { return opts_; }
  const KernelImage& image() const { return *image_; }

 private:
  struct StageKeys {
    std::uint64_t graph = 0;
    std::uint64_t loops = 0;
    std::uint64_t cost = 0;
    std::uint64_t ipet = 0;
  };

  struct EntryCache {
    bool valid = false;  // result/prog populated at least once
    StageKeys keys;
    std::unique_ptr<InlinedGraph> graph;
    std::vector<LoopBoundResult> bounds;
    CostResult costs;
    IpetProgram prog;
    IlpWarmStart warm;
    EntryResult result;
  };

  StageKeys ComputeKeys(std::size_t entry_idx) const;
  void FinishSolve(EntryCache& ec, EntryPoint entry);

  const KernelImage* image_;
  AnalysisOptions opts_;
  CostModelOptions cost_opts_;
  std::unique_ptr<CostModelCache> block_cache_;
  ProgramDigests digests_;
  std::array<std::vector<BlockId>, 4> closure_blocks_;
  std::array<EntryCache, 4> entries_;
};

}  // namespace pmk

#endif  // SRC_WCET_INCREMENTAL_H_
