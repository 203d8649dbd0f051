// End-to-end WCET analysis driver (paper Section 5).
//
// Ties the pipeline together: virtual inlining, automatic loop bounds,
// conservative cache/pipeline cost model, IPET/ILP — and produces per-entry
// WCET bounds, concrete worst-case traces, and forced-path evaluations for
// the computed-vs-observed comparison.

#ifndef SRC_WCET_ANALYSIS_H_
#define SRC_WCET_ANALYSIS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/kernel/image.h"
#include "src/kir/digest.h"
#include "src/wcet/cost.h"
#include "src/wcet/ipet.h"
#include "src/wcet/loopbound.h"

namespace pmk {

struct AnalysisOptions {
  bool l2_enabled = false;
  bool irq_pending = true;         // interrupt-latency mode
  bool cache_pinning = false;      // Section 4: L1 way-locking
  bool l2_kernel_pinning = false;  // Sections 6.4/8: whole kernel in the L2
  std::vector<ManualConstraint> constraints;
};

// Derives the cost-model configuration that |options| implies for |image|:
// the default machine (MachineConfig{} with options.l2_enabled, the machine
// every driver runs) and, for each pinning option, the lines the kernel locks.
CostModelOptions BuildCostModelOptions(const KernelImage& image, const AnalysisOptions& options);

// The entry function of |e| in |image| (kernel exception vector).
FuncId AnalysisEntryFunc(const KernelImage& image, EntryPoint e);

struct EntryResult {
  EntryPoint entry = EntryPoint::kSyscall;
  SolveStatus status = SolveStatus::kInfeasible;
  Cycles wcet = 0;
  double micros = 0;  // at the modelled 532 MHz clock
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t loops_bounded_auto = 0;   // Section 5.3
  std::size_t loops_bounded_annot = 0;
  Trace worst_trace;
};

// The worst-case interrupt response time (paper Section 6) from the four
// entries' results, indexed by EntryPoint: the longest of the syscall,
// undefined-instruction and page-fault paths plus the interrupt path. Throws
// std::runtime_error naming the first entry whose status is not kOptimal —
// its wcet bounds nothing, so no sum that counts it is returned. The
// analyzer and the test oracle compute the bound through this one sum.
Cycles ResponseBoundOf(const std::array<const EntryResult*, 4>& by_entry);

// Analysis driver for one (kernel image, options) pair.
//
// Every pipeline stage of an entry point is cached under a chained FNV
// digest of the block content that stage consumes (src/kir/digest.h), over
// the entry's call closure:
//
//   graph key = chain(structure digests)
//   loop  key = chain(loop digests, seeded by the graph key)
//   cost  key = chain(cost digests, seeded by the loop key)
//   ipet  key = chain(ipet digests, seeded by the cost key)
//
// A query re-derives only the stages below the first key that moved: the
// first query of an entry derives everything; after NotifyBlockEdited, a
// loop-bound annotation edit re-runs loop bounds + node costs, and a
// preemption-point toggle only the IPET stage. Any IPET key miss rebuilds
// the entry's ILP whole; when the graph key hit, the previous optimal basis
// follows the rows by content onto the rebuild (IlpWarmStart::Rebase), and
// the solve warm-restarts from it (SolveIlpWarm) and falls back to a cold
// solve deterministically, so every answer is bit-identical to a fresh
// analyzer over the same image (and to the test oracle, tests/wcet_oracle.h).
// The block-level cost-model cache is built once, at construction.
//
// Thread-safety: the const queries may run concurrently. Each entry's cache
// has its own mutex, so queries on different entries re-derive in parallel
// and racing queries on one entry derive it once. NotifyBlockEdited (and
// the Program::mutable_block edit it follows) needs exclusive access.
class WcetAnalyzer {
 public:
  WcetAnalyzer(const KernelImage& image, const AnalysisOptions& options);

  EntryResult Analyze(EntryPoint entry) const;

  // Computed cost of a specific concrete path under the conservative model
  // (forcing the analysis onto a measured path, Sections 5.4/6.2).
  Cycles EvaluateTrace(const Trace& trace) const;

  // Worst-case interrupt response time: WCET(longest entry) + WCET(interrupt
  // path) (paper Section 6). Throws if any entry is not optimal
  // (ResponseBoundOf).
  Cycles InterruptResponseBound() const;

  // Unconditional per-block cost ceilings (all non-pinned accesses miss),
  // indexed by BlockId. Valid for any cache state; the block profiler checks
  // observed per-execution costs against these. Supported edits never change
  // block cost content, so this is constant for the analyzer's lifetime.
  std::vector<Cycles> PerBlockBounds() const;

  // Tells the analyzer |block|'s content may have changed (after a
  // Program::mutable_block edit). Recomputes the block's digests; entries
  // whose keys moved re-derive the affected stages on their next query.
  // Returns true if any digest actually moved.
  bool NotifyBlockEdited(BlockId block);

 private:
  struct StageKeys {
    std::uint64_t graph = 0;
    std::uint64_t loops = 0;
    std::uint64_t cost = 0;
    std::uint64_t ipet = 0;
  };

  struct EntryCache {
    std::mutex mu;
    bool valid = false;  // every stage below derived at least once
    StageKeys keys;
    std::unique_ptr<InlinedGraph> graph;
    CostResult costs;
    IpetProgram lp;  // the program |warm| was solved on
    IlpWarmStart warm;
    EntryResult result;
  };

  StageKeys ComputeKeys(std::size_t entry_idx) const;

  const KernelImage* image_;
  AnalysisOptions opts_;
  CostModelCache block_cache_;
  ProgramDigests digests_;
  std::array<std::vector<BlockId>, 4> closure_blocks_;
  mutable std::array<EntryCache, 4> entries_;
};

}  // namespace pmk

#endif  // SRC_WCET_ANALYSIS_H_
