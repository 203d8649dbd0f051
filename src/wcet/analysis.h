// End-to-end WCET analysis driver (paper Section 5).
//
// Ties the pipeline together: virtual inlining, automatic loop bounds,
// conservative cache/pipeline cost model, IPET/ILP — and produces per-entry
// WCET bounds, concrete worst-case traces, and forced-path evaluations for
// the computed-vs-observed comparison.

#ifndef SRC_WCET_ANALYSIS_H_
#define SRC_WCET_ANALYSIS_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/kernel/image.h"
#include "src/wcet/cost.h"
#include "src/wcet/ipet.h"
#include "src/wcet/loopbound.h"

namespace pmk {

struct AnalysisOptions {
  bool l2_enabled = false;
  bool irq_pending = true;         // interrupt-latency mode
  bool cache_pinning = false;      // Section 4: L1 way-locking
  bool l2_kernel_pinning = false;  // Sections 6.4/8: whole kernel in the L2
  std::uint32_t pin_ways = 1;      // 1/4 of each 4-way L1
  std::vector<ManualConstraint> constraints;
};

// The four analyzed kernel entry points.
enum class EntryPoint : std::uint8_t { kSyscall, kUndefined, kPageFault, kInterrupt };
const char* EntryPointName(EntryPoint e);

// Derives the cost-model configuration (L2, pinning, locked line sets) that
// |options| implies for |image|. Shared by WcetAnalyzer and
// IncrementalWcetAnalyzer so both derive identical cost models.
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
// its wcet bounds nothing, so no sum that counts it is returned. Every
// analyzer and the query service compute the bound through this one sum.
Cycles ResponseBoundOf(const std::array<const EntryResult*, 4>& by_entry);

// Analysis driver for one (kernel image, options) pair.
//
// The expensive intermediate state — the block-level cost-model cache and,
// per entry point, the inlined graph / loop bounds / abstract-cache fixpoint
// / IPET solution — is derived once on first use and memoized, shared by
// Analyze, EvaluateTrace, InterruptResponseBound and PerBlockBounds.
// Memoization is thread-safe (std::call_once per cache), so one analyzer may
// be driven concurrently from engine::RunJobs workers. Analyzers constructed
// while pmk::wcet::ReferenceMode() is on skip all memoization and re-derive
// everything per call, reproducing the seed cost profile for benchmarking.
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
  // observed per-execution costs against these.
  std::vector<Cycles> PerBlockBounds() const;

  const CostModelOptions& cost_options() const { return cost_opts_; }

 private:
  struct EntryState {
    std::once_flag once;
    std::unique_ptr<EntryResult> result;
    // Set (release) after |result| is populated; lets the memo-hit telemetry
    // probe the cache state without racing the call_once writer.
    std::atomic<bool> ready{false};
  };

  FuncId EntryFunc(EntryPoint e) const;
  EntryResult AnalyzeUncached(EntryPoint entry) const;
  const CostModelCache& BlockCache() const;

  const KernelImage* image_;
  AnalysisOptions opts_;
  CostModelOptions cost_opts_;
  bool memoize_ = true;  // false when constructed in reference mode

  mutable std::array<EntryState, 4> entries_;
  mutable std::once_flag block_cache_once_;
  mutable std::unique_ptr<CostModelCache> block_cache_;
};

}  // namespace pmk

#endif  // SRC_WCET_ANALYSIS_H_
