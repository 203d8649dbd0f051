// Process-wide reference-mode switch for the WCET analysis pipeline.
//
// Reference mode selects the pre-optimisation twin of every layer that was
// overhauled for host speed:
//   - SolveLp/SolveIlp fall back to the dense two-phase tableau simplex
//     (cold-started branch-and-bound, no warm bases),
//   - WcetAnalyzer instances constructed while the mode is active skip all
//     per-entry memoization and re-derive the inlined graph, loop bounds and
//     abstract-cache fixpoint on every call, as the seed implementation did.
//
// Both paths must produce bit-identical WCET bounds, solve statuses, worst
// traces and byte-identical table output; bench/bench_wcet_pipeline.cc and
// tests/wcet_equivalence_test.cc enforce that.  The flag is sampled by
// WcetAnalyzer at construction time and by the solver at each solve, so flip
// it only between pipeline runs, not mid-analysis.

#ifndef SRC_WCET_REFMODE_H_
#define SRC_WCET_REFMODE_H_

namespace pmk {
namespace wcet {

void SetReferenceMode(bool on);
bool ReferenceMode();

}  // namespace wcet
}  // namespace pmk

#endif  // SRC_WCET_REFMODE_H_
