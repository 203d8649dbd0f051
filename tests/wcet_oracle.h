// Independent oracle for the WCET pipeline.
//
// The slow, plain twin of every layer the production analyzer
// (src/wcet/analysis.h) optimises, kept out of the production libraries:
// only the WCET tests link it. It holds
//
//   - a dense two-phase tableau simplex with its own cold branch-and-bound
//     (same node order, branching variable and pruning as SolveIlp);
//   - its own must-cache domain (MustCache/AbstractState: per set, the line
//     address resident, one heap state per node) where production numbers
//     each set's lines (CostModelCache);
//   - the must-cache fixpoint as whole-graph passes iterated to convergence,
//     collecting every block's accesses on each visit (no CostModelCache);
//   - trace evaluation and per-block ceilings by the same per-visit
//     collection;
//   - the seed's worst-trace walk, splicing sub-tours into a std::list;
//   - loop bounds derived by cycle simulation only (no closed form);
//   - WcetOracle, which re-derives all of it on every query.
//
// It shares only production parts it does not check: graph construction,
// the IPET program builder and result extraction, the cost-model options,
// the per-block access enumeration and base cost (CollectAccesses, IsPinned,
// BaseCost) and the response-bound sum. The oracle is chosen by constructing
// it; nothing in production selects it.

#ifndef TESTS_WCET_ORACLE_H_
#define TESTS_WCET_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kernel/image.h"
#include "src/wcet/analysis.h"
#include "src/wcet/cost.h"
#include "src/wcet/ilp.h"
#include "src/wcet/ipet.h"
#include "src/wcet/loopbound.h"

namespace pmk {
namespace oracle {

// Dense tableau solves of the LP relaxation and of the ILP.
SolveResult SolveLp(const LinearProgram& lp);
SolveResult SolveIlp(const LinearProgram& lp, std::uint32_t max_nodes = 10'000);

// Node costs and loop first-miss charges, as production ComputeNodeCosts.
CostResult ComputeNodeCosts(const InlinedGraph& graph, const CostModelOptions& opts);

// The cost of one block sequence, as production EvaluateTraceCost.
Cycles EvaluateTraceCost(const Program& program, const CostModelOptions& opts, const Trace& trace);

// The worst-case block trace of an optimal IPET solution, as production
// ExtractWorstTrace: empty past the size cap or for a disconnected solution.
Trace ExtractWorstTrace(const InlinedGraph& graph, const IpetResult& result);

}  // namespace oracle

// The oracle counterpart of WcetAnalyzer: the same queries, each re-derived
// from the image on every call. Loop bounds come from ComputeLoopBounds with
// SimulateCycle; trace costs and per-block ceilings collect each block's
// accesses on every visit, and worst traces come from the list walk.
class WcetOracle {
 public:
  WcetOracle(const KernelImage& image, const AnalysisOptions& options);

  EntryResult Analyze(EntryPoint entry) const;
  Cycles EvaluateTrace(const Trace& trace) const;
  Cycles InterruptResponseBound() const;
  std::vector<Cycles> PerBlockBounds() const;

 private:
  const KernelImage* image_;
  AnalysisOptions opts_;
  CostModelOptions cost_opts_;
};

// The fields in which |got| differs from |want|, one "field: want vs got"
// per line; empty when the two are identical, worst traces included.
std::string DiffEntryResults(const EntryResult& want, const EntryResult& got);

// DiffEntryResults of |oracle| against |analyzer| on every entry point, each
// difference prefixed by the entry's name; empty when all four match. The
// comparison every analyzer-vs-oracle test makes.
std::string DiffFromOracle(const WcetAnalyzer& analyzer, const WcetOracle& oracle);

}  // namespace pmk

#endif  // TESTS_WCET_ORACLE_H_
