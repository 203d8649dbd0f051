// Implicit path enumeration (IPET): encodes the inlined CFG, loop bounds and
// manual path constraints as an ILP whose optimum is the WCET (Section 5.2).
//
// Construction and solving are split so WcetAnalyzer (src/wcet/analysis.h)
// can warm-restart an entry's solve across kernel-IR edits. A program is a
// pure function of its graph, costs, options and constraints, so an edit
// rebuilds it whole (BuildIpetProgram); the previous optimal basis follows
// the rows by content onto the rebuild (IlpWarmStart::Rebase) and the solve
// restarts from it (SolveIpetProgramWarm). RunIpet remains the one-shot
// wrapper: build everything, solve cold.

#ifndef SRC_WCET_IPET_H_
#define SRC_WCET_IPET_H_

#include <cstdint>
#include <vector>

#include "src/kir/trace.h"
#include "src/wcet/cfg.h"
#include "src/wcet/cost.h"
#include "src/wcet/ilp.h"

namespace pmk {

// Manual ILP constraints in the paper's three forms (Section 5.2):
//   kConflict:   "a conflicts with b in f" — never both in one invocation.
//   kConsistent: "a is consistent with b in f" — equal execution counts.
//   kExecutes:   "a executes n times" — at most n in all contexts combined.
struct ManualConstraint {
  enum class Kind : std::uint8_t { kConflict, kConsistent, kExecutes };
  Kind kind = Kind::kExecutes;
  BlockId a = kNoBlock;
  BlockId b = kNoBlock;
  std::uint32_t n = 0;
};

struct IpetOptions {
  // Interrupt-latency mode: an interrupt is assumed pending for the whole
  // path, so execution cannot continue past a preemption point (their
  // continue edges are pinned to zero). This is what bounds every
  // preemptible loop to a single chunk.
  bool irq_pending = true;
};

struct IpetResult {
  SolveStatus status = SolveStatus::kInfeasible;
  Cycles wcet = 0;
  std::vector<std::uint32_t> edge_counts;  // per InlinedGraph edge
  std::vector<std::uint32_t> node_counts;  // per InlinedGraph node
};

// The materialised ILP: one variable per InlinedGraph edge, whose objective
// coefficient is the cost of entering the edge. Row order: flow conservation
// at every node, the source row, loop-bound rows, path-end pin rows,
// preemption-point pin rows (irq mode), absolute-execution-bound rows, then
// the manual rows.
using IpetProgram = LinearProgram;

// Builds the full ILP for |graph|.
IpetProgram BuildIpetProgram(const InlinedGraph& graph, const CostResult& costs,
                             const IpetOptions& options,
                             const std::vector<ManualConstraint>& constraints);

// Reads the edge and node counts of an ILP solution of |graph|'s program.
IpetResult ExtractIpetResult(const InlinedGraph& graph, const SolveResult& solution);

// Solves a built program cold.
IpetResult SolveIpetProgram(const InlinedGraph& graph, const IpetProgram& prog);

// Solves warm-restarting from |warm| (see SolveIlpWarm): bit-identical to
// the cold solve, just fewer pivots when the edit was small.
IpetResult SolveIpetProgramWarm(const InlinedGraph& graph, const IpetProgram& prog,
                                IlpWarmStart& warm);

IpetResult RunIpet(const InlinedGraph& graph, const CostResult& costs,
                   const IpetOptions& options,
                   const std::vector<ManualConstraint>& constraints);

// Reconstructs a concrete worst-case block trace from the ILP solution
// (Hierholzer walk over the edge counts) — the paper's "converted the
// solution to a concrete execution trace" step (Section 6). Empty for a
// solution of more than 4 Mi block executions, and for one whose counts
// the walk cannot consume whole (a cycle the path never reaches).
Trace ExtractWorstTrace(const InlinedGraph& graph, const IpetResult& result);

}  // namespace pmk

#endif  // SRC_WCET_IPET_H_
