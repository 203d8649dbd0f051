// Implicit path enumeration (IPET): encodes the inlined CFG, loop bounds and
// manual path constraints as an ILP whose optimum is the WCET (Section 5.2).
//
// Construction and solving are split so WcetAnalyzer (src/wcet/analysis.h)
// can keep one IpetProgram per entry alive across kernel-IR edits: row
// families whose inputs did not change are reused structurally, only the
// dirtied families are re-emitted (PatchIpet*), and the solve is
// warm-restarted from the previous optimal basis (SolveIpetProgramWarm).
// RunIpet remains the one-shot wrapper: build everything, solve cold.

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

// The materialised ILP plus the row-family boundaries the incremental
// patchers need. Row layout (in order): flow-conservation + source rows
// (pure CFG structure), loop-bound rows, path-end pin rows (structure),
// preemption-point pin rows, absolute-execution-bound rows, manual rows.
struct IpetProgram {
  LinearProgram lp;
  std::uint32_t flow_end = 0;     // flow rows + the source row
  std::uint32_t loops_end = 0;    // then one row per bounded loop
  std::uint32_t pathend_end = 0;  // then path-end pin rows
  std::uint32_t preempt_end = 0;  // then preemption pin rows (irq mode)
  std::uint32_t exec_end = 0;     // then absolute-exec-bound rows; manual
                                  // rows run to lp.rows.size()
};

// Builds the full ILP for |graph| (identical row order to what RunIpet has
// always emitted).
IpetProgram BuildIpetProgram(const InlinedGraph& graph, const CostResult& costs,
                             const IpetOptions& options,
                             const std::vector<ManualConstraint>& constraints);

// Re-derives the per-edge objective coefficients from |costs|, leaving every
// constraint row untouched. O(edges).
void PatchIpetObjective(const InlinedGraph& graph, const CostResult& costs, IpetProgram& prog);

// Re-emits the loop-bound row family from the graph's current loop bounds,
// splicing it over the previous family (later families shift if the row
// count changed). When |warm| is given, its stored basis is rebased across
// the splice (IlpWarmStart::RemapRows) so the next solve still restarts
// warm even when the family grew or shrank. Returns the number of rows that
// actually differ.
std::size_t PatchIpetLoopRows(const InlinedGraph& graph, IpetProgram& prog,
                              IlpWarmStart* warm = nullptr);

// Re-emits the preemption-pin and absolute-exec-bound families from the
// blocks' current flags/bounds, rebasing |warm| across both splices when
// given. Returns the number of rows that differ.
std::size_t PatchIpetExtraRows(const InlinedGraph& graph, const IpetOptions& options,
                               IpetProgram& prog, IlpWarmStart* warm = nullptr);

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
// solution to a concrete execution trace" step (Section 6).
Trace ExtractWorstTrace(const InlinedGraph& graph, const IpetResult& result);

}  // namespace pmk

#endif  // SRC_WCET_IPET_H_
