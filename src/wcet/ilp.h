// Exact integer-linear-programming solver for IPET (paper Section 5.2).
//
// Chronos emits an ILP that is handed to an off-the-shelf solver; we build
// that solver too: a sparse revised simplex (CSR/CSC constraint matrix,
// product-form eta-file basis inverse with periodic refactorisation,
// warm-started branch-and-bound) whose pivots cost what they changed: the
// entering column comes from a tournament tree replayed at the re-priced
// columns, FTRAN applies only the etas the entering column reaches, the duals
// come from an incremental BTRAN that recomputes only the steps whose inputs
// changed, only the columns on rows whose dual moved are re-priced, and the
// ratio test visits only the rows FTRAN wrote. The test oracle's dense
// two-phase tableau (tests/wcet_oracle.h)
// must agree with it exactly on status, bounds and solutions, and on an LP
// relaxation take the same pivots: IPET programs have alternative optima, so
// the pivot path decides which optimal solution (and worst-case trace) is
// reported. IPET instances are network-flow shaped, so the relaxation is
// almost always integral and branching is a rarely-exercised safety net.

#ifndef SRC_WCET_ILP_H_
#define SRC_WCET_ILP_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace pmk {

struct LinearProgram {
  enum class RowType : std::uint8_t { kLe, kEq };

  struct Row {
    // Sparse coefficients: parallel (index, value) lists.
    std::vector<std::uint32_t> idx;
    std::vector<double> val;
    double rhs = 0;
    RowType type = RowType::kLe;
  };

  std::uint32_t num_vars = 0;
  std::vector<double> objective;  // maximize objective . x, x >= 0
  std::vector<Row> rows;

  std::uint32_t AddVar(double obj_coeff = 0) {
    objective.push_back(obj_coeff);
    return num_vars++;
  }
  void AddRow(Row row) { rows.push_back(std::move(row)); }
};

enum class SolveStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

struct SolveResult {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0;
  std::vector<double> x;
  // Simplex iterations attempted (summed over phases and, for SolveIlp, over
  // all branch-and-bound nodes). Diagnostic only: lets tests assert that the
  // Bland anti-cycling rule or the warm-start path actually engaged.
  std::uint64_t pivots = 0;
};

// Solves the LP relaxation (x real, >= 0).
SolveResult SolveLp(const LinearProgram& lp);

// Solves with all variables integer. |max_nodes| bounds branch-and-bound.
SolveResult SolveIlp(const LinearProgram& lp, std::uint32_t max_nodes = 10'000);

// Opaque carrier for a previous solve's optimal basis (position-independent
// tokens: structural var / slack-of-row / artificial-of-row). Lets the next
// SolveIlpWarm of a slightly edited instance restart the sparse revised
// simplex from where the last one finished instead of solving cold. A
// moved-from IlpWarmStart holds no basis, like a new one.
class IlpWarmStart {
 public:
  IlpWarmStart();
  ~IlpWarmStart();
  IlpWarmStart(IlpWarmStart&&) noexcept;
  IlpWarmStart& operator=(IlpWarmStart&&) noexcept;

  bool valid() const;
  void Reset();  // forget the stored basis (forces the next solve cold)

  // Rebases the stored basis across an in-place row edit described by
  // |old_to_new|: entry r holds the new index of old row r, or -1 if that
  // row was removed. |new_count| is the edited instance's row count; new
  // rows (indices absent from the mapping) enter with their own slack or
  // artificial basic — block-triangular against the surviving basis.
  // Structural tokens pass through untouched; slack/artificial tokens are
  // re-indexed through the mapping, and a token whose row was removed is
  // substituted with its position's own slack. Without this, a row-count
  // change leaves every later slack token pointing at the wrong row and the
  // "warm" solve degenerates into near-cold repair. No-op when no basis is
  // stored; a mapping that doesn't match the stored basis drops it (next
  // solve runs cold).
  void RemapRows(const std::vector<std::int32_t>& old_to_new, std::uint32_t new_count);

 private:
  friend SolveResult SolveIlpWarm(const LinearProgram&, IlpWarmStart&, std::uint32_t);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// SolveIlp, warm-restarting the root relaxation from |warm| when it holds a
// basis: the stored basis is re-imported against the new instance (rows may
// have been patched in place or LE rows appended at the end), refactorised,
// repaired to primal feasibility by a bounded dual-simplex loop, then
// cleaned up by the primal. Import or numerical trouble, and any warm
// relaxation (root or branch-and-bound child) that does not end optimal,
// fall back deterministically to a cold solve — the result is always
// identical to SolveIlp on the same instance. On an optimal solve the root basis is
// stored back into |warm| for the next call.
SolveResult SolveIlpWarm(const LinearProgram& lp, IlpWarmStart& warm,
                         std::uint32_t max_nodes = 10'000);

}  // namespace pmk

#endif  // SRC_WCET_ILP_H_
