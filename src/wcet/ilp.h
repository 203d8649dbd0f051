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
//
// A LinearProgram holds its rows in one flat store. WcetAnalyzer rebuilds an
// entry's program after an edit instead of patching it, and
// IlpWarmStart::Rebase carries the last optimal basis onto the rebuild by
// row content.

#ifndef SRC_WCET_ILP_H_
#define SRC_WCET_ILP_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace pmk {

struct LinearProgram {
  enum class RowType : std::uint8_t { kLe, kEq };

  // One row read in place: parallel (index, value) lists.
  struct RowView {
    std::span<const std::uint32_t> idx;
    std::span<const double> val;
    double rhs = 0;
    RowType type = RowType::kLe;
  };

  // One row, filled in place and appended by AddRow.
  struct Row {
    std::vector<std::uint32_t> idx;
    std::vector<double> val;
    double rhs = 0;
    RowType type = RowType::kLe;
  };

  std::uint32_t num_vars = 0;
  std::vector<double> objective;  // maximize objective . x, x >= 0
  // The rows in one CSR-style store: row r's coefficients are
  // cols/vals[row_start[r], row_start[r + 1]).
  std::vector<std::uint32_t> row_start{0};
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
  std::vector<double> rhs;
  std::vector<RowType> types;

  std::uint32_t AddVar(double obj_coeff = 0) {
    objective.push_back(obj_coeff);
    return num_vars++;
  }
  void AddRow(const Row& row) {
    cols.insert(cols.end(), row.idx.begin(), row.idx.end());
    vals.insert(vals.end(), row.val.begin(), row.val.end());
    row_start.push_back(static_cast<std::uint32_t>(cols.size()));
    rhs.push_back(row.rhs);
    types.push_back(row.type);
  }
  std::uint32_t num_rows() const { return static_cast<std::uint32_t>(rhs.size()); }
  RowView row(std::uint32_t r) const {
    const std::uint32_t b = row_start[r];
    const std::size_t n = row_start[r + 1] - b;
    return {{cols.data() + b, n}, {vals.data() + b, n}, rhs[r], types[r]};
  }
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

  // Carries the stored basis, exported from a solve of |from|, onto |to|:
  // a rebuild of the same program over the same variables whose rows may
  // have been edited, inserted or removed. Rows are matched by content, in
  // order: each row of |from| takes the next unmatched row of |to| with the
  // same coefficients, right-hand side and type, and the rows of |to| it
  // skips over are insertions. Structural tokens pass through untouched;
  // slack/artificial tokens follow their row, a token whose row found no
  // match becomes the slack of the row its position moved to, and a row of
  // |to| no position moved to enters with its own slack or artificial basic
  // (a singleton column, block-triangular against the carried basis). A
  // stored basis that does not match |from|'s row count is dropped (the
  // next solve runs cold). Returns the number of rows of |from| without a
  // match in |to|, with or without a stored basis.
  std::size_t Rebase(const LinearProgram& from, const LinearProgram& to);

 private:
  friend SolveResult SolveIlpWarm(const LinearProgram&, IlpWarmStart&, std::uint32_t);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// SolveIlp, warm-restarting the root relaxation from |warm| when it holds a
// basis: the stored basis is re-imported against the new instance (an edited
// rebuild it was Rebase'd onto, or one with LE rows appended at the end), refactorised,
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
