#include "src/wcet/ilp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "src/obs/metrics.h"

namespace pmk {

// Position-independent basis export token ({structural var | slack of row r |
// artificial of row r}). Defined at namespace scope (not in the anonymous
// namespace) because IlpWarmStart::Impl stores a vector of them.
struct BasisToken {
  enum class Kind : std::uint8_t { kStruct, kSlack, kArt };
  Kind kind = Kind::kStruct;
  std::uint32_t id = 0;  // var index for kStruct, row index otherwise
};

struct IlpWarmStart::Impl {
  std::vector<BasisToken> tokens;
};

IlpWarmStart::IlpWarmStart() : impl_(std::make_unique<Impl>()) {}
IlpWarmStart::~IlpWarmStart() = default;
IlpWarmStart::IlpWarmStart(IlpWarmStart&&) noexcept = default;
IlpWarmStart& IlpWarmStart::operator=(IlpWarmStart&&) noexcept = default;
bool IlpWarmStart::valid() const { return impl_ && !impl_->tokens.empty(); }
void IlpWarmStart::Reset() {
  if (impl_) {
    impl_->tokens.clear();
  }
}

void IlpWarmStart::RemapRows(const std::vector<std::int32_t>& old_to_new,
                             std::uint32_t new_count) {
  if (!valid()) {
    return;
  }
  std::vector<BasisToken>& tokens = impl_->tokens;
  const std::uint32_t old_m = static_cast<std::uint32_t>(tokens.size());
  if (old_to_new.size() != old_m) {
    // The stored basis does not match the instance the mapping was built
    // against (e.g. it was exported under a different option set).
    Reset();
    return;
  }
  std::vector<BasisToken> out(new_count, BasisToken{BasisToken::Kind::kSlack, 0});
  std::vector<char> filled(new_count, 0);
  for (std::uint32_t p = 0; p < old_m; ++p) {
    const std::int32_t np = old_to_new[p];
    if (np < 0) {
      continue;  // this position's row was removed; drop its token
    }
    if (static_cast<std::uint32_t>(np) >= new_count || filled[np]) {
      Reset();  // malformed mapping (out of range or not injective)
      return;
    }
    BasisToken t = tokens[p];
    if (t.kind != BasisToken::Kind::kStruct) {
      if (t.id >= old_m) {
        Reset();
        return;
      }
      const std::int32_t nid = old_to_new[t.id];
      if (nid < 0) {
        // The referenced row was removed; fall back to the slack of the row
        // now occupying this position. A duplicate against another token is
        // caught by ImportBasis and falls through to a cold solve.
        t = BasisToken{BasisToken::Kind::kSlack, static_cast<std::uint32_t>(np)};
      } else {
        t.id = static_cast<std::uint32_t>(nid);
      }
    }
    out[static_cast<std::uint32_t>(np)] = t;
    filled[np] = 1;
  }
  // Rows with no surviving position (freshly inserted) enter with their own
  // slack or artificial basic: a singleton column, block-triangular against
  // the surviving basis, so refactorisation stays nonsingular.
  for (std::uint32_t r = 0; r < new_count; ++r) {
    if (!filled[r]) {
      out[r] = BasisToken{BasisToken::Kind::kSlack, r};
    }
  }
  tokens = std::move(out);
}

namespace {

constexpr double kEps = 1e-7;
constexpr std::uint64_t kMaxPivots = 200'000;

// Solver telemetry: totals across every LP/ILP solve in the process.
obs::Counter& LpSolveCounter() {
  static obs::Counter c("wcet.simplex.solves");
  return c;
}
obs::Counter& PivotCounter() {
  static obs::Counter c("wcet.simplex.pivots");
  return c;
}
obs::Counter& RefactorCounter() {
  static obs::Counter c("wcet.simplex.refactorisations");
  return c;
}
// Warm-start basis imports whose refactorisation succeeded. Kept apart from
// wcet.simplex.refactorisations, which counts the pivot loop's periodic ones.
obs::Counter& ImportCounter() {
  static obs::Counter c("wcet.simplex.imports");
  return c;
}
obs::Counter& BbNodeCounter() {
  static obs::Counter c("wcet.bb.nodes");
  return c;
}
obs::Counter& BbWarmStartCounter() {
  static obs::Counter c("wcet.bb.warm_starts");
  return c;
}
// Incremental-engine telemetry: how often SolveIlpWarm actually restarted
// from a stored basis vs. fell through to a cold root solve.
obs::Counter& IncWarmSolveCounter() {
  static obs::Counter c("wcet.inc.simplex.warm");
  return c;
}
obs::Counter& IncColdSolveCounter() {
  static obs::Counter c("wcet.inc.simplex.cold");
  return c;
}

// A set of row indices visited in ascending order without a sort: one bit per
// row, plus the range of words that may hold a bit. FTRAN and the
// refactorisation's numeric pass collect the rows a sparse column fills in
// one, and visit them in the order a dense 0..m-1 sweep would meet them.
class RowSet {
 public:
  // Empties the set and sizes it for rows 0..m-1.
  void Reset(std::uint32_t m) {
    bits_.assign((m + 63) / 64, 0);
    lo_ = static_cast<std::uint32_t>(bits_.size());
    hi_ = 0;
  }

  // Adds |r|; returns false if it was already present.
  bool Insert(std::uint32_t r) {
    std::uint64_t& word = bits_[r / 64];
    const std::uint64_t bit = std::uint64_t{1} << (r % 64);
    if (word & bit) {
      return false;
    }
    word |= bit;
    lo_ = std::min(lo_, r / 64);
    hi_ = std::max(hi_, r / 64 + 1);
    return true;
  }

  // Calls visit(r) for every row in the set, in ascending order.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    for (std::uint32_t i = lo_; i < hi_; ++i) {
      for (std::uint64_t word = bits_[i]; word != 0; word &= word - 1) {
        visit(i * 64 + static_cast<std::uint32_t>(std::countr_zero(word)));
      }
    }
  }

  void Clear() {
    for (std::uint32_t i = lo_; i < hi_; ++i) {
      bits_[i] = 0;
    }
    lo_ = static_cast<std::uint32_t>(bits_.size());
    hi_ = 0;
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::uint32_t lo_ = 0;  // words [lo_, hi_) may hold bits
  std::uint32_t hi_ = 0;
};

// ---------------------------------------------------------------------------
// Sparse revised simplex.
//
// Same column layout, rhs normalization, pivot rules, tolerances, phase
// structure and status mapping as the dense tableau of the test oracle
// (tests/wcet_oracle.h), so both walk the same vertex sequence (fp ties
// aside); only the linear algebra differs.
// The constraint matrix is stored once in CSR (the columns a row's dual
// reaches) and CSC (pricing a column, FTRAN of an entering column); the basis
// inverse is a product-form eta file refreshed by periodic refactorisation
// (TryRefactorize). A pivot costs what it changed: only the columns on rows
// whose dual moved are re-priced, and the ratio test and the new eta visit
// only the rows FTRAN wrote for the entering column. Every value that decides
// a pivot is bit-identical to what a full pricing, a 0..m-1 ratio scan and a
// walk of the whole eta list would compute: IPET programs have alternative
// optima, so the pivot path decides which optimal x (and worst-case trace)
// comes out.
// Refactorisation may permute which basis *position* holds which basic
// variable; that is harmless because every rule that touches positions
// (ratio-test tie-break, pricing, extraction) keys off the basic variable id,
// never the position index.
//
// Branch-and-bound children are solved warm: the parent's optimal basis is
// exported as position-independent tokens ({structural var | slack of row r |
// artificial of row r}), re-imported against the child's column numbering
// with the new bound row's slack appended (block-triangular, hence
// nonsingular), and primal feasibility is restored by a bounded dual-simplex
// loop. Any import/refactorisation/numerical trouble falls back
// deterministically to a cold two-phase solve.

class RevisedSimplex {
 public:
  // Solves lp with |extra| rows appended (without materialising the copy).
  RevisedSimplex(const LinearProgram& lp, const std::vector<LinearProgram::Row>* extra)
      : lp_(lp), extra_(extra) {
    Build();
  }
  explicit RevisedSimplex(const LinearProgram& lp) : RevisedSimplex(lp, nullptr) {}

  SolveResult Solve() {
    if (num_artificial_ > 0) {
      SetPhase(1);
      const SolveStatus st = Iterate();
      if (st != SolveStatus::kOptimal) {
        return Fail(st == SolveStatus::kUnbounded ? SolveStatus::kInfeasible : st);
      }
      if (PhaseObjective() < -kEps * (1 + static_cast<double>(m_))) {
        return Fail(SolveStatus::kInfeasible);
      }
      DriveOutArtificials();
    }
    SetPhase(2);
    const SolveStatus st = Iterate();
    if (st != SolveStatus::kOptimal) {
      return Fail(st);
    }
    return Extract();
  }

  // Warm start from a parent basis; positions beyond |warm| are filled with
  // the slacks of the trailing (newly appended) rows. A warm start may only
  // speed a solve up, never change its status: every path that does not end
  // optimal re-solves cold, and the cold verdict stands. (Phase 2 never
  // prices artificials and its ratio test skips rows the entering column
  // only grows, so a zero-valued basic artificial imported with the basis
  // can let it follow a ray of a relaxed equality row and report a spurious
  // kUnbounded.)
  SolveResult SolveWarm(const std::vector<BasisToken>& warm) {
    if (!ImportBasis(warm)) {
      return SolveCold();
    }
    SetPhase(2);
    // Dual repair, then a primal clean-up: usually zero pivots, but restores
    // optimality if the imported basis was not dual feasible to machine
    // precision.
    if (DualIterate() != SolveStatus::kOptimal || Iterate() != SolveStatus::kOptimal) {
      return SolveCold();
    }
    // A basic artificial that ended positive means the repaired point is not
    // feasible for the original rows (neither loop above is obliged to remove
    // one). Rare — the import guard rejects positive artificials up front —
    // but if repair drove one positive, discard the warm path entirely.
    for (std::uint32_t p = 0; p < m_; ++p) {
      if (basis_[p] >= art_base_ && beta_[p] > kEps) {
        return SolveCold();
      }
    }
    return Extract();
  }

  SolveResult SolveCold() {
    ResetBasis();
    return Solve();
  }

  std::vector<BasisToken> ExportBasis() const {
    std::vector<BasisToken> out(m_);
    for (std::uint32_t p = 0; p < m_; ++p) {
      const std::uint32_t col = basis_[p];
      if (col < nvars_) {
        out[p] = {BasisToken::Kind::kStruct, col};
      } else if (col < art_base_) {
        out[p] = {BasisToken::Kind::kSlack, static_cast<std::uint32_t>(home_row_[col])};
      } else {
        out[p] = {BasisToken::Kind::kArt, static_cast<std::uint32_t>(home_row_[col])};
      }
    }
    return out;
  }

 private:
  const LinearProgram::Row& RowAt(std::uint32_t r) const {
    const std::uint32_t base = static_cast<std::uint32_t>(lp_.rows.size());
    return r < base ? lp_.rows[r] : (*extra_)[r - base];
  }

  void Build() {
    const std::uint32_t base = static_cast<std::uint32_t>(lp_.rows.size());
    m_ = base + static_cast<std::uint32_t>(extra_ ? extra_->size() : 0);
    nvars_ = lp_.num_vars;
    slack_col_.assign(m_, -1);
    art_col_.assign(m_, -1);
    sign_.assign(m_, 1);
    std::uint32_t extra_cols = 0;
    for (std::uint32_t r = 0; r < m_; ++r) {
      const LinearProgram::Row& row = RowAt(r);
      const bool neg = row.rhs < 0;
      sign_[r] = neg ? -1 : 1;
      if (row.type == LinearProgram::RowType::kLe) {
        slack_col_[r] = static_cast<int>(nvars_ + extra_cols++);
        if (neg) {
          art_col_[r] = -2;
        }
      } else {
        art_col_[r] = -2;
      }
    }
    art_base_ = nvars_ + extra_cols;
    num_artificial_ = 0;
    for (std::uint32_t r = 0; r < m_; ++r) {
      if (art_col_[r] == -2) {
        art_col_[r] = static_cast<int>(art_base_ + num_artificial_++);
      }
    }
    ncols_ = art_base_ + num_artificial_;
    home_row_.assign(ncols_, -1);

    // CSR with duplicate accumulation (the dense build sums repeated column
    // indices into one tableau cell; mirror that exactly).
    row_ptr_.assign(m_ + 1, 0);
    row_col_.clear();
    row_val_.clear();
    b_.assign(m_, 0.0);
    std::vector<double> scatter(ncols_, 0.0);
    std::vector<std::uint32_t> touched;
    for (std::uint32_t r = 0; r < m_; ++r) {
      const LinearProgram::Row& row = RowAt(r);
      const double s = sign_[r];
      touched.clear();
      for (std::size_t k = 0; k < row.idx.size(); ++k) {
        const std::uint32_t c = row.idx[k];
        if (scatter[c] == 0.0) {
          touched.push_back(c);
        }
        scatter[c] += s * row.val[k];
      }
      if (slack_col_[r] >= 0) {
        const std::uint32_t c = static_cast<std::uint32_t>(slack_col_[r]);
        home_row_[c] = static_cast<int>(r);
        scatter[c] = (s > 0) ? 1.0 : -1.0;
        touched.push_back(c);
      }
      if (art_col_[r] >= 0) {
        const std::uint32_t c = static_cast<std::uint32_t>(art_col_[r]);
        home_row_[c] = static_cast<int>(r);
        scatter[c] = 1.0;
        touched.push_back(c);
      }
      std::sort(touched.begin(), touched.end());
      for (const std::uint32_t c : touched) {
        if (scatter[c] != 0.0) {
          row_col_.push_back(c);
          row_val_.push_back(scatter[c]);
        }
        scatter[c] = 0.0;
      }
      row_ptr_[r + 1] = static_cast<std::uint32_t>(row_col_.size());
      b_[r] = s * row.rhs;
    }

    // CSC transpose.
    col_ptr_.assign(ncols_ + 1, 0);
    for (const std::uint32_t c : row_col_) {
      ++col_ptr_[c + 1];
    }
    for (std::uint32_t c = 0; c < ncols_; ++c) {
      col_ptr_[c + 1] += col_ptr_[c];
    }
    col_row_.resize(row_col_.size());
    col_val_.resize(row_col_.size());
    std::vector<std::uint32_t> fill(col_ptr_.begin(), col_ptr_.end() - 1);
    for (std::uint32_t r = 0; r < m_; ++r) {
      for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const std::uint32_t c = row_col_[k];
        col_row_[fill[c]] = r;
        col_val_[fill[c]] = row_val_[k];
        ++fill[c];
      }
    }
    nnz_ = static_cast<std::uint64_t>(row_col_.size());

    y_.assign(m_, 0.0);
    y_next_.assign(m_, 0.0);
    rho_.assign(m_, 0.0);
    w_.assign(m_, 0.0);
    w_rows_.Reset(m_);
    rc_.assign(ncols_, 0.0);
    dirty_mark_.assign(ncols_, 0);
    alpha_.assign(ncols_, 0.0);
    c_.assign(ncols_, 0.0);
    ResetBasis();
  }

  void ResetBasis() {
    // Initial basis: artificial where present, else the (+1) slack; B0 = I.
    basis_.assign(m_, 0);
    in_basis_.assign(ncols_, 0);
    for (std::uint32_t r = 0; r < m_; ++r) {
      const int col = art_col_[r] >= 0 ? art_col_[r] : slack_col_[r];
      basis_[r] = static_cast<std::uint32_t>(col);
      in_basis_[static_cast<std::uint32_t>(col)] = 1;
    }
    ClearEtas();
    pivots_since_factor_ = 0;
    beta_ = b_;
  }

  void ClearEtas() {
    eta_r_.clear();
    eta_pivot_.clear();
    eta_row_.clear();
    eta_val_.clear();
    eta_ptr_.assign(1, 0);
  }

  std::uint64_t EtaNnz() const { return eta_row_.size() + eta_r_.size(); }

  // Installs the phase's costs, which moves every reduced cost: the one
  // place the solver prices all columns.
  void SetPhase(int phase) {
    std::fill(c_.begin(), c_.end(), 0.0);
    if (phase == 1) {
      for (std::uint32_t a = 0; a < num_artificial_; ++a) {
        c_[art_base_ + a] = -1.0;  // maximize -(sum of artificials)
      }
      limit_ = ncols_;
    } else {
      for (std::uint32_t v = 0; v < nvars_; ++v) {
        c_[v] = lp_.objective[v];
      }
      limit_ = art_base_;  // artificials never re-enter in phase 2
    }
    ComputeDuals(y_);
    for (std::uint32_t c = 0; c < limit_; ++c) {
      rc_[c] = in_basis_[c] ? 0.0 : PriceColumn(c);
    }
  }

  double PhaseObjective() const {
    double obj = 0.0;
    for (std::uint32_t p = 0; p < m_; ++p) {
      obj += c_[basis_[p]] * beta_[p];
    }
    return obj;
  }

  // The eta file is a flat pool (struct-of-arrays): eta k pivots row
  // eta_r_[k] with pivot value eta_pivot_[k]; its off-row entries live in
  // eta_row_/eta_val_ over [eta_ptr_[k], eta_ptr_[k+1]). Flat storage keeps
  // the FTRAN/BTRAN walks on contiguous memory and spares one heap
  // allocation per eta on the pivot path.
  void ApplyEta(std::size_t k, std::vector<double>& x) const {
    const std::uint32_t r = eta_r_[k];
    const double t = x[r] / eta_pivot_[k];
    if (t != 0.0) {
      for (std::uint32_t i = eta_ptr_[k]; i < eta_ptr_[k + 1]; ++i) {
        x[eta_row_[i]] -= eta_val_[i] * t;
      }
    }
    x[r] = t;
  }

  // w_ = B^-1 A_col. Each eta does ApplyEta's arithmetic, and the rows it
  // fills are recorded in w_rows_ as it goes: w_ is zero outside w_rows_, so
  // the ratio test and the eta build visit those rows, in ascending order,
  // instead of all m.
  void FtranColumn(std::uint32_t col) {
    w_rows_.ForEach([&](std::uint32_t i) { w_[i] = 0.0; });
    w_rows_.Clear();
    for (std::uint32_t k = col_ptr_[col]; k < col_ptr_[col + 1]; ++k) {
      w_[col_row_[k]] = col_val_[k];
      w_rows_.Insert(col_row_[k]);
    }
    for (std::size_t k = 0; k < eta_r_.size(); ++k) {
      const std::uint32_t r = eta_r_[k];
      const double t = w_[r] / eta_pivot_[k];
      if (t != 0.0) {
        for (std::uint32_t i = eta_ptr_[k]; i < eta_ptr_[k + 1]; ++i) {
          w_rows_.Insert(eta_row_[i]);
          w_[eta_row_[i]] -= eta_val_[i] * t;
        }
      }
      w_[r] = t;
    }
  }

  // y s.t. y = (B^-1)^T y_in; y is modified in place.
  void Btran(std::vector<double>& y) const {
    for (std::size_t k = eta_r_.size(); k-- > 0;) {
      double s = y[eta_r_[k]];
      for (std::uint32_t i = eta_ptr_[k]; i < eta_ptr_[k + 1]; ++i) {
        s -= eta_val_[i] * y[eta_row_[i]];
      }
      y[eta_r_[k]] = s / eta_pivot_[k];
    }
  }

  // y = (B^-1)^T c_B for the active phase costs.
  void ComputeDuals(std::vector<double>& y) const {
    for (std::uint32_t p = 0; p < m_; ++p) {
      y[p] = c_[basis_[p]];
    }
    Btran(y);
  }

  // rc_j = y . A_j - c_j: column j's nonzeros in ascending row order,
  // zero duals skipped. That is the sequence of additions a CSR sweep over
  // the rows with nonzero duals makes, so the value is the same to the bit
  // whichever way the columns are visited.
  double PriceColumn(std::uint32_t c) const {
    double rc = -c_[c];
    for (std::uint32_t k = col_ptr_[c]; k < col_ptr_[c + 1]; ++k) {
      const double yr = y_[col_row_[k]];
      if (yr != 0.0) {
        rc += yr * col_val_[k];
      }
    }
    return rc;
  }

  // Recomputes the duals after a pivot and re-prices only the columns whose
  // reduced cost can have moved: every column with a nonzero on a row whose
  // dual changed, and the two columns that swapped basis membership. Basic
  // columns hold 0, so the entering scans need no basis lookup. A dual that
  // compares equal contributes the same products as before (zeros of either
  // sign are skipped), so every other column keeps the exact value a full
  // pricing would recompute.
  void Reprice(std::uint32_t entered, std::uint32_t left) {
    ComputeDuals(y_next_);
    dirty_.clear();
    const auto mark = [&](std::uint32_t c) {
      if (c < limit_ && !dirty_mark_[c]) {
        dirty_mark_[c] = 1;
        dirty_.push_back(c);
      }
    };
    for (std::uint32_t r = 0; r < m_; ++r) {
      if (y_next_[r] != y_[r]) {
        for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
          mark(row_col_[k]);
        }
      }
    }
    mark(entered);
    mark(left);
    y_.swap(y_next_);
    for (const std::uint32_t c : dirty_) {
      dirty_mark_[c] = 0;
      rc_[c] = in_basis_[c] ? 0.0 : PriceColumn(c);
    }
  }

  void PivotStep(std::uint32_t p, std::uint32_t enter) {
    eta_r_.push_back(p);
    eta_pivot_.push_back(w_[p]);
    w_rows_.ForEach([&](std::uint32_t i) {
      if (i != p && w_[i] != 0.0) {
        eta_row_.push_back(i);
        eta_val_.push_back(w_[i]);
      }
    });
    eta_ptr_.push_back(static_cast<std::uint32_t>(eta_row_.size()));
    in_basis_[basis_[p]] = 0;
    basis_[p] = enter;
    in_basis_[enter] = 1;
    ApplyEta(eta_r_.size() - 1, beta_);
    if (++pivots_since_factor_ >= kRefactorEvery || EtaNnz() > 2 * nnz_ + 16 * m_) {
      if (TryRefactorize()) {
        RefactorCounter().Inc();
        pivots_since_factor_ = 0;
      } else {
        // Keep appending etas; reset the counter so we do not retry every
        // pivot against a basis that is refusing to factorise.
        pivots_since_factor_ = 0;
      }
    }
  }

  // Rebuilds the eta file for the current basis from scratch. A symbolic
  // singleton-peeling pass first discovers a pivot order that makes the
  // basis near-triangular: assigning a row singleton is fill-free (every
  // other active column is structurally zero in that row), and assigning a
  // column singleton bounds fill to the column's entries in already-pivoted
  // rows. Positions the peel cannot reach (the "bump") are ordered
  // sparsest-first and numerically partial-pivoted over whatever rows
  // remain. The numeric pass builds each eta through a scatter workspace
  // that visits only the rows the column actually touches, emitting off-row
  // entries in ascending row order so the floating-point sums match a dense
  // 0..m-1 sweep. Returns false (state untouched) if the basis looks
  // singular.
  bool TryRefactorize() {
    // ---- Symbolic pass: row adjacency of the basis matrix ----
    std::vector<std::uint32_t> radj_ptr(m_ + 1, 0);
    for (std::uint32_t p = 0; p < m_; ++p) {
      const std::uint32_t col = basis_[p];
      for (std::uint32_t k = col_ptr_[col]; k < col_ptr_[col + 1]; ++k) {
        ++radj_ptr[col_row_[k] + 1];
      }
    }
    for (std::uint32_t r = 0; r < m_; ++r) {
      if (radj_ptr[r + 1] == 0) {
        return false;  // structurally empty row: singular
      }
      radj_ptr[r + 1] += radj_ptr[r];
    }
    std::vector<std::uint32_t> radj(radj_ptr[m_]);
    {
      std::vector<std::uint32_t> fill(radj_ptr.begin(), radj_ptr.end() - 1);
      for (std::uint32_t p = 0; p < m_; ++p) {
        const std::uint32_t col = basis_[p];
        for (std::uint32_t k = col_ptr_[col]; k < col_ptr_[col + 1]; ++k) {
          radj[fill[col_row_[k]]++] = p;
        }
      }
    }
    std::vector<std::uint32_t> row_cnt(m_), col_cnt(m_);
    for (std::uint32_t r = 0; r < m_; ++r) {
      row_cnt[r] = radj_ptr[r + 1] - radj_ptr[r];
    }
    for (std::uint32_t p = 0; p < m_; ++p) {
      const std::uint32_t col = basis_[p];
      col_cnt[p] = col_ptr_[col + 1] - col_ptr_[col];
    }

    std::vector<char> row_done(m_, 0), col_done(m_, 0);
    std::vector<std::uint32_t> order;
    order.reserve(m_);
    std::vector<std::int64_t> chosen_row(m_, -1);
    // Stale-tolerant FIFO queues: entries are re-checked against the live
    // counts when popped, so stale pushes are simply skipped.
    std::vector<std::uint32_t> row_q, col_q;
    std::size_t row_head = 0, col_head = 0;
    for (std::uint32_t r = 0; r < m_; ++r) {
      if (row_cnt[r] == 1) {
        row_q.push_back(r);
      }
    }
    for (std::uint32_t p = 0; p < m_; ++p) {
      if (col_cnt[p] == 1) {
        col_q.push_back(p);
      }
    }
    const auto assign = [&](std::uint32_t p, std::uint32_t r) {
      col_done[p] = 1;
      row_done[r] = 1;
      chosen_row[p] = r;
      order.push_back(p);
      for (std::uint32_t k = radj_ptr[r]; k < radj_ptr[r + 1]; ++k) {
        const std::uint32_t q = radj[k];
        if (!col_done[q] && --col_cnt[q] == 1) {
          col_q.push_back(q);
        }
      }
      const std::uint32_t col = basis_[p];
      for (std::uint32_t k = col_ptr_[col]; k < col_ptr_[col + 1]; ++k) {
        const std::uint32_t rr = col_row_[k];
        if (!row_done[rr] && --row_cnt[rr] == 1) {
          row_q.push_back(rr);
        }
      }
    };
    while (order.size() < m_) {
      if (row_head < row_q.size()) {
        const std::uint32_t r = row_q[row_head++];
        if (row_done[r] || row_cnt[r] != 1) {
          continue;
        }
        for (std::uint32_t k = radj_ptr[r]; k < radj_ptr[r + 1]; ++k) {
          if (!col_done[radj[k]]) {
            assign(radj[k], r);
            break;
          }
        }
        continue;
      }
      if (col_head < col_q.size()) {
        const std::uint32_t p = col_q[col_head++];
        if (col_done[p] || col_cnt[p] != 1) {
          continue;
        }
        const std::uint32_t col = basis_[p];
        for (std::uint32_t k = col_ptr_[col]; k < col_ptr_[col + 1]; ++k) {
          if (!row_done[col_row_[k]]) {
            assign(p, col_row_[k]);
            break;
          }
        }
        continue;
      }
      break;  // no singletons left: the rest is the bump
    }
    {
      std::vector<std::uint32_t> bump;
      for (std::uint32_t p = 0; p < m_; ++p) {
        if (!col_done[p]) {
          bump.push_back(p);
        }
      }
      std::stable_sort(bump.begin(), bump.end(), [&](std::uint32_t a, std::uint32_t b) {
        return col_cnt[a] < col_cnt[b];
      });
      order.insert(order.end(), bump.begin(), bump.end());
    }

    // ---- Numeric pass ----
    // Each column is transformed by the etas already emitted, but only the
    // reachable ones: a min-heap keyed on eta index pops candidates in
    // creation order, seeded from the column's structural rows and extended
    // by the fill an applied eta introduces (Gilbert-Peierls reachability).
    // Fill on a row whose eta is at or below the one being applied queues
    // nothing: in sequential order that eta has had its turn and saw a zero,
    // so the result is bit-identical to walking the whole eta list, and the
    // heap pops each queued eta exactly once, in ascending order.
    scratch_r_.clear();
    scratch_pivot_.clear();
    scratch_row_.clear();
    scratch_val_.clear();
    scratch_ptr_.assign(1, 0);
    std::vector<std::uint32_t> new_basis(m_, 0);
    std::vector<std::int64_t> eta_of_row(m_, -1);
    // Emitting a column's eta clears its rows from the workspace again; a
    // failed call leaves it dirty, and the next call starts by zeroing it.
    std::vector<double>& w = wrk_w_;
    RowSet& touched = wrk_touched_;
    std::vector<std::uint32_t>& heap = wrk_heap_;
    w.assign(m_, 0.0);
    touched.Reset(m_);
    const auto touch = [&](std::uint32_t r, std::int64_t last) {
      if (touched.Insert(r) && eta_of_row[r] > last) {
        heap.push_back(static_cast<std::uint32_t>(eta_of_row[r]));
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    };
    for (const std::uint32_t p : order) {
      const std::uint32_t col = basis_[p];
      heap.clear();
      for (std::uint32_t k = col_ptr_[col]; k < col_ptr_[col + 1]; ++k) {
        const std::uint32_t r = col_row_[k];
        w[r] = col_val_[k];
        touch(r, -1);
      }
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>());
        const std::uint32_t k = heap.back();
        heap.pop_back();
        const std::uint32_t er = scratch_r_[k];
        const double t = w[er] / scratch_pivot_[k];
        if (t == 0.0) {
          continue;
        }
        for (std::uint32_t i = scratch_ptr_[k]; i < scratch_ptr_[k + 1]; ++i) {
          touch(scratch_row_[i], k);
          w[scratch_row_[i]] -= scratch_val_[i] * t;
        }
        w[er] = t;
      }
      std::int64_t pr = chosen_row[p];
      if (pr < 0) {
        double best = 1e-9;
        touched.ForEach([&](std::uint32_t r) {
          if (!row_done[r] && std::abs(w[r]) > best) {
            best = std::abs(w[r]);
            pr = static_cast<std::int64_t>(r);
          }
        });
        if (pr < 0) {
          return false;
        }
        row_done[pr] = 1;
      } else if (std::abs(w[pr]) <= 1e-9) {
        return false;  // symbolic choice collapsed numerically
      }
      const std::uint32_t er = static_cast<std::uint32_t>(pr);
      const double pivot = w[er];
      const std::size_t off_start = scratch_row_.size();
      touched.ForEach([&](std::uint32_t i) {
        if (i != er && w[i] != 0.0) {
          scratch_row_.push_back(i);
          scratch_val_.push_back(w[i]);
        }
        w[i] = 0.0;
      });
      touched.Clear();
      new_basis[er] = col;
      if (scratch_row_.size() == off_start && pivot == 1.0) {
        continue;  // exact identity (typical slack pivot): no-op in every
                   // FTRAN/BTRAN application, so don't store it at all
      }
      eta_of_row[er] = static_cast<std::int64_t>(scratch_r_.size());
      scratch_r_.push_back(er);
      scratch_pivot_.push_back(pivot);
      scratch_ptr_.push_back(static_cast<std::uint32_t>(scratch_row_.size()));
    }
    eta_r_.swap(scratch_r_);
    eta_pivot_.swap(scratch_pivot_);
    eta_ptr_.swap(scratch_ptr_);
    eta_row_.swap(scratch_row_);
    eta_val_.swap(scratch_val_);
    basis_ = std::move(new_basis);
    beta_ = b_;
    for (std::size_t k = 0; k < eta_r_.size(); ++k) {
      ApplyEta(k, beta_);
    }
    return true;
  }

  bool ImportBasis(const std::vector<BasisToken>& warm) {
    if (warm.size() > m_) {
      return false;
    }
    std::vector<std::uint32_t> cols;
    cols.reserve(m_);
    for (const BasisToken& t : warm) {
      std::int64_t col = -1;
      switch (t.kind) {
        case BasisToken::Kind::kStruct:
          if (t.id < nvars_) {
            col = t.id;
          }
          break;
        case BasisToken::Kind::kSlack:
          if (t.id < m_) {
            // Equality rows carry no slack; a rebased token for a fresh kEq
            // row (IlpWarmStart::RemapRows) resolves to the row's artificial
            // instead. Exported tokens always reference a real slack, so the
            // fallback only engages for synthetic rebased tokens.
            col = slack_col_[t.id] >= 0 ? slack_col_[t.id] : art_col_[t.id];
          }
          break;
        case BasisToken::Kind::kArt:
          if (t.id < m_) {
            col = art_col_[t.id];
          }
          break;
      }
      if (col < 0) {
        return false;
      }
      cols.push_back(static_cast<std::uint32_t>(col));
    }
    // Trailing rows (the freshly appended branching bounds) contribute their
    // slacks: block-triangular against the parent basis, hence nonsingular.
    for (std::uint32_t r = static_cast<std::uint32_t>(warm.size()); r < m_; ++r) {
      if (slack_col_[r] < 0) {
        return false;
      }
      cols.push_back(static_cast<std::uint32_t>(slack_col_[r]));
    }
    std::fill(in_basis_.begin(), in_basis_.end(), 0);
    for (std::uint32_t p = 0; p < m_; ++p) {
      if (in_basis_[cols[p]]) {
        return false;  // duplicate
      }
      basis_[p] = cols[p];
      in_basis_[cols[p]] = 1;
    }
    ClearEtas();
    pivots_since_factor_ = 0;
    if (!TryRefactorize()) {
      return false;
    }
    ImportCounter().Inc();
    // A basic artificial at a POSITIVE value encodes an infeasible point the
    // warm path cannot repair: artificials never re-enter in phase 2 and the
    // dual loop only drives out negative basics. (A negative basic
    // artificial — a freshly rebased equality row whose edge still flows —
    // is exactly what the dual repair removes, so it passes.) Happens when a
    // row's rhs was edited under a degenerate artificial: fall back to the
    // cold two-phase solve.
    for (std::uint32_t p = 0; p < m_; ++p) {
      if (basis_[p] >= art_base_ && beta_[p] > kEps) {
        return false;
      }
    }
    return true;
  }

  SolveStatus Iterate() {
    std::uint64_t pivots = 0;
    for (;;) {
      if (++pivots > kMaxPivots) {
        pivots_total_ += pivots;
        return SolveStatus::kIterationLimit;
      }
      // rc_ is current (SetPhase, then Reprice after every pivot) and 0 on
      // basic columns.
      std::int64_t enter = -1;
      if (pivots < kMaxPivots / 2) {
        double best = -kEps;
        for (std::uint32_t c = 0; c < limit_; ++c) {
          if (rc_[c] < best) {
            best = rc_[c];
            enter = c;
          }
        }
      } else {
        // Bland's rule: first improving column, first eligible row below.
        for (std::uint32_t c = 0; c < limit_; ++c) {
          if (rc_[c] < -kEps) {
            enter = c;
            break;
          }
        }
      }
      if (enter < 0) {
        pivots_total_ += pivots;
        return SolveStatus::kOptimal;
      }
      FtranColumn(static_cast<std::uint32_t>(enter));
      std::int64_t leave = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      w_rows_.ForEach([&](std::uint32_t p) {
        const double a = w_[p];
        if (a > kEps) {
          const double ratio = beta_[p] / a;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && leave >= 0 && basis_[p] < basis_[leave])) {
            best_ratio = ratio;
            leave = p;
          }
        }
      });
      if (leave < 0) {
        pivots_total_ += pivots;
        return SolveStatus::kUnbounded;
      }
      const std::uint32_t left = basis_[leave];
      PivotStep(static_cast<std::uint32_t>(leave), static_cast<std::uint32_t>(enter));
      Reprice(static_cast<std::uint32_t>(enter), left);
    }
  }

  // Dual simplex: drives negative basic values out while keeping phase-2
  // reduced costs nonnegative. Used only to repair warm-started bases, so any
  // numerical surprise ends the loop non-optimal and the caller solves cold
  // instead of fighting through.
  SolveStatus DualIterate() {
    std::uint64_t pivots = 0;
    for (;;) {
      if (++pivots > kMaxPivots) {
        pivots_total_ += pivots;
        return SolveStatus::kIterationLimit;
      }
      std::int64_t p = -1;
      double most = -kEps;
      for (std::uint32_t r = 0; r < m_; ++r) {
        if (beta_[r] < most) {
          most = beta_[r];
          p = r;
        }
      }
      if (p < 0) {
        pivots_total_ += pivots;
        return SolveStatus::kOptimal;  // primal feasible
      }
      // alpha = row p of B^-1 A.
      std::fill(rho_.begin(), rho_.end(), 0.0);
      rho_[static_cast<std::uint32_t>(p)] = 1.0;
      Btran(rho_);
      for (std::uint32_t c = 0; c < limit_; ++c) {
        alpha_[c] = 0.0;
      }
      for (std::uint32_t r = 0; r < m_; ++r) {
        const double yr = rho_[r];
        if (yr == 0.0) {
          continue;
        }
        for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
          const std::uint32_t c = row_col_[k];
          if (c < limit_) {
            alpha_[c] += yr * row_val_[k];
          }
        }
      }
      std::int64_t enter = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::uint32_t c = 0; c < limit_; ++c) {
        if (in_basis_[c]) {
          continue;
        }
        const double a = alpha_[c];
        if (a < -kEps) {
          const double ratio = rc_[c] / (-a);
          if (ratio < best_ratio) {  // ties -> lowest column index
            best_ratio = ratio;
            enter = c;
          }
        }
      }
      if (enter < 0) {
        pivots_total_ += pivots;
        return SolveStatus::kInfeasible;  // negative basic, no fixing column
      }
      FtranColumn(static_cast<std::uint32_t>(enter));
      if (std::abs(w_[static_cast<std::uint32_t>(p)]) < 1e-11) {
        pivots_total_ += pivots;
        return SolveStatus::kIterationLimit;
      }
      const std::uint32_t left = basis_[p];
      PivotStep(static_cast<std::uint32_t>(p), static_cast<std::uint32_t>(enter));
      Reprice(static_cast<std::uint32_t>(enter), left);
    }
  }

  void DriveOutArtificials() {
    // Ascending artificial id == ascending original row, matching the dense
    // twin's row-major sweep.
    for (std::uint32_t a = 0; a < num_artificial_; ++a) {
      const std::uint32_t col = art_base_ + a;
      if (!in_basis_[col]) {
        continue;
      }
      std::uint32_t p = 0;
      while (p < m_ && basis_[p] != col) {
        ++p;
      }
      if (p == m_) {
        continue;
      }
      // Tableau row p: alpha_j = (B^-T e_p) . A_j.
      std::fill(rho_.begin(), rho_.end(), 0.0);
      rho_[p] = 1.0;
      Btran(rho_);
      for (std::uint32_t c = 0; c < art_base_; ++c) {
        alpha_[c] = 0.0;
      }
      for (std::uint32_t r = 0; r < m_; ++r) {
        const double yr = rho_[r];
        if (yr == 0.0) {
          continue;
        }
        for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
          const std::uint32_t c = row_col_[k];
          if (c < art_base_) {
            alpha_[c] += yr * row_val_[k];
          }
        }
      }
      for (std::uint32_t c = 0; c < art_base_; ++c) {
        if (in_basis_[c] || std::abs(alpha_[c]) <= 1e-6) {
          continue;
        }
        FtranColumn(c);
        if (std::abs(w_[p]) < 1e-9) {
          continue;
        }
        PivotStep(p, c);
        break;
      }
      // If no column qualifies the row is redundant; leave the artificial.
    }
  }

  SolveResult Fail(SolveStatus st) const { return {st, 0, {}, pivots_total_}; }

  SolveResult Extract() const {
    SolveResult res;
    res.status = SolveStatus::kOptimal;
    res.objective = PhaseObjective();  // phase-2 costs are active here
    res.x.assign(nvars_, 0.0);
    for (std::uint32_t p = 0; p < m_; ++p) {
      if (basis_[p] < nvars_) {
        res.x[basis_[p]] = beta_[p];
      }
    }
    res.pivots = pivots_total_;
    return res;
  }

  // Refactorisation cadence: every FTRAN/BTRAN walks the whole eta file, so
  // per-iteration cost grows with accumulated eta fill. The singleton-peeling
  // refactorisation rebuilds the file near the basis matrix's own nnz, which
  // is cheap enough to amortise over a short window; the nnz trigger in
  // PivotStep is the backstop for unusually dense stretches.
  static constexpr std::uint32_t kRefactorEvery = 64;

  const LinearProgram& lp_;
  const std::vector<LinearProgram::Row>* extra_ = nullptr;

  std::uint32_t m_ = 0;
  std::uint32_t nvars_ = 0;
  std::uint32_t ncols_ = 0;
  std::uint32_t art_base_ = 0;
  std::uint32_t num_artificial_ = 0;
  std::uint32_t limit_ = 0;
  std::uint64_t nnz_ = 0;

  std::vector<int> slack_col_;  // per row, -1 if none
  std::vector<int> art_col_;    // per row, -1 if none
  std::vector<int> sign_;
  std::vector<int> home_row_;  // per column, owning row for slack/artificial

  std::vector<std::uint32_t> row_ptr_, row_col_;
  std::vector<double> row_val_;
  std::vector<std::uint32_t> col_ptr_, col_row_;
  std::vector<double> col_val_;
  std::vector<double> b_;

  std::vector<std::uint32_t> basis_;
  std::vector<char> in_basis_;
  std::vector<double> beta_;
  // Flat eta pool (see ApplyEta) plus reusable refactorisation scratch: the
  // scratch arrays become the live pool by swap, so both sides keep their
  // heap capacity across the many refactorisations of a long solve.
  std::vector<std::uint32_t> eta_r_, eta_ptr_, eta_row_;
  std::vector<double> eta_pivot_, eta_val_;
  std::vector<std::uint32_t> scratch_r_, scratch_ptr_, scratch_row_;
  std::vector<double> scratch_pivot_, scratch_val_;
  std::vector<double> wrk_w_;
  RowSet wrk_touched_;
  std::vector<std::uint32_t> wrk_heap_;
  std::uint32_t pivots_since_factor_ = 0;

  std::vector<double> c_;
  // Duals and the reduced costs priced from them (rc_ is 0 on basic
  // columns); y_next_ receives the next duals so Reprice can diff them.
  std::vector<double> y_, y_next_, rc_;
  std::vector<std::uint32_t> dirty_;
  std::vector<char> dirty_mark_;
  // FTRAN result and the rows it wrote (see FtranColumn).
  std::vector<double> w_;
  RowSet w_rows_;
  // A row of B^-1 (rho_) and of B^-1 A (alpha_), for the dual ratio test and
  // for driving out artificials.
  std::vector<double> rho_, alpha_;
  std::uint64_t pivots_total_ = 0;
};

}  // namespace

SolveResult SolveLp(const LinearProgram& lp) {
  const SolveResult res = RevisedSimplex(lp).Solve();
  LpSolveCounter().Inc();
  PivotCounter().Inc(res.pivots);
  return res;
}

namespace {

// Shared branch-and-bound driver. |root_warm| (nullable) seeds the root
// relaxation's basis; |root_basis_out| (nullable) receives the root's
// optimal basis for the caller to carry into the next edited instance.
SolveResult SolveIlpImpl(const LinearProgram& lp, std::uint32_t max_nodes,
                         const std::vector<BasisToken>* root_warm,
                         std::vector<BasisToken>* root_basis_out) {
  // Branch and bound, depth-first, best-incumbent pruning. The oracle's cold
  // branch-and-bound uses the same node order, branching variable choice and
  // pruning thresholds, so truncation behaviour is identical.
  struct Node {
    std::vector<LinearProgram::Row> extra;
    std::vector<BasisToken> warm;  // parent's optimal basis
  };
  std::vector<Node> stack{Node{}};
  if (root_warm != nullptr && !root_warm->empty()) {
    stack.back().warm = *root_warm;
  }
  SolveResult best;
  best.status = SolveStatus::kInfeasible;
  double incumbent = -std::numeric_limits<double>::infinity();
  std::uint32_t explored = 0;
  std::uint64_t pivots_total = 0;
  bool hit_limit = false;

  while (!stack.empty()) {
    if (++explored > max_nodes) {
      hit_limit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    BbNodeCounter().Inc();

    RevisedSimplex rs(lp, &node.extra);
    if (!node.warm.empty()) {
      BbWarmStartCounter().Inc();
    }
    SolveResult rel = node.warm.empty() ? rs.Solve() : rs.SolveWarm(node.warm);
    std::vector<BasisToken> basis_out;
    if (rel.status == SolveStatus::kOptimal) {
      basis_out = rs.ExportBasis();
      if (explored == 1 && root_basis_out != nullptr) {
        *root_basis_out = basis_out;
      }
    }
    pivots_total += rel.pivots;
    if (rel.status == SolveStatus::kUnbounded) {
      rel.pivots = pivots_total;
      return rel;  // the ILP itself is unbounded (missing loop bound)
    }
    if (rel.status != SolveStatus::kOptimal || rel.objective <= incumbent + 1e-6) {
      continue;
    }
    // Find a fractional variable.
    std::int64_t frac = -1;
    for (std::uint32_t v = 0; v < lp.num_vars; ++v) {
      if (std::abs(rel.x[v] - std::round(rel.x[v])) > 1e-5) {
        frac = v;
        break;
      }
    }
    if (frac < 0) {
      incumbent = rel.objective;
      best = std::move(rel);
      for (double& xv : best.x) {
        xv = std::round(xv);
      }
      continue;
    }
    const double v = rel.x[frac];
    Node down;
    down.extra = node.extra;
    {
      LinearProgram::Row r;
      r.idx = {static_cast<std::uint32_t>(frac)};
      r.val = {1.0};
      r.rhs = std::floor(v);
      r.type = LinearProgram::RowType::kLe;
      down.extra.push_back(std::move(r));
    }
    down.warm = basis_out;
    Node up;
    up.extra = std::move(node.extra);
    {
      // x >= ceil(v)  <=>  -x <= -ceil(v)
      LinearProgram::Row r;
      r.idx = {static_cast<std::uint32_t>(frac)};
      r.val = {-1.0};
      r.rhs = -std::ceil(v);
      r.type = LinearProgram::RowType::kLe;
      up.extra.push_back(std::move(r));
    }
    up.warm = std::move(basis_out);
    stack.push_back(std::move(up));
    stack.push_back(std::move(down));
  }

  if (best.status != SolveStatus::kOptimal && hit_limit) {
    best.status = SolveStatus::kIterationLimit;
  }
  best.pivots = pivots_total;
  PivotCounter().Inc(pivots_total);
  return best;
}

}  // namespace

SolveResult SolveIlp(const LinearProgram& lp, std::uint32_t max_nodes) {
  return SolveIlpImpl(lp, max_nodes, nullptr, nullptr);
}

SolveResult SolveIlpWarm(const LinearProgram& lp, IlpWarmStart& warm, std::uint32_t max_nodes) {
  const bool warmed = warm.valid();
  if (warmed) {
    IncWarmSolveCounter().Inc();
  } else {
    IncColdSolveCounter().Inc();
  }
  std::vector<BasisToken> root_out;
  const SolveResult res =
      SolveIlpImpl(lp, max_nodes, warmed ? &warm.impl_->tokens : nullptr, &root_out);
  if (!root_out.empty()) {
    if (!warm.impl_) {
      warm.impl_ = std::make_unique<IlpWarmStart::Impl>();  // moved-from: was empty
    }
    warm.impl_->tokens = std::move(root_out);
  } else {
    warm.Reset();  // root did not reach optimality; a stale basis is useless
  }
  return res;
}

}  // namespace pmk
