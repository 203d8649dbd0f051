#include "src/wcet/ilp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
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

std::size_t IlpWarmStart::Rebase(const LinearProgram& from, const LinearProgram& to) {
  // Ordered content match. Rows are content-unique (each pins a distinct
  // edge, loop or block), so a lookahead hit is a survivor and every row
  // skipped over is an insertion. An edit usually changes a handful of
  // rows, and virtual inlining scatters them (one per inlined clone), so
  // matching row by row keeps every other row's token.
  const std::uint32_t old_m = from.num_rows();
  const std::uint32_t new_m = to.num_rows();
  const auto same = [](const LinearProgram::RowView& a, const LinearProgram::RowView& b) {
    return a.type == b.type && a.rhs == b.rhs && std::ranges::equal(a.idx, b.idx) &&
           std::ranges::equal(a.val, b.val);
  };
  std::vector<std::int32_t> old_to_new(old_m, -1);
  std::size_t unmatched = 0;
  std::uint32_t j = 0;
  for (std::uint32_t i = 0; i < old_m; ++i) {
    std::uint32_t jj = j;
    while (jj < new_m && !same(from.row(i), to.row(jj))) {
      ++jj;
    }
    if (jj < new_m) {
      old_to_new[i] = static_cast<std::int32_t>(jj);
      j = jj + 1;
    } else {
      ++unmatched;
    }
  }
  if (!valid()) {
    return unmatched;
  }
  std::vector<BasisToken>& tokens = impl_->tokens;
  if (tokens.size() != old_m) {
    Reset();  // the basis was not exported from |from|
    return unmatched;
  }
  // Every position starts as its own row's slack; the positions of matched
  // rows then take their carried tokens.
  std::vector<BasisToken> out(new_m);
  for (std::uint32_t r = 0; r < new_m; ++r) {
    out[r] = BasisToken{BasisToken::Kind::kSlack, r};
  }
  for (std::uint32_t p = 0; p < old_m; ++p) {
    const std::int32_t np = old_to_new[p];
    if (np < 0) {
      continue;  // this position's row found no match; drop its token
    }
    BasisToken t = tokens[p];
    if (t.kind != BasisToken::Kind::kStruct) {
      // A token whose row found no match becomes the slack of the row its
      // position moved to. A duplicate against another token is caught by
      // ImportBasis and falls through to a cold solve.
      const std::int32_t nid = t.id < old_m ? old_to_new[t.id] : -1;
      t = nid < 0 ? BasisToken{BasisToken::Kind::kSlack, static_cast<std::uint32_t>(np)}
                  : BasisToken{t.kind, static_cast<std::uint32_t>(nid)};
    }
    out[static_cast<std::uint32_t>(np)] = t;
  }
  tokens = std::move(out);
  return unmatched;
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
// Eta applications in the entering column's FTRANs and in the dual BTRANs
// (every step of a full walk, the recomputed steps of an incremental one).
obs::Counter& EtaStepCounter() {
  static obs::Counter c("wcet.simplex.eta_steps");
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

// A set of small indices (rows or etas) visited in ascending order without a
// sort: one bit per index, plus the range of words that may hold a bit.
// FTRAN collects the rows a sparse column fills in one, and visits them in
// the order a dense 0..m-1 sweep would meet them. As a queue it pops its
// least or greatest member, so a walk that only ever adds indices beyond the
// one it popped last visits each once, in order: FTRAN pops etas upwards,
// the incremental dual BTRAN downwards.
class IndexSet {
 public:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  // Empties the set and sizes it for indices 0..n-1.
  void Reset(std::uint32_t n) {
    bits_.assign((n + 63) / 64, 0);
    lo_ = static_cast<std::uint32_t>(bits_.size());
    hi_ = 0;
  }

  // Makes room for indices 0..n-1, keeping the members.
  void Grow(std::uint32_t n) {
    if (bits_.size() * 64 < n) {
      bits_.resize((n + 63) / 64, 0);
    }
  }

  // Adds |i|; returns false if it was already present.
  bool Insert(std::uint32_t i) {
    std::uint64_t& word = bits_[i / 64];
    const std::uint64_t bit = std::uint64_t{1} << (i % 64);
    if (word & bit) {
      return false;
    }
    word |= bit;
    lo_ = std::min(lo_, i / 64);
    hi_ = std::max(hi_, i / 64 + 1);
    return true;
  }

  // Calls visit(i) for every member, in ascending order.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    for (std::uint32_t w = lo_; w < hi_; ++w) {
      for (std::uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        visit(w * 64 + static_cast<std::uint32_t>(std::countr_zero(word)));
      }
    }
  }

  void Clear() {
    for (std::uint32_t w = lo_; w < hi_; ++w) {
      bits_[w] = 0;
    }
    lo_ = static_cast<std::uint32_t>(bits_.size());
    hi_ = 0;
  }

  // Removes and returns the least member, or kEmpty.
  std::uint32_t PopMin() {
    for (; lo_ < hi_; ++lo_) {
      std::uint64_t& word = bits_[lo_];
      if (word != 0) {
        const std::uint32_t b = static_cast<std::uint32_t>(std::countr_zero(word));
        word &= word - 1;
        return lo_ * 64 + b;
      }
    }
    return kEmpty;
  }

  // Removes and returns the greatest member, or kEmpty.
  std::uint32_t PopMax() {
    for (; hi_ > lo_; --hi_) {
      std::uint64_t& word = bits_[hi_ - 1];
      if (word != 0) {
        const std::uint32_t b = 63 - static_cast<std::uint32_t>(std::countl_zero(word));
        word &= ~(std::uint64_t{1} << b);
        return (hi_ - 1) * 64 + b;
      }
    }
    return kEmpty;
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::uint32_t lo_ = 0;  // words [lo_, hi_) may hold bits
  std::uint32_t hi_ = 0;
};

// Bitwise equality: tells -0.0 from +0.0 and matches a NaN with itself.
bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Sparse revised simplex.
//
// Same column layout, rhs normalization, pivot rules, tolerances, phase
// structure and status mapping as the dense tableau of the test oracle
// (tests/wcet_oracle.h), so both walk the same vertex sequence (fp ties
// aside); only the linear algebra differs.
// The constraint matrix is stored once in CSR (the columns a row's dual
// reaches) and CSC (pricing a column, FTRAN of a column); the basis inverse
// is a product-form eta file refreshed by periodic refactorisation
// (TryRefactorize). One FTRAN (FtranColumn) and one eta append (AppendEta)
// serve both the pivots and the refactorisation, and one tableau row
// (TableauRow) both the dual ratio test and DriveOutArtificials. A pivot
// costs what it changed:
//  - the entering column comes from a tournament tree over the reduced
//    costs, replayed only at the columns a pivot re-priced;
//  - FTRAN applies only the etas its nonzeros reach, found through per-row
//    eta chains;
//  - the duals are updated by an incremental BTRAN that recomputes only the
//    steps whose inputs changed since the last pivot (UpdateDuals);
//  - only the columns on rows whose dual moved are re-priced, and the ratio
//    test and the new eta visit only the rows FTRAN wrote.
// Every value that decides a pivot is bit-identical to what a Dantzig scan, a
// full pricing, a 0..m-1 ratio scan and a walk of the whole eta list would
// compute: IPET programs have alternative optima, so the pivot path decides
// which optimal x (and worst-case trace) comes out.
// Refactorisation may permute which basis *position* holds which basic
// variable; that is harmless because every rule that touches positions
// (ratio-test tie-break, pricing, extraction) keys off the basic variable id,
// never the position index.
//
// Branch-and-bound children are solved warm: a child's program is the root
// program with the node's bound rows appended, the parent's optimal basis is
// exported as position-independent tokens ({structural var | slack of row r |
// artificial of row r}), re-imported against the child's column numbering
// with the new bound row's slack appended (block-triangular, hence
// nonsingular), and primal feasibility is restored by a bounded dual-simplex
// loop. Any import/refactorisation/numerical trouble falls back
// deterministically to a cold two-phase solve.

class RevisedSimplex {
 public:
  explicit RevisedSimplex(const LinearProgram& lp) : lp_(lp) { Build(); }

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

  // Eta applications so far (see EtaStepCounter).
  std::uint64_t eta_steps() const { return eta_steps_; }

 private:
  void Build() {
    m_ = lp_.num_rows();
    nvars_ = lp_.num_vars;
    slack_col_.assign(m_, -1);
    art_col_.assign(m_, -1);
    sign_.assign(m_, 1);
    std::uint32_t extra_cols = 0;
    for (std::uint32_t r = 0; r < m_; ++r) {
      const LinearProgram::RowView row = lp_.row(r);
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
      const LinearProgram::RowView row = lp_.row(r);
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
    rc_.assign(ncols_ + 1, 0.0);
    rc_[ncols_] = std::numeric_limits<double>::quiet_NaN();  // the tree's padding
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

  // Empties the eta file, and drops the dual slots and their links until
  // the next full BTRAN (ComputeDuals) and LinkSlots rebuild them.
  void ClearEtas() {
    etas_.Clear(m_);
    memo_valid_ = false;
    linked_ = 0;
  }

  std::uint64_t EtaNnz() const { return etas_.row.size() + etas_.size(); }

  // Appends the eta that pivots w_ on row p: pivot w_[p], and as off-row
  // entries the other nonzeros of w_ in ascending row order. Chains it on
  // row p and zeroes w_ and w_rows_. With |skip_identity| an exact identity
  // (pivot 1, no off-row entry: the refactorisation's typical slack pivot)
  // is not stored, as every FTRAN and BTRAN would apply it as a no-op.
  void AppendEta(std::uint32_t p, bool skip_identity) {
    const double pivot = w_[p];
    const std::size_t start = etas_.row.size();
    w_rows_.ForEach([&](std::uint32_t i) {
      if (i != p && w_[i] != 0.0) {
        etas_.row.push_back(i);
        etas_.val.push_back(w_[i]);
      }
      w_[i] = 0.0;
    });
    w_rows_.Clear();
    if (skip_identity && pivot == 1.0 && etas_.row.size() == start) {
      return;
    }
    const std::uint32_t k = etas_.size();
    etas_.r.push_back(p);
    etas_.pivot.push_back(pivot);
    etas_.ptr.push_back(static_cast<std::uint32_t>(etas_.row.size()));
    etas_.prev.push_back(etas_.last[p]);
    etas_.next.push_back(kNone);
    if (etas_.last[p] == kNone) {
      etas_.first[p] = k;
    } else {
      etas_.next[etas_.last[p]] = k;
    }
    etas_.last[p] = k;
  }

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
    BuildTree();
  }

  // ---- Entering choice: a tournament tree over rc_[0..limit_) ----
  // Leaf c holds column c; each inner node holds the winner of its two
  // children, so the root is the Dantzig scan's choice: the smallest reduced
  // cost, the lowest column among equals, and never a NaN (the scan's
  // `rc < best` is false for one). Padding leaves hold column ncols_, whose
  // rc_ is NaN.

  // |a| covers lower columns than |b|, so it keeps ties.
  std::uint32_t Winner(std::uint32_t a, std::uint32_t b) const {
    return (!std::isnan(rc_[b]) && !(rc_[a] <= rc_[b])) ? b : a;
  }

  void BuildTree() {
    leaves_ = std::bit_ceil(std::max(limit_, 1u));
    tree_.resize(2 * static_cast<std::size_t>(leaves_));
    for (std::uint32_t c = 0; c < leaves_; ++c) {
      tree_[leaves_ + c] = c < limit_ ? c : ncols_;
    }
    for (std::uint32_t i = leaves_; i-- > 1;) {
      tree_[i] = Winner(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  // Replays the matches on column c's path to the root after rc_[c] moved,
  // stopping at the first node whose winner is another column and did not
  // change: no match above it sees a new player or a new value.
  void UpdateTree(std::uint32_t c) {
    for (std::uint32_t i = (leaves_ + c) / 2; i >= 1; i /= 2) {
      const std::uint32_t w = Winner(tree_[2 * i], tree_[2 * i + 1]);
      if (w == tree_[i] && w != c) {
        break;
      }
      tree_[i] = w;
    }
  }

  double PhaseObjective() const {
    double obj = 0.0;
    for (std::uint32_t p = 0; p < m_; ++p) {
      obj += c_[basis_[p]] * beta_[p];
    }
    return obj;
  }

  // x = E_k^-1 x for eta k.
  void ApplyEta(std::size_t k, std::vector<double>& x) const {
    const std::uint32_t r = etas_.r[k];
    const double t = x[r] / etas_.pivot[k];
    if (t != 0.0) {
      for (std::uint32_t i = etas_.ptr[k]; i < etas_.ptr[k + 1]; ++i) {
        x[etas_.row[i]] -= etas_.val[i] * t;
      }
    }
    x[r] = t;
  }

  // w_ = B^-1 A_col over the eta file, applying only the etas whose pivot
  // row is nonzero when their turn comes (Gilbert-Peierls); returns how many
  // it applied. The first time a row is written, the first eta of its chain
  // after the writing eta is queued; applying an eta queues the next one of
  // its row. The queue pops them in eta order, each once. An eta whose row
  // is still zero at its turn would only write a zero there, so every
  // nonzero is the one the whole eta list computes. The rows written are
  // recorded in w_rows_: w_ is zero outside it, so the ratio test and
  // AppendEta visit those rows, in ascending order, instead of all m.
  // AppendEta zeroes w_; a caller that appends no eta leaves it for the
  // next call to clear. TryRefactorize runs it over the file it is
  // building, to transform each basis column by the etas emitted so far.
  std::uint32_t FtranColumn(std::uint32_t col) {
    w_rows_.ForEach([&](std::uint32_t i) { w_[i] = 0.0; });
    w_rows_.Clear();
    queue_.Grow(etas_.size());
    std::uint32_t applied = 0;
    // Row r is written just before eta |from| applies.
    const auto touch = [&](std::uint32_t r, std::uint32_t from) {
      if (w_rows_.Insert(r)) {
        std::uint32_t k = etas_.first[r];
        while (k != kNone && k < from) {
          k = etas_.next[k];
        }
        if (k != kNone) {
          queue_.Insert(k);
        }
      }
    };
    for (std::uint32_t k = col_ptr_[col]; k < col_ptr_[col + 1]; ++k) {
      w_[col_row_[k]] = col_val_[k];
      touch(col_row_[k], 0);
    }
    for (std::uint32_t k; (k = queue_.PopMin()) != IndexSet::kEmpty;) {
      ++applied;
      const std::uint32_t r = etas_.r[k];
      const double t = w_[r] / etas_.pivot[k];
      if (t != 0.0) {
        for (std::uint32_t i = etas_.ptr[k]; i < etas_.ptr[k + 1]; ++i) {
          touch(etas_.row[i], k + 1);
          w_[etas_.row[i]] -= etas_.val[i] * t;
        }
      }
      w_[r] = t;
      if (etas_.next[k] != kNone) {
        queue_.Insert(etas_.next[k]);
      }
    }
    return applied;
  }

  // alpha_[0, limit) = row p of B^-1 A: rho_ = B^-T e_p by a BTRAN over the
  // whole eta file, then a CSR sweep over the rows where rho_ is nonzero.
  // The duals go through ComputeDuals and UpdateDuals instead.
  void TableauRow(std::uint32_t p, std::uint32_t limit) {
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[p] = 1.0;
    for (std::uint32_t k = etas_.size(); k-- > 0;) {
      double s = rho_[etas_.r[k]];
      for (std::uint32_t i = etas_.ptr[k]; i < etas_.ptr[k + 1]; ++i) {
        s -= etas_.val[i] * rho_[etas_.row[i]];
      }
      rho_[etas_.r[k]] = s / etas_.pivot[k];
    }
    std::fill_n(alpha_.begin(), limit, 0.0);
    for (std::uint32_t r = 0; r < m_; ++r) {
      const double yr = rho_[r];
      if (yr == 0.0) {
        continue;
      }
      for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        const std::uint32_t c = row_col_[k];
        if (c < limit) {
          alpha_[c] += yr * row_val_[k];
        }
      }
    }
  }

  // ---- Duals: y = (B^-1)^T c_B, a BTRAN walked from the last eta down ----
  // Step k reads its pivot row and its off-row rows and writes its pivot
  // row. Every value the walk reads or writes sits in a slot: slot m + k
  // holds row etas_.r[k] just above step k (its input c_B, or the output of
  // the next eta up its chain), and slot r holds row r below all its steps,
  // its dual. So step k reads slot m + k for its own row and writes the
  // slot of its row just below it (OutSlot); an off-row entry of step k
  // that reads row q reads the slot of the last eta below k on q's chain,
  // or q's dual slot. A slot's number depends only on the etas below it,
  // so appending an eta renumbers nothing: the new eta's input gets the new
  // slot, and it writes the slot its row's input held before. The slots are
  // the memo: after a pivot UpdateDuals recomputes only the steps that read
  // a changed slot.

  std::uint32_t OutSlot(std::uint32_t k) const {
    return etas_.prev[k] == kNone ? etas_.r[k] : m_ + etas_.prev[k];
  }

  // The full walk, recording every slot. Run wherever the eta file or all
  // the costs changed: SetPhase, and the first pivot after a
  // refactorisation, an import or DriveOutArtificials.
  void ComputeDuals(std::vector<double>& y) {
    slot_.resize(m_ + etas_.size());
    for (std::uint32_t p = 0; p < m_; ++p) {
      y[p] = slot_[etas_.last[p] == kNone ? p : m_ + etas_.last[p]] = c_[basis_[p]];
    }
    for (std::uint32_t k = etas_.size(); k-- > 0;) {
      double s = y[etas_.r[k]];
      for (std::uint32_t i = etas_.ptr[k]; i < etas_.ptr[k + 1]; ++i) {
        s -= etas_.val[i] * y[etas_.row[i]];
      }
      y[etas_.r[k]] = slot_[OutSlot(k)] = s / etas_.pivot[k];
    }
    eta_steps_ += etas_.size();
    memo_valid_ = true;
  }

  // Step k of the walk, with ComputeDuals' arithmetic in its order.
  double BtranStep(std::uint32_t k) const {
    double s = slot_[m_ + k];
    for (std::uint32_t i = etas_.ptr[k]; i < etas_.ptr[k + 1]; ++i) {
      s -= etas_.val[i] * slot_[readers_[i].src];
    }
    return s / etas_.pivot[k];
  }

  // Records, for each off-row entry of the etas not yet linked, the slot
  // it reads, its eta and the next entry reading the same slot
  // (readers_), and each slot's first reader (first_reader_). Etas are
  // linked in order, and row_slot_[q] is the slot row q sits in above the
  // linked etas: m + the last linked eta on q's chain, or q's dual slot
  // before the first. Built at the first incremental BTRAN after the eta
  // file is replaced, so a solve that pivots no more never pays for it;
  // after that each pivot links its one new eta.
  void LinkSlots() {
    if (linked_ == 0) {
      row_slot_.resize(m_);
      std::iota(row_slot_.begin(), row_slot_.end(), 0u);
      first_reader_.assign(m_ + etas_.size(), kNone);
    } else {
      first_reader_.resize(m_ + etas_.size(), kNone);
    }
    readers_.resize(etas_.row.size());
    for (std::uint32_t k = linked_; k < etas_.size(); ++k) {
      for (std::uint32_t i = etas_.ptr[k]; i < etas_.ptr[k + 1]; ++i) {
        const std::uint32_t slot = row_slot_[etas_.row[i]];
        readers_[i] = Reader{slot, k, first_reader_[slot]};
        first_reader_[slot] = i;
      }
      row_slot_[etas_.r[k]] = m_ + k;
    }
    linked_ = etas_.size();
  }

  // Step k wrote a value that differs from the last walk into slot |out|:
  // queue the steps that read it, off-row or (the next eta down k's row) as
  // their own row. Without one, |out| is row etas_.r[k]'s dual, which
  // changed.
  void Spread(std::uint32_t k, std::uint32_t out) {
    for (std::uint32_t i = first_reader_[out]; i != kNone; i = readers_[i].next) {
      queue_.Insert(readers_[i].eta);
    }
    if (etas_.prev[k] != kNone) {
      queue_.Insert(etas_.prev[k]);
    } else {
      changed_rows_.push_back(etas_.r[k]);
    }
  }

  // The duals after a pivot that appended one eta on row p and changed c_B
  // at p only. Steps are recomputed in descending order from the queue; a
  // step none of whose slots differs bitwise from the last walk would
  // reproduce its stored output and is skipped, and a recomputed step runs
  // ComputeDuals' subtractions in its order on the same inputs. So the
  // slots end exactly as a full walk would leave them, and changed_rows_
  // holds the rows whose dual moved.
  void UpdateDuals(std::uint32_t p) {
    LinkSlots();
    const std::uint32_t top = etas_.size() - 1;
    slot_.push_back(c_[basis_[p]]);  // slot m + top: row p's new input
    changed_rows_.clear();
    queue_.Grow(top + 1);
    queue_.Insert(top);
    for (std::uint32_t k; (k = queue_.PopMax()) != IndexSet::kEmpty;) {
      ++eta_steps_;
      const double v = BtranStep(k);
      const std::uint32_t out = OutSlot(k);
      if (!SameBits(v, slot_[out])) {
        slot_[out] = v;
        Spread(k, out);
      }
    }
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

  // Updates the duals after the pivot at row p and re-prices only the
  // columns whose reduced cost can have moved: every column with a nonzero
  // on a row whose dual changed, and the two columns that swapped basis
  // membership. Basic columns hold 0, so the entering scans need no basis
  // lookup. A dual that compares equal contributes the same products as
  // before (zeros of either sign are skipped), so every other column keeps
  // the exact value a full pricing would recompute. The tournament tree
  // replays only the re-priced columns.
  void Reprice(std::uint32_t entered, std::uint32_t left, std::uint32_t p) {
    dirty_.clear();
    const auto mark = [&](std::uint32_t c) {
      if (c < limit_ && !dirty_mark_[c]) {
        dirty_mark_[c] = 1;
        dirty_.push_back(c);
      }
    };
    const auto mark_row = [&](std::uint32_t r) {
      for (std::uint32_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        mark(row_col_[k]);
      }
    };
    if (memo_valid_) {
      UpdateDuals(p);
      for (const std::uint32_t r : changed_rows_) {
        const double v = slot_[r];
        if (v != y_[r]) {
          mark_row(r);
        }
        y_[r] = v;
      }
    } else {
      ComputeDuals(y_next_);
      for (std::uint32_t r = 0; r < m_; ++r) {
        if (y_next_[r] != y_[r]) {
          mark_row(r);
        }
      }
      y_.swap(y_next_);
    }
    mark(entered);
    mark(left);
    for (const std::uint32_t c : dirty_) {
      dirty_mark_[c] = 0;
      rc_[c] = in_basis_[c] ? 0.0 : PriceColumn(c);
      UpdateTree(c);
    }
  }

  // Pivots the column FtranColumn left in w_ into the basis at row p.
  void PivotStep(std::uint32_t p, std::uint32_t enter) {
    AppendEta(p, /*skip_identity=*/false);
    in_basis_[basis_[p]] = 0;
    basis_[p] = enter;
    in_basis_[enter] = 1;
    ApplyEta(etas_.size() - 1, beta_);
    if (++pivots_since_factor_ >= kRefactorEvery || EtaNnz() > 2 * nnz_ + 16 * m_) {
      if (TryRefactorize()) {
        RefactorCounter().Inc();
      }
      // On failure keep appending etas; the counter restarts either way so
      // a basis that refuses to factorise is not retried every pivot.
      pivots_since_factor_ = 0;
    }
  }

  // Rebuilds the eta file for the current basis from scratch. A symbolic
  // singleton-peeling pass first discovers a pivot order that makes the
  // basis near-triangular: assigning a row singleton is fill-free (every
  // other active column is structurally zero in that row), and assigning a
  // column singleton bounds fill to the column's entries in already-pivoted
  // rows. Positions the peel cannot reach (the "bump") are ordered
  // sparsest-first and numerically partial-pivoted over whatever rows
  // remain. The numeric pass is the pivot loop's own: FtranColumn
  // transforms each column by the etas emitted so far and AppendEta emits
  // its eta, leaving out exact identities. Returns false if the basis looks
  // singular; the old eta file, its chains and the dual memo then stand as
  // they were.
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
    // The new file is built in etas_, so FtranColumn walks it; the old one
    // waits in spare_ with its chains, and comes back if a pivot fails. The
    // dual memo describes the old file until the new one is in place. The
    // etas these FTRANs apply are not counted in eta_steps_, which counts
    // the pivot loop's walks.
    std::swap(etas_, spare_);
    etas_.Clear(m_);
    const auto fail = [this] {
      std::swap(etas_, spare_);
      return false;
    };
    std::vector<std::uint32_t> new_basis(m_, 0);
    for (const std::uint32_t p : order) {
      const std::uint32_t col = basis_[p];
      FtranColumn(col);
      std::int64_t pr = chosen_row[p];
      if (pr < 0) {
        double best = 1e-9;
        w_rows_.ForEach([&](std::uint32_t r) {
          if (!row_done[r] && std::abs(w_[r]) > best) {
            best = std::abs(w_[r]);
            pr = static_cast<std::int64_t>(r);
          }
        });
        if (pr < 0) {
          return fail();
        }
        row_done[pr] = 1;
      } else if (std::abs(w_[pr]) <= 1e-9) {
        return fail();  // symbolic choice collapsed numerically
      }
      new_basis[pr] = col;
      AppendEta(static_cast<std::uint32_t>(pr), /*skip_identity=*/true);
    }
    basis_ = std::move(new_basis);
    beta_ = b_;
    for (std::size_t k = 0; k < etas_.size(); ++k) {
      ApplyEta(k, beta_);
    }
    memo_valid_ = false;  // the slots and their links describe the old file
    linked_ = 0;
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
            // row (IlpWarmStart::Rebase) resolves to the row's artificial
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
      // rc_ and its tree are current (SetPhase, then Reprice after every
      // pivot) and rc_ is 0 on basic columns.
      std::int64_t enter = -1;
      if (pivots < kMaxPivots / 2) {
        if (rc_[tree_[1]] < -kEps) {
          enter = tree_[1];  // Dantzig: the most negative, lowest first
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
      eta_steps_ += FtranColumn(static_cast<std::uint32_t>(enter));
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
      const std::uint32_t row = static_cast<std::uint32_t>(leave);
      const std::uint32_t left = basis_[row];
      PivotStep(row, static_cast<std::uint32_t>(enter));
      Reprice(static_cast<std::uint32_t>(enter), left, row);
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
      const std::uint32_t row = static_cast<std::uint32_t>(p);
      TableauRow(row, limit_);
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
      eta_steps_ += FtranColumn(static_cast<std::uint32_t>(enter));
      if (std::abs(w_[row]) < 1e-11) {
        pivots_total_ += pivots;
        return SolveStatus::kIterationLimit;
      }
      const std::uint32_t left = basis_[row];
      PivotStep(row, static_cast<std::uint32_t>(enter));
      Reprice(static_cast<std::uint32_t>(enter), left, row);
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
      TableauRow(p, art_base_);
      for (std::uint32_t c = 0; c < art_base_; ++c) {
        if (in_basis_[c] || std::abs(alpha_[c]) <= 1e-6) {
          continue;
        }
        eta_steps_ += FtranColumn(c);
        if (std::abs(w_[p]) < 1e-9) {
          continue;
        }
        PivotStep(p, c);
        memo_valid_ = false;  // c_B moved and no Reprice follows
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

  // Refactorisation cadence: the etas an FTRAN reaches, and the BTRAN steps
  // a changed dual spreads to, grow with accumulated eta fill. The
  // singleton-peeling refactorisation rebuilds the file near the basis
  // matrix's own nnz, which is cheap enough to amortise over a short window;
  // the nnz trigger in PivotStep is the backstop for unusually dense
  // stretches. The cadence is part of the pivot path's rounding.
  static constexpr std::uint32_t kRefactorEvery = 64;
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  const LinearProgram& lp_;

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
  // The product-form eta file, a flat pool (struct-of-arrays) that keeps
  // the FTRAN and BTRAN walks on contiguous memory and spares a heap
  // allocation per eta. Eta k pivots row r[k] with pivot value pivot[k]; its
  // off-row entries live in row/val over [ptr[k], ptr[k + 1]). Each eta is
  // chained to the etas that pivot on its row: first and last per row, next
  // and prev per eta, kNone ending a chain. A refactorisation appends at
  // most one eta per row; each pivot appends one on its leaving row.
  struct EtaFile {
    std::vector<std::uint32_t> r, ptr, row;
    std::vector<double> pivot, val;
    std::vector<std::uint32_t> first, last, next, prev;

    std::uint32_t size() const { return static_cast<std::uint32_t>(r.size()); }

    // Empties the file (B^-1 = I) for m rows, keeping the capacity.
    void Clear(std::uint32_t m) {
      r.clear();
      pivot.clear();
      row.clear();
      val.clear();
      next.clear();
      prev.clear();
      ptr.assign(1, 0);
      first.assign(m, kNone);
      last.assign(m, kNone);
    }
  };
  // The live file, and the one the last refactorisation replaced: it
  // becomes the next one's build space by swap, so both keep their heap
  // capacity across the refactorisations of a long solve.
  EtaFile etas_, spare_;
  std::uint32_t pivots_since_factor_ = 0;

  std::vector<double> c_;
  // Duals and the reduced costs priced from them (rc_ is 0 on basic
  // columns); y_next_ receives the duals of a full walk so Reprice can diff
  // them.
  std::vector<double> y_, y_next_, rc_;
  std::vector<std::uint32_t> dirty_;
  std::vector<char> dirty_mark_;
  // The dual BTRAN's slots (see ComputeDuals), and whether they describe
  // the current eta file and costs.
  std::vector<double> slot_;
  bool memo_valid_ = false;
  // What each off-row entry of etas [0, linked_) reads and who reads each
  // slot (see LinkSlots), then the rows whose dual the last UpdateDuals
  // changed.
  struct Reader {
    std::uint32_t src;   // the slot the entry reads
    std::uint32_t eta;   // the entry's eta
    std::uint32_t next;  // the next entry reading slot src, or kNone
  };
  std::vector<Reader> readers_;
  std::vector<std::uint32_t> first_reader_, row_slot_;
  std::uint32_t linked_ = 0;
  std::vector<std::uint32_t> changed_rows_;
  // The eta queue of FtranColumn (popped upwards) and of UpdateDuals
  // (downwards); empty between walks.
  IndexSet queue_;
  // Tournament tree over rc_ (see BuildTree): leaves_ leaves from index
  // leaves_, the root at 1.
  std::vector<std::uint32_t> tree_;
  std::uint32_t leaves_ = 1;
  // FTRAN result and the rows it wrote (see FtranColumn).
  std::vector<double> w_;
  IndexSet w_rows_;
  // A row of B^-1 (rho_) and of B^-1 A (alpha_), for the dual ratio test and
  // for driving out artificials.
  std::vector<double> rho_, alpha_;
  std::uint64_t pivots_total_ = 0;
  std::uint64_t eta_steps_ = 0;  // see EtaStepCounter
};

}  // namespace

SolveResult SolveLp(const LinearProgram& lp) {
  RevisedSimplex rs(lp);
  const SolveResult res = rs.Solve();
  LpSolveCounter().Inc();
  PivotCounter().Inc(res.pivots);
  EtaStepCounter().Inc(rs.eta_steps());
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
    std::vector<LinearProgram::Row> extra;  // bound rows the node adds to |lp|
    std::vector<BasisToken> warm;           // parent's optimal basis
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
  std::uint64_t eta_steps = 0;
  bool hit_limit = false;
  LinearProgram child;  // a child's program: |lp| plus its bound rows

  while (!stack.empty()) {
    if (++explored > max_nodes) {
      hit_limit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    BbNodeCounter().Inc();

    if (!node.extra.empty()) {
      child = lp;
      for (const LinearProgram::Row& r : node.extra) {
        child.AddRow(r);
      }
    }
    RevisedSimplex rs(node.extra.empty() ? lp : child);
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
    eta_steps += rs.eta_steps();
    if (rel.status == SolveStatus::kUnbounded) {
      best = std::move(rel);  // the ILP itself is unbounded (missing loop bound)
      break;
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
  EtaStepCounter().Inc(eta_steps);
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
