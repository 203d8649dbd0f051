#include "tests/wcet_oracle.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <list>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/hw/cycles.h"
#include "src/wcet/ipet.h"

namespace pmk {
namespace oracle {

namespace {

constexpr double kEps = 1e-7;
constexpr std::uint64_t kMaxPivots = 200'000;

// Abstract direct-mapped must-cache: per set, the line address guaranteed
// resident (production numbers lines per set instead, src/wcet/cost.h).
class MustCache {
 public:
  static constexpr Addr kUnknownLine = static_cast<Addr>(-1);

  explicit MustCache(std::uint32_t num_sets) : sets_(num_sets, kUnknownLine) {}

  // Returns true if the access is a guaranteed hit; installs the line.
  bool Access(const LineAccess& a) {
    const bool hit = sets_[a.set] == a.line;
    sets_[a.set] = a.line;
    return hit;
  }

  void JoinWith(const MustCache& other) {
    for (std::size_t i = 0; i < sets_.size(); ++i) {
      if (sets_[i] != other.sets_[i]) {
        sets_[i] = kUnknownLine;
      }
    }
  }

  bool operator==(const MustCache& other) const { return sets_ == other.sets_; }

 private:
  std::vector<Addr> sets_;
};

struct AbstractState {
  MustCache icache;
  MustCache dcache;
  bool reachable = false;

  explicit AbstractState(std::uint32_t num_sets) : icache(num_sets), dcache(num_sets) {}

  bool operator==(const AbstractState& o) const {
    return reachable == o.reachable && icache == o.icache && dcache == o.dcache;
  }
};

// Dense two-phase simplex over a row-major tableau: the seed solver. The
// sparse revised simplex keeps its column layout, rhs normalization, pivot
// rules, tolerances, phase structure and status mapping.
class Tableau {
 public:
  explicit Tableau(const LinearProgram& lp) : lp_(lp) {}

  SolveResult Solve() {
    Build();
    // Phase 1: minimize the sum of artificial variables.
    if (num_artificial_ > 0) {
      SetPhase1Objective();
      const SolveStatus st = Iterate();
      if (st != SolveStatus::kOptimal) {
        return {st == SolveStatus::kUnbounded ? SolveStatus::kInfeasible : st, 0, {}, pivots_total_};
      }
      // Phase 1 maximizes -(sum of artificials); feasible iff that optimum
      // is (numerically) zero.
      if (Objective() < -kEps * (1 + static_cast<double>(m_))) {
        return {SolveStatus::kInfeasible, 0, {}, pivots_total_};
      }
      DriveOutArtificials();
    }
    // Phase 2: maximize the real objective.
    SetPhase2Objective();
    const SolveStatus st = Iterate();
    if (st != SolveStatus::kOptimal) {
      return {st, 0, {}, pivots_total_};
    }
    SolveResult res;
    res.status = SolveStatus::kOptimal;
    res.objective = Objective();
    res.x.assign(lp_.num_vars, 0.0);
    for (std::uint32_t r = 0; r < m_; ++r) {
      if (basis_[r] < lp_.num_vars) {
        res.x[basis_[r]] = Rhs(r);
      }
    }
    res.pivots = pivots_total_;
    return res;
  }

 private:
  double& At(std::uint32_t r, std::uint32_t c) { return tab_[static_cast<std::size_t>(r) * stride_ + c]; }
  double Rhs(std::uint32_t r) { return At(r, n_ - 1); }
  double Objective() { return At(m_, n_ - 1); }

  void Build() {
    m_ = lp_.num_rows();
    // Columns: structural vars, then one slack/surplus per <= / >= row, then
    // artificials, then RHS. Normalize rhs >= 0 first.
    std::vector<int> slack_col(m_, -1);
    std::vector<int> art_col(m_, -1);
    std::vector<int> sign(m_, 1);
    std::uint32_t extra = 0;
    for (std::uint32_t r = 0; r < m_; ++r) {
      const LinearProgram::RowView row = lp_.row(r);
      const bool neg = row.rhs < 0;
      sign[r] = neg ? -1 : 1;
      if (row.type == LinearProgram::RowType::kLe) {
        // <= with rhs>=0: slack basic. Negated (>=): surplus + artificial.
        slack_col[r] = static_cast<int>(lp_.num_vars + extra++);
        if (neg) {
          art_col[r] = -2;  // assigned below
        }
      } else {
        art_col[r] = -2;
      }
    }
    std::uint32_t art_base = lp_.num_vars + extra;
    num_artificial_ = 0;
    for (std::uint32_t r = 0; r < m_; ++r) {
      if (art_col[r] == -2) {
        art_col[r] = static_cast<int>(art_base + num_artificial_++);
      }
    }
    n_ = art_base + num_artificial_ + 1;  // + RHS column
    stride_ = n_;
    tab_.assign(static_cast<std::size_t>(m_ + 1) * stride_, 0.0);
    basis_.assign(m_, 0);

    for (std::uint32_t r = 0; r < m_; ++r) {
      const LinearProgram::RowView row = lp_.row(r);
      const double s = sign[r];
      for (std::size_t k = 0; k < row.idx.size(); ++k) {
        At(r, row.idx[k]) += s * row.val[k];
      }
      At(r, n_ - 1) = s * row.rhs;
      if (slack_col[r] >= 0) {
        // Slack sign: original <= keeps +1; negated <= (now >=) gets -1.
        At(r, static_cast<std::uint32_t>(slack_col[r])) = (s > 0) ? 1.0 : -1.0;
      }
      if (art_col[r] >= 0) {
        At(r, static_cast<std::uint32_t>(art_col[r])) = 1.0;
        basis_[r] = static_cast<std::uint32_t>(art_col[r]);
      } else {
        basis_[r] = static_cast<std::uint32_t>(slack_col[r]);
      }
    }
    art_base_ = art_base;
  }

  void SetPhase1Objective() {
    // Minimize sum of artificials == maximize -(sum): objective row holds
    // reduced costs for maximization with Objective() = -value.
    for (std::uint32_t c = 0; c < n_; ++c) {
      At(m_, c) = 0.0;
    }
    for (std::uint32_t a = 0; a < num_artificial_; ++a) {
      At(m_, art_base_ + a) = 1.0;
    }
    // Price out basic artificials.
    for (std::uint32_t r = 0; r < m_; ++r) {
      if (basis_[r] >= art_base_) {
        for (std::uint32_t c = 0; c < n_; ++c) {
          At(m_, c) -= At(r, c);
        }
      }
    }
  }

  void SetPhase2Objective() {
    for (std::uint32_t c = 0; c < n_; ++c) {
      At(m_, c) = 0.0;
    }
    for (std::uint32_t v = 0; v < lp_.num_vars; ++v) {
      At(m_, v) = -lp_.objective[v];  // maximize
    }
    // Forbid artificial re-entry by leaving their reduced costs at 0 but
    // never selecting them as entering columns (handled in Iterate).
    // Price out the current basis.
    for (std::uint32_t r = 0; r < m_; ++r) {
      const double coef = At(m_, basis_[r]);
      if (std::abs(coef) > kEps) {
        for (std::uint32_t c = 0; c < n_; ++c) {
          At(m_, c) -= coef * At(r, c);
        }
      }
    }
    phase2_ = true;
  }

  void DriveOutArtificials() {
    for (std::uint32_t r = 0; r < m_; ++r) {
      if (basis_[r] < art_base_) {
        continue;
      }
      // Pivot on any non-artificial column with a nonzero entry.
      for (std::uint32_t c = 0; c < art_base_; ++c) {
        if (std::abs(At(r, c)) > 1e-6) {
          Pivot(r, c);
          break;
        }
      }
      // If none exists the row is redundant (all-zero); leave it.
    }
  }

  SolveStatus Iterate() {
    std::uint64_t pivots = 0;
    for (;;) {
      if (++pivots > kMaxPivots) {
        pivots_total_ += pivots;
        return SolveStatus::kIterationLimit;
      }
      // Entering column: most negative reduced cost (Dantzig); switch to
      // Bland's rule late to guarantee termination.
      const std::uint32_t limit = phase2_ ? art_base_ : n_ - 1;
      std::int64_t enter = -1;
      if (pivots < kMaxPivots / 2) {
        double best = -kEps;
        for (std::uint32_t c = 0; c < limit; ++c) {
          if (At(m_, c) < best) {
            best = At(m_, c);
            enter = c;
          }
        }
      } else {
        for (std::uint32_t c = 0; c < limit; ++c) {
          if (At(m_, c) < -kEps) {
            enter = c;
            break;
          }
        }
      }
      if (enter < 0) {
        pivots_total_ += pivots;
        return SolveStatus::kOptimal;
      }
      // Leaving row: ratio test (Bland tie-break on basis index).
      std::int64_t leave = -1;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::uint32_t r = 0; r < m_; ++r) {
        const double a = At(r, static_cast<std::uint32_t>(enter));
        if (a > kEps) {
          const double ratio = Rhs(r) / a;
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps && leave >= 0 && basis_[r] < basis_[leave])) {
            best_ratio = ratio;
            leave = r;
          }
        }
      }
      if (leave < 0) {
        pivots_total_ += pivots;
        return SolveStatus::kUnbounded;
      }
      Pivot(static_cast<std::uint32_t>(leave), static_cast<std::uint32_t>(enter));
    }
  }

  void Pivot(std::uint32_t pr, std::uint32_t pc) {
    const double pv = At(pr, pc);
    assert(std::abs(pv) > 1e-12);
    const double inv = 1.0 / pv;
    for (std::uint32_t c = 0; c < n_; ++c) {
      At(pr, c) *= inv;
    }
    At(pr, pc) = 1.0;
    for (std::uint32_t r = 0; r <= m_; ++r) {
      if (r == pr) {
        continue;
      }
      const double f = At(r, pc);
      if (std::abs(f) < 1e-12) {
        continue;
      }
      for (std::uint32_t c = 0; c < n_; ++c) {
        At(r, c) -= f * At(pr, c);
      }
      At(r, pc) = 0.0;
    }
    basis_[pr] = pc;
  }

  const LinearProgram& lp_;
  std::vector<double> tab_;
  std::vector<std::uint32_t> basis_;
  std::uint32_t m_ = 0;
  std::uint32_t n_ = 0;
  std::uint32_t stride_ = 0;
  std::uint32_t art_base_ = 0;
  std::uint32_t num_artificial_ = 0;
  std::uint64_t pivots_total_ = 0;
  bool phase2_ = false;
};

}  // namespace

SolveResult SolveLp(const LinearProgram& lp) { return Tableau(lp).Solve(); }

SolveResult SolveIlp(const LinearProgram& lp, std::uint32_t max_nodes) {
  // Branch and bound, depth-first, best-incumbent pruning, every node solved
  // cold on a copy of |lp| with the node's bound rows appended.
  std::vector<std::vector<LinearProgram::Row>> stack(1);
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
    std::vector<LinearProgram::Row> extra = std::move(stack.back());
    stack.pop_back();
    LinearProgram sub = lp;
    for (const LinearProgram::Row& row : extra) {
      sub.AddRow(row);
    }
    SolveResult rel = Tableau(sub).Solve();
    pivots_total += rel.pivots;
    if (rel.status == SolveStatus::kUnbounded) {
      rel.pivots = pivots_total;
      return rel;  // the ILP itself is unbounded (missing loop bound)
    }
    if (rel.status != SolveStatus::kOptimal || rel.objective <= incumbent + 1e-6) {
      continue;
    }
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
    LinearProgram::Row down;
    down.idx = {static_cast<std::uint32_t>(frac)};
    down.val = {1.0};
    down.rhs = std::floor(v);
    LinearProgram::Row up;  // x >= ceil(v)  <=>  -x <= -ceil(v)
    up.idx = {static_cast<std::uint32_t>(frac)};
    up.val = {-1.0};
    up.rhs = -std::ceil(v);
    std::vector<LinearProgram::Row> down_extra = extra;
    down_extra.push_back(std::move(down));
    extra.push_back(std::move(up));
    stack.push_back(std::move(extra));
    stack.push_back(std::move(down_extra));
  }

  if (best.status != SolveStatus::kOptimal && hit_limit) {
    best.status = SolveStatus::kIterationLimit;
  }
  best.pivots = pivots_total;
  return best;
}

// The seed cost model: whole-graph passes iterated to convergence (every
// node recomputed every pass) and per-node access collection with no shared
// block cache. The transfer function and join are those of the worklist
// version, so both reach the same unique fixpoint.
CostResult ComputeNodeCosts(const InlinedGraph& g, const CostModelOptions& opts) {
  const Program& p = g.program();
  const std::vector<NodeId> order = g.QuasiTopoOrder();
  const std::uint32_t line_bytes = opts.LineBytes();
  const std::uint32_t num_sets = opts.NumSets();

  // ---- Must-cache fixpoint ----
  std::vector<AbstractState> in_states(g.nodes().size(), AbstractState(num_sets));
  std::vector<AbstractState> out_states(g.nodes().size(), AbstractState(num_sets));
  const auto apply = [&](const Block& b, AbstractState& st) {
    std::vector<LineAccess> acc;
    CollectAccesses(p, b, opts, acc);
    for (const LineAccess& a : acc) {
      if (IsPinned(opts, a)) {
        continue;
      }
      (a.instruction ? st.icache : st.dcache).Access(a);
    }
  };

  // Run to convergence: stopping early on a still-changing state would leave
  // stale must-information (an UNDER-estimate of misses, i.e. unsound).
  constexpr int kMaxPasses = 1000;
  int pass = 0;
  for (; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (NodeId n : order) {
      AbstractState st(num_sets);
      bool first = true;
      for (EdgeId eid : g.nodes()[n].in) {
        const InlinedEdge& e = g.edges()[eid];
        const AbstractState* pred = nullptr;
        AbstractState cold(num_sets);
        if (e.from == kNoNode) {
          cold.reachable = true;  // kernel entry: cold caches
          pred = &cold;
        } else if (out_states[e.from].reachable) {
          pred = &out_states[e.from];
        } else {
          continue;
        }
        if (first) {
          st = *pred;
          first = false;
        } else {
          st.icache.JoinWith(pred->icache);
          st.dcache.JoinWith(pred->dcache);
        }
      }
      if (first) {
        continue;  // unreachable so far
      }
      st.reachable = true;
      if (!(in_states[n] == st)) {
        in_states[n] = st;
        changed = true;
      }
      AbstractState out = st;
      apply(g.BlockOf(n), out);
      if (!(out_states[n] == out)) {
        out_states[n] = out;
        changed = true;
      }
    }
    if (!changed) {
      break;
    }
  }
  if (pass == kMaxPasses) {
    throw std::logic_error("must-cache analysis failed to converge");
  }

  // ---- Loop membership: containing loops per node, outermost first ----
  std::vector<std::vector<int>> containing(g.nodes().size());
  {
    std::vector<std::size_t> by_size(g.loops().size());
    for (std::size_t i = 0; i < by_size.size(); ++i) {
      by_size[i] = i;
    }
    std::sort(by_size.begin(), by_size.end(), [&](std::size_t a, std::size_t b) {
      return g.loops()[a].body.size() > g.loops()[b].body.size();
    });
    for (std::size_t li : by_size) {
      for (NodeId n : g.loops()[li].body) {
        containing[n].push_back(static_cast<int>(li));
      }
    }
  }

  // ---- Persistence ----
  std::vector<std::map<std::uint32_t, Addr>> iset_line(g.loops().size());
  std::vector<std::map<std::uint32_t, Addr>> dset_line(g.loops().size());
  constexpr Addr kConflict = static_cast<Addr>(-2);
  for (NodeId n = 0; n < g.nodes().size(); ++n) {
    if (containing[n].empty()) {
      continue;
    }
    std::vector<LineAccess> acc;
    CollectAccesses(p, g.BlockOf(n), opts, acc);
    for (int lj : containing[n]) {
      for (const LineAccess& a : acc) {
        if (IsPinned(opts, a)) {
          continue;
        }
        const std::uint32_t set = static_cast<std::uint32_t>((a.line / line_bytes) % num_sets);
        auto& m = (a.instruction ? iset_line : dset_line)[lj];
        auto [it, inserted] = m.emplace(set, a.line);
        if (!inserted && it->second != a.line) {
          it->second = kConflict;
        }
      }
    }
  }
  const auto persistent_in = [&](int li, const LineAccess& a) {
    const std::uint32_t set = static_cast<std::uint32_t>((a.line / line_bytes) % num_sets);
    const auto& m = (a.instruction ? iset_line : dset_line)[li];
    const auto it = m.find(set);
    return it != m.end() && it->second == a.line;
  };
  const auto persistence_loop = [&](NodeId n, const LineAccess& a) -> int {
    for (int li : containing[n]) {  // outermost first
      if (persistent_in(li, a)) {
        return li;
      }
    }
    return -1;
  };

  // ---- Per-node costs + per-loop first-miss charges ----
  CostResult res;
  res.node_costs.assign(g.nodes().size(), 0);
  res.edge_extras.assign(g.edges().size(), 0);
  std::vector<std::set<Addr>> loop_first_i(g.loops().size());
  std::vector<std::set<Addr>> loop_first_d(g.loops().size());

  for (NodeId n = 0; n < g.nodes().size(); ++n) {
    if (!in_states[n].reachable) {
      continue;
    }
    const Block& b = g.BlockOf(n);
    Cycles cost = BaseCost(b, opts);
    AbstractState st = in_states[n];
    std::vector<LineAccess> acc;
    CollectAccesses(p, b, opts, acc);
    for (const LineAccess& a : acc) {
      if (IsPinned(opts, a)) {
        continue;
      }
      const bool hit = (a.instruction ? st.icache : st.dcache).Access(a);
      if (hit) {
        continue;
      }
      const int li = persistence_loop(n, a);
      if (li >= 0) {
        (a.instruction ? loop_first_i : loop_first_d)[li].insert(a.line);
      } else {
        cost += opts.MissPenaltyFor(a.line);
      }
    }
    res.node_costs[n] = cost;
  }

  for (std::size_t li = 0; li < g.loops().size(); ++li) {
    Cycles extra = 0;
    for (Addr line : loop_first_i[li]) {
      extra += opts.MissPenaltyFor(line);
    }
    for (Addr line : loop_first_d[li]) {
      extra += opts.MissPenaltyFor(line);
    }
    if (extra == 0) {
      continue;
    }
    for (EdgeId e : g.loops()[li].entries) {
      res.edge_extras[e] += extra;
    }
  }
  return res;
}

Cycles EvaluateTraceCost(const Program& p, const CostModelOptions& opts, const Trace& trace) {
  // The seed evaluator: every block's accesses collected, and the pin
  // filter applied, on every visit.
  AbstractState st(opts.NumSets());
  Cycles total = 0;
  for (BlockId bid : trace.blocks) {
    const Block& b = p.block(bid);
    total += BaseCost(b, opts);
    std::vector<LineAccess> acc;
    CollectAccesses(p, b, opts, acc);
    for (const LineAccess& a : acc) {
      if (!IsPinned(opts, a) && !(a.instruction ? st.icache : st.dcache).Access(a)) {
        total += opts.MissPenaltyFor(a.line);
      }
    }
  }
  return total;
}

Trace ExtractWorstTrace(const InlinedGraph& g, const IpetResult& result) {
  if (result.status != SolveStatus::kOptimal) {
    throw std::logic_error("ExtractWorstTrace: no optimal solution");
  }
  constexpr std::uint64_t kMaxTraceBlocks = 4u << 20;
  std::uint64_t total = 0;
  for (const std::uint32_t c : result.edge_counts) {
    total += c;
  }
  if (total > kMaxTraceBlocks) {
    return Trace{};
  }
  // The seed walk: a linked list, each node's out-edges rescanned from the
  // first on every step.
  std::vector<std::uint32_t> remaining = result.edge_counts;

  std::list<NodeId> walk;
  walk.push_back(g.entry_node());

  const auto take_edge = [&](NodeId at) -> NodeId {
    const auto& outs = g.nodes()[at].out;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const InlinedEdge& e = g.edges()[outs[i]];
      if (remaining[e.id] > 0) {
        remaining[e.id]--;
        return e.to;  // kNoNode for the sink
      }
    }
    return kNoNode;
  };

  // Hierholzer: build the primary path, then splice remaining cycles in at
  // the first position that still has unused out-edges.
  for (auto it = walk.begin(); it != walk.end(); ++it) {
    NodeId at = *it;
    const auto insert_pos = std::next(it);
    while (true) {
      const NodeId nxt = take_edge(at);
      if (nxt == kNoNode) {
        break;  // sink edge consumed or no edges left at this node
      }
      walk.insert(insert_pos, nxt);
      at = nxt;
    }
  }

  // Any count left on an edge other than the source edge: a disconnected
  // solution, which no trace realises.
  for (EdgeId e = 0; e < remaining.size(); ++e) {
    if (e != g.source_edge() && remaining[e] != 0) {
      return Trace{};
    }
  }
  Trace t;
  for (NodeId n : walk) {
    t.blocks.push_back(g.nodes()[n].block);
  }
  return t;
}

}  // namespace oracle

WcetOracle::WcetOracle(const KernelImage& image, const AnalysisOptions& options)
    : image_(&image), opts_(options), cost_opts_(BuildCostModelOptions(image, options)) {}

EntryResult WcetOracle::Analyze(EntryPoint entry) const {
  InlinedGraph graph(image_->prog, AnalysisEntryFunc(*image_, entry));
  EntryResult res;
  res.entry = entry;
  res.nodes = graph.nodes().size();
  res.edges = graph.edges().size();
  for (const LoopBoundResult& b : ComputeLoopBounds(graph, SimulateCycle)) {
    if (b.source == LoopBoundResult::Source::kComputed) {
      res.loops_bounded_auto++;
    } else if (b.source != LoopBoundResult::Source::kUnknown) {
      res.loops_bounded_annot++;
    }
  }
  const CostResult costs = oracle::ComputeNodeCosts(graph, cost_opts_);
  const IpetProgram lp =
      BuildIpetProgram(graph, costs, IpetOptions{opts_.irq_pending}, opts_.constraints);
  const IpetResult ipet = ExtractIpetResult(graph, oracle::SolveIlp(lp));
  res.status = ipet.status;
  if (ipet.status == SolveStatus::kOptimal) {
    res.wcet = ipet.wcet;
    res.micros = ClockSpec{}.ToMicros(ipet.wcet);
    res.worst_trace = oracle::ExtractWorstTrace(graph, ipet);
  }
  return res;
}

Cycles WcetOracle::EvaluateTrace(const Trace& trace) const {
  return oracle::EvaluateTraceCost(image_->prog, cost_opts_, trace);
}

Cycles WcetOracle::InterruptResponseBound() const {
  const EntryResult r[] = {Analyze(EntryPoint::kSyscall), Analyze(EntryPoint::kUndefined),
                           Analyze(EntryPoint::kPageFault), Analyze(EntryPoint::kInterrupt)};
  return ResponseBoundOf({&r[0], &r[1], &r[2], &r[3]});
}

std::vector<Cycles> WcetOracle::PerBlockBounds() const {
  const Program& p = image_->prog;
  std::vector<Cycles> bounds(p.num_blocks(), 0);
  for (BlockId id = 0; id < bounds.size(); ++id) {
    // Every access that is not way-locked misses.
    bounds[id] = BaseCost(p.block(id), cost_opts_);
    std::vector<LineAccess> acc;
    CollectAccesses(p, p.block(id), cost_opts_, acc);
    for (const LineAccess& a : acc) {
      if (!IsPinned(cost_opts_, a)) {
        bounds[id] += cost_opts_.MissPenaltyFor(a.line);
      }
    }
  }
  return bounds;
}

std::string DiffEntryResults(const EntryResult& want, const EntryResult& got) {
  std::ostringstream out;
  const auto field = [&out](const char* name, const auto& w, const auto& g) {
    if (!(w == g)) {
      out << name << ": " << w << " vs " << g << "\n";
    }
  };
  field("entry", static_cast<int>(want.entry), static_cast<int>(got.entry));
  field("status", static_cast<int>(want.status), static_cast<int>(got.status));
  field("wcet", want.wcet, got.wcet);
  field("micros", want.micros, got.micros);
  field("nodes", want.nodes, got.nodes);
  field("edges", want.edges, got.edges);
  field("loops_bounded_auto", want.loops_bounded_auto, got.loops_bounded_auto);
  field("loops_bounded_annot", want.loops_bounded_annot, got.loops_bounded_annot);
  field("worst_trace length", want.worst_trace.blocks.size(), got.worst_trace.blocks.size());
  if (want.worst_trace.blocks != got.worst_trace.blocks) {
    out << "worst_trace blocks differ\n";
  }
  return out.str();
}

std::string DiffFromOracle(const WcetAnalyzer& analyzer, const WcetOracle& oracle) {
  std::string diff;
  for (const EntryPoint e : kEntryPoints) {
    const std::string d = DiffEntryResults(oracle.Analyze(e), analyzer.Analyze(e));
    if (!d.empty()) {
      diff += std::string(EntryPointName(e)) + ":\n" + d;
    }
  }
  return diff;
}

}  // namespace pmk
