#include "src/wcet/cost.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace pmk {

void CostModelOptions::Validate() const {
  machine.l1i.Validate();
  machine.l1d.Validate();
  const CacheConfig& i = machine.l1i;
  const CacheConfig& d = machine.l1d;
  if (i.line_bytes != d.line_bytes || i.size_bytes / i.ways != d.size_bytes / d.ways) {
    throw std::invalid_argument("cost model: the L1I and L1D differ in line or way size");
  }
  if (!pinned_l2lines.empty() && machine.l2.line_bytes < i.line_bytes) {
    throw std::invalid_argument("cost model: pinned L2 lines are shorter than an L1 line");
  }
}

void CollectAccesses(const Program& p, const Block& b, const CostModelOptions& opts,
                     std::vector<LineAccess>& out) {
  const Addr line = opts.LineBytes();
  const Addr sets = opts.NumSets();
  const auto touch = [&](Addr l, bool instruction) {
    out.push_back({l * line, static_cast<std::uint32_t>(l % sets), instruction});
  };
  const Addr first = b.address / line;
  const Addr last = (b.address + static_cast<Addr>(b.instr_count) * 4 - 1) / line;
  for (Addr l = first; l <= last; ++l) {
    touch(l, true);
  }
  for (const StaticAccess& a : b.static_accesses) {
    touch(p.ResolveStatic(b, a) / line, false);
  }
}

bool IsPinned(const CostModelOptions& opts, const LineAccess& a) {
  return a.instruction ? opts.pinned_ilines.count(a.line) != 0
                       : opts.pinned_dlines.count(a.line) != 0;
}

Cycles BaseCost(const Block& b, const CostModelOptions& opts) {
  Cycles cost = b.instr_count + b.raw_cycles;
  // Every data access pays the pipeline's load-result latency; dynamic
  // (statically unknown) addresses additionally miss every time.
  const Cycles stall = opts.machine.memory.load_use_stall;
  cost += static_cast<Cycles>(b.static_accesses.size()) * stall;
  cost += static_cast<Cycles>(b.max_dynamic_accesses) * (stall + opts.MissPenalty());
  const bool has_branch = b.is_return || b.callee != kNoFunc || b.succs.size() == 2 ||
                          b.branch == BranchKind::kDirect;
  if (has_branch) {
    cost += opts.BranchCost();
  }
  return cost;
}

CostModelCache::CostModelCache(const Program& program, const CostModelOptions& opts)
    : program_(&program), opts_(opts) {
  opts_.Validate();
  const std::size_t n = program.num_blocks();
  start_.assign(n + 1, 0);
  base_.assign(n, 0);
  worst_.assign(n, 0);
  std::vector<LineAccess> acc;
  for (BlockId id = 0; id < n; ++id) {
    const Block& b = program.block(id);
    acc.clear();
    CollectAccesses(program, b, opts_, acc);
    Cycles worst = BaseCost(b, opts_);
    base_[id] = worst;
    for (const LineAccess& a : acc) {
      if (IsPinned(opts_, a)) {
        continue;  // pinned lines always hit: drop them from every pass
      }
      pool_.push_back(a);
      worst += opts_.MissPenaltyFor(a.line);
    }
    worst_[id] = worst;
    start_[id + 1] = static_cast<std::uint32_t>(pool_.size());
  }
}

CostResult ComputeNodeCosts(const InlinedGraph& g, const CostModelCache& cache) {
  const CostModelOptions& opts = cache.options();
  const std::vector<NodeId>& order = g.QuasiTopoOrder();
  const std::uint32_t num_sets = opts.NumSets();
  const std::size_t num_nodes = g.nodes().size();

  // ---- Must-cache fixpoint ----
  std::vector<AbstractState> in_states(num_nodes, AbstractState(num_sets));
  std::vector<AbstractState> out_states(num_nodes, AbstractState(num_sets));
  const auto apply = [&](BlockId bid, AbstractState& st) {
    for (const LineAccess* a = cache.accesses_begin(bid); a != cache.accesses_end(bid); ++a) {
      (a->instruction ? st.icache : st.dcache).Access(*a);
    }
  };

  // Worklist-driven chaotic iteration in quasi-topological sweeps: only nodes
  // whose predecessors' out-states changed are re-evaluated. The transfer
  // function and join are monotone (must-information is only ever removed),
  // so this reaches the same unique fixpoint as whole-graph iteration to
  // convergence; stopping with dirty nodes outstanding would leave stale
  // must-information (an UNDER-estimate of misses, i.e. unsound). The cap is
  // a safety net against non-monotone bugs.
  std::vector<char> dirty(num_nodes, 1);
  const std::size_t kMaxRecomputes = static_cast<std::size_t>(1000) * std::max<std::size_t>(num_nodes, 1);
  std::size_t recomputes = 0;
  bool any_dirty = true;
  while (any_dirty) {
    any_dirty = false;
    for (NodeId n : order) {
      if (!dirty[n]) {
        continue;
      }
      dirty[n] = 0;
      if (++recomputes > kMaxRecomputes) {
        throw std::logic_error("must-cache analysis failed to converge");
      }
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
      }
      AbstractState out = st;
      apply(g.nodes()[n].block, out);
      if (!(out_states[n] == out)) {
        out_states[n] = std::move(out);
        for (EdgeId eid : g.nodes()[n].out) {
          const InlinedEdge& e = g.edges()[eid];
          if (e.to != kNoNode) {
            dirty[e.to] = 1;
            any_dirty = true;
          }
        }
      }
    }
  }

  // ---- Loop membership: containing loops per node, outermost first ----
  std::vector<std::vector<int>> containing(num_nodes);
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

  // ---- Persistence: per loop, lines whose cache set is touched by exactly
  // one distinct line within the body (so they cannot be evicted while the
  // loop runs) ----
  // Key: (loop, instruction?, set) -> distinct lines seen.
  std::vector<std::map<std::uint32_t, Addr>> iset_line(g.loops().size());
  std::vector<std::map<std::uint32_t, Addr>> dset_line(g.loops().size());
  constexpr Addr kConflict = static_cast<Addr>(-2);
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (containing[n].empty()) {
      continue;
    }
    const BlockId bid = g.nodes()[n].block;
    // A node's accesses are registered in EVERY loop containing it, so an
    // inner-loop body also constrains persistence of the outer loop.
    for (int lj : containing[n]) {
      for (const LineAccess* a = cache.accesses_begin(bid); a != cache.accesses_end(bid); ++a) {
        auto& m = (a->instruction ? iset_line : dset_line)[lj];
        auto [it, inserted] = m.emplace(a->set, a->line);
        if (!inserted && it->second != a->line) {
          it->second = kConflict;
        }
      }
    }
  }
  const auto persistent_in = [&](int li, const LineAccess& a) {
    const auto& m = (a.instruction ? iset_line : dset_line)[li];
    const auto it = m.find(a.set);
    return it != m.end() && it->second == a.line;
  };
  // The first-miss charge belongs to the OUTERMOST loop in which the line is
  // persistent: re-entering an inner loop does not evict lines the outer
  // loop also preserves.
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
  res.node_costs.assign(num_nodes, 0);
  res.edge_extras.assign(g.edges().size(), 0);
  std::vector<std::set<Addr>> loop_first_i(g.loops().size());
  std::vector<std::set<Addr>> loop_first_d(g.loops().size());

  for (NodeId n = 0; n < num_nodes; ++n) {
    if (!in_states[n].reachable) {
      continue;
    }
    const BlockId bid = g.nodes()[n].block;
    Cycles cost = cache.base_cost(bid);
    AbstractState st = in_states[n];
    for (const LineAccess* a = cache.accesses_begin(bid); a != cache.accesses_end(bid); ++a) {
      const bool hit = (a->instruction ? st.icache : st.dcache).Access(*a);
      if (hit) {
        continue;
      }
      const int li = persistence_loop(n, *a);
      if (li >= 0) {
        // First-miss: charged once on that loop's entry edges.
        (a->instruction ? loop_first_i : loop_first_d)[li].insert(a->line);
      } else {
        cost += opts.MissPenaltyFor(a->line);
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

Cycles EvaluateTraceCost(const CostModelCache& cache, const Trace& trace) {
  const CostModelOptions& opts = cache.options();
  AbstractState st(opts.NumSets());
  Cycles total = 0;
  for (BlockId bid : trace.blocks) {
    total += cache.base_cost(bid);
    for (const LineAccess* a = cache.accesses_begin(bid); a != cache.accesses_end(bid); ++a) {
      if (!(a->instruction ? st.icache : st.dcache).Access(*a)) {
        total += opts.MissPenaltyFor(a->line);
      }
    }
  }
  return total;
}

}  // namespace pmk
