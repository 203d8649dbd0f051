#include "src/wcet/cost.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

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
  const std::uint32_t num_sets = opts_.NumSets();
  start_.assign(n + 1, 0);
  base_.assign(n, 0);
  worst_.assign(n, 0);
  // Each line's id among the lines of its set in its L1, assigned as the
  // line is first pooled.
  std::unordered_map<Addr, std::uint16_t> line_ids[2];  // the L1I's, the L1D's
  std::vector<std::uint16_t> lines_in_slot(2 * static_cast<std::size_t>(num_sets), 0);
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
      const std::uint32_t slot = a.instruction ? a.set : a.set + num_sets;
      const auto [it, fresh] = line_ids[a.instruction ? 0 : 1].try_emplace(a.line, kNoLine);
      if (fresh) {
        if (lines_in_slot[slot] == kMaxLineId) {
          throw std::invalid_argument("cost model: more than 65,534 distinct lines in one cache set");
        }
        it->second = ++lines_in_slot[slot];
      }
      const Cycles miss = opts_.MissPenaltyFor(a.line);
      pool_.push_back({slot, it->second, miss});
      worst += miss;
    }
    worst_[id] = worst;
    start_[id + 1] = static_cast<std::uint32_t>(pool_.size());
  }
}

CostResult ComputeNodeCosts(const InlinedGraph& g, const CostModelCache& cache) {
  constexpr std::uint16_t kNoLine = CostModelCache::kNoLine;
  const std::vector<NodeId>& order = g.QuasiTopoOrder();
  const std::size_t num_nodes = g.nodes().size();
  const std::size_t num_loops = g.loops().size();
  const std::size_t width = cache.state_width();

  // ---- Must-cache fixpoint ----
  // One flat must-cache state per node, the one after the node executes:
  // per set of each L1, the id of the line guaranteed resident. A node's
  // in-state is the join of its reached predecessors' out-states, rebuilt in
  // |scratch| whenever it is needed. Row num_nodes is the cold state every
  // kernel entry starts from.
  std::vector<std::uint16_t> states((num_nodes + 2) * width, kNoLine);
  const std::uint16_t* const cold = &states[num_nodes * width];
  std::uint16_t* const scratch = &states[(num_nodes + 1) * width];
  std::vector<char> reached(num_nodes, 0);
  const auto join_in = [&](NodeId n) {
    bool first = true;
    for (EdgeId eid : g.nodes()[n].in) {
      const NodeId from = g.edges()[eid].from;
      const std::uint16_t* pred = cold;
      if (from != kNoNode) {
        if (!reached[from]) {
          continue;
        }
        pred = &states[from * width];
      }
      if (first) {
        std::copy(pred, pred + width, scratch);
        first = false;
      } else {
        for (std::size_t i = 0; i < width; ++i) {
          scratch[i] = scratch[i] == pred[i] ? scratch[i] : kNoLine;
        }
      }
    }
    return !first;  // false: no predecessor reached yet
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
      if (!join_in(n)) {
        continue;  // unreachable so far
      }
      const BlockId bid = g.nodes()[n].block;
      for (const PooledAccess* a = cache.accesses_begin(bid); a != cache.accesses_end(bid); ++a) {
        scratch[a->slot] = a->id;
      }
      std::uint16_t* const out = &states[n * width];
      if (!reached[n] || !std::equal(scratch, scratch + width, out)) {
        std::copy(scratch, scratch + width, out);
        reached[n] = 1;
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
  // CSR: node n's loops are loop_list[loop_begin[n] .. loop_begin[n + 1]).
  std::vector<std::uint32_t> by_size(num_loops);
  for (std::uint32_t i = 0; i < num_loops; ++i) {
    by_size[i] = i;
  }
  std::sort(by_size.begin(), by_size.end(), [&](std::uint32_t a, std::uint32_t b) {
    return g.loops()[a].body.size() > g.loops()[b].body.size();
  });
  std::vector<std::uint32_t> loop_begin(num_nodes + 1, 0);
  for (const InlinedLoop& loop : g.loops()) {
    for (NodeId n : loop.body) {
      ++loop_begin[n + 1];
    }
  }
  for (std::size_t n = 0; n < num_nodes; ++n) {
    loop_begin[n + 1] += loop_begin[n];
  }
  std::vector<std::uint32_t> loop_list(loop_begin[num_nodes]);
  for (std::uint32_t li : by_size) {
    for (NodeId n : g.loops()[li].body) {
      loop_list[loop_begin[n]++] = li;
    }
  }
  for (std::size_t n = num_nodes; n > 0; --n) {
    loop_begin[n] = loop_begin[n - 1];  // undo the fill's advance
  }
  loop_begin[0] = 0;

  // ---- Persistence: per loop, lines whose cache set is touched by exactly
  // one distinct line within the body (so they cannot be evicted while the
  // loop runs) ----
  // persist[loop * width + slot]: the one line id the body touches there,
  // kNoLine for none, kConflict for more than one.
  constexpr std::uint16_t kConflict = CostModelCache::kMaxLineId + 1;
  std::vector<std::uint16_t> persist(num_loops * width, kNoLine);
  for (NodeId n = 0; n < num_nodes; ++n) {
    const BlockId bid = g.nodes()[n].block;
    // A node's accesses are registered in EVERY loop containing it, so an
    // inner-loop body also constrains persistence of the outer loop.
    for (std::uint32_t k = loop_begin[n]; k < loop_begin[n + 1]; ++k) {
      std::uint16_t* const row = &persist[loop_list[k] * width];
      for (const PooledAccess* a = cache.accesses_begin(bid); a != cache.accesses_end(bid); ++a) {
        std::uint16_t& seen = row[a->slot];
        seen = seen == kNoLine || seen == a->id ? a->id : kConflict;
      }
    }
  }

  // ---- Per-node costs + per-loop first-miss charges ----
  // The first-miss charge belongs to the OUTERMOST loop in which the line is
  // persistent: re-entering an inner loop does not evict lines the outer
  // loop also preserves. A loop has at most one persistent line per slot,
  // so |charged| marks the lines already charged on its entry edges.
  CostResult res;
  res.node_costs.assign(num_nodes, 0);
  res.edge_extras.assign(g.edges().size(), 0);
  std::vector<char> charged(num_loops * width, 0);
  std::vector<Cycles> loop_extra(num_loops, 0);
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (!reached[n]) {
      continue;
    }
    join_in(n);
    const BlockId bid = g.nodes()[n].block;
    Cycles cost = cache.base_cost(bid);
    for (const PooledAccess* a = cache.accesses_begin(bid); a != cache.accesses_end(bid); ++a) {
      const bool hit = scratch[a->slot] == a->id;
      scratch[a->slot] = a->id;
      if (hit) {
        continue;
      }
      std::uint32_t k = loop_begin[n];  // outermost first
      while (k < loop_begin[n + 1] && persist[loop_list[k] * width + a->slot] != a->id) {
        ++k;
      }
      if (k == loop_begin[n + 1]) {
        cost += a->miss;
        continue;
      }
      // First-miss: charged once on that loop's entry edges.
      const std::uint32_t li = loop_list[k];
      if (!charged[li * width + a->slot]) {
        charged[li * width + a->slot] = 1;
        loop_extra[li] += a->miss;
      }
    }
    res.node_costs[n] = cost;
  }

  for (std::size_t li = 0; li < num_loops; ++li) {
    if (loop_extra[li] == 0) {
      continue;
    }
    for (EdgeId e : g.loops()[li].entries) {
      res.edge_extras[e] += loop_extra[li];
    }
  }
  return res;
}

Cycles EvaluateTraceCost(const CostModelCache& cache, const Trace& trace) {
  std::vector<std::uint16_t> resident(cache.state_width(), CostModelCache::kNoLine);
  Cycles total = 0;
  for (BlockId bid : trace.blocks) {
    total += cache.base_cost(bid);
    for (const PooledAccess* a = cache.accesses_begin(bid); a != cache.accesses_end(bid); ++a) {
      if (resident[a->slot] != a->id) {
        resident[a->slot] = a->id;
        total += a->miss;
      }
    }
  }
  return total;
}

}  // namespace pmk
