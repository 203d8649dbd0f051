#include "src/wcet/ipet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace pmk {

IpetResult ExtractIpetResult(const InlinedGraph& g, const SolveResult& sol) {
  IpetResult res;
  res.status = sol.status;
  if (sol.status != SolveStatus::kOptimal) {
    return res;
  }
  res.wcet = static_cast<Cycles>(std::llround(sol.objective));
  res.edge_counts.resize(g.edges().size(), 0);
  for (std::size_t e = 0; e < g.edges().size(); ++e) {
    res.edge_counts[e] = static_cast<std::uint32_t>(std::llround(sol.x[e]));
  }
  res.node_counts.resize(g.nodes().size(), 0);
  for (const InlinedEdge& e : g.edges()) {
    if (e.to != kNoNode) {
      res.node_counts[e.to] += res.edge_counts[e.id];
    }
  }
  return res;
}

IpetProgram BuildIpetProgram(const InlinedGraph& g, const CostResult& costs,
                             const IpetOptions& options,
                             const std::vector<ManualConstraint>& constraints) {
  IpetProgram lp;
  // One variable per edge; objective: entering an edge pays its target's
  // per-execution cost plus any loop first-miss charge on the edge itself.
  lp.objective.reserve(g.edges().size());
  for (const InlinedEdge& e : g.edges()) {
    double coeff = static_cast<double>(costs.edge_extras[e.id]);
    if (e.to != kNoNode) {
      coeff += static_cast<double>(costs.node_costs[e.to]);
    }
    lp.AddVar(coeff);
  }
  // Every edge sits in the flow rows of both its ends.
  lp.cols.reserve(2 * g.edges().size());
  lp.vals.reserve(2 * g.edges().size());

  // Every row is filled in |row| and appended; the one Row is reused.
  LinearProgram::Row row;
  const auto start = [&row](LinearProgram::RowType type, double rhs) {
    row.idx.clear();
    row.val.clear();
    row.type = type;
    row.rhs = rhs;
  };
  const auto add = [&row](EdgeId eid, double coeff) {
    row.idx.push_back(eid);
    row.val.push_back(coeff);
  };
  const auto pin_to_zero = [&](EdgeId eid) {
    start(LinearProgram::RowType::kEq, 0);
    add(eid, 1.0);
    lp.AddRow(row);
  };

  // Flow conservation at every node, then the source row ("the kernel is
  // entered exactly once").
  for (const InlinedNode& n : g.nodes()) {
    start(LinearProgram::RowType::kEq, 0);
    for (EdgeId eid : n.in) {
      add(eid, 1.0);
    }
    for (EdgeId eid : n.out) {
      add(eid, -1.0);
    }
    lp.AddRow(row);
  }
  start(LinearProgram::RowType::kEq, 1);
  add(g.source_edge(), 1.0);
  lp.AddRow(row);

  // Loop bounds: head executions <= bound * entry-edge executions. An
  // unbounded loop gets no row: the LP detects it if the path can use it.
  for (const InlinedLoop& loop : g.loops()) {
    if (loop.bound == 0) {
      continue;
    }
    start(LinearProgram::RowType::kLe, 0);
    for (EdgeId eid : g.nodes()[loop.head].in) {
      add(eid, 1.0);
    }
    for (EdgeId eid : loop.entries) {
      add(eid, -static_cast<double>(loop.bound));
    }
    lp.AddRow(row);
  }

  // Analyzed paths end at the FIRST path-end block they reach (kernel exit
  // or transfer to the interrupt handler): path-end nodes may only flow into
  // the virtual sink, never onward into post-path code.
  for (const InlinedNode& n : g.nodes()) {
    if (!g.BlockOf(n.id).is_path_end) {
      continue;
    }
    for (EdgeId eid : n.out) {
      if (g.edges()[eid].kind != InlinedEdge::Kind::kSink) {
        pin_to_zero(eid);
      }
    }
  }

  // Latency mode: execution cannot continue past a preemption point.
  if (options.irq_pending) {
    for (const InlinedNode& n : g.nodes()) {
      if (!g.BlockOf(n.id).is_preemption_point) {
        continue;
      }
      for (EdgeId eid : n.out) {
        if (g.edges()[eid].kind == InlinedEdge::Kind::kFallThrough) {
          pin_to_zero(eid);
        }
      }
    }
  }

  // Absolute execution bounds declared on blocks, one row per block over
  // all its clones (std::map keeps the emission order deterministic in
  // BlockId).
  std::map<BlockId, std::vector<NodeId>> by_block;
  for (const InlinedNode& n : g.nodes()) {
    if (g.BlockOf(n.id).absolute_exec_bound != 0) {
      by_block[n.block].push_back(n.id);
    }
  }
  for (const auto& [bid, nodes] : by_block) {
    start(LinearProgram::RowType::kLe, g.program().block(bid).absolute_exec_bound);
    for (NodeId n : nodes) {
      for (EdgeId eid : g.nodes()[n].in) {
        add(eid, 1.0);
      }
    }
    lp.AddRow(row);
  }

  // Manual constraints (Section 5.2).
  const auto in_edges_of_block = [&](BlockId bid, double coeff) {
    for (const InlinedNode& n : g.nodes()) {
      if (n.block == bid) {
        for (EdgeId eid : n.in) {
          add(eid, coeff);
        }
      }
    }
  };
  for (const ManualConstraint& mc : constraints) {
    switch (mc.kind) {
      case ManualConstraint::Kind::kConflict: {
        // Both blocks execute at most once per invocation of their (shared)
        // function; per invocation only one of them may run. Globally:
        // n_a + n_b <= invocations of the function = entries of its clones.
        start(LinearProgram::RowType::kLe, 0);
        in_edges_of_block(mc.a, 1.0);
        in_edges_of_block(mc.b, 1.0);
        const FuncId f = g.program().block(mc.a).func;
        in_edges_of_block(g.program().function(f).entry, -1.0);
        break;
      }
      case ManualConstraint::Kind::kConsistent:
        start(LinearProgram::RowType::kEq, 0);
        in_edges_of_block(mc.a, 1.0);
        in_edges_of_block(mc.b, -1.0);
        break;
      case ManualConstraint::Kind::kExecutes:
        start(LinearProgram::RowType::kLe, mc.n);
        in_edges_of_block(mc.a, 1.0);
        break;
    }
    lp.AddRow(row);
  }
  return lp;
}

IpetResult SolveIpetProgram(const InlinedGraph& g, const IpetProgram& prog) {
  return ExtractIpetResult(g, SolveIlp(prog));
}

IpetResult SolveIpetProgramWarm(const InlinedGraph& g, const IpetProgram& prog,
                                IlpWarmStart& warm) {
  return ExtractIpetResult(g, SolveIlpWarm(prog, warm));
}

IpetResult RunIpet(const InlinedGraph& g, const CostResult& costs,
                   const IpetOptions& options,
                   const std::vector<ManualConstraint>& constraints) {
  const IpetProgram prog = BuildIpetProgram(g, costs, options, constraints);
  return SolveIpetProgram(g, prog);
}

Trace ExtractWorstTrace(const InlinedGraph& g, const IpetResult& result) {
  if (result.status != SolveStatus::kOptimal) {
    throw std::logic_error("ExtractWorstTrace: no optimal solution");
  }
  // A worst path can legitimately be astronomically long (e.g. a fully
  // non-preemptible address-space teardown iterates millions of times);
  // materializing it block-by-block is useless. Return an empty trace
  // instead of exhausting memory.
  constexpr std::uint64_t kMaxTraceBlocks = 4u << 20;
  std::uint64_t total = 0;
  for (const std::uint32_t c : result.edge_counts) {
    total += c;
  }
  if (total > kMaxTraceBlocks) {
    return Trace{};
  }
  // Hierholzer walk over the multigraph defined by the edge counts, from the
  // entry node to the (unique) sink edge. Every node of the walk is followed
  // by the sub-tour it starts: its first out-edges with counts left, taken
  // until the sink or a node with none left. |pending| is the rest of the
  // walk, its next node on top, so a sub-tour is spliced in by pushing it
  // in reverse. Counts are only ever consumed, so each node's out-edge
  // cursor never has to look back.
  std::vector<std::uint32_t> remaining = result.edge_counts;
  std::vector<std::uint32_t> next_out(g.nodes().size(), 0);
  std::vector<NodeId> pending;
  pending.reserve(total + 1);
  Trace t;
  t.blocks.reserve(total + 1);
  // Every count but the source edge's is consumed by a connected solution.
  std::uint64_t unconsumed = total - result.edge_counts[g.source_edge()];
  pending.push_back(g.entry_node());
  while (!pending.empty()) {
    NodeId at = pending.back();
    pending.pop_back();
    t.blocks.push_back(g.nodes()[at].block);
    const std::size_t sub_tour = pending.size();
    while (true) {
      const std::vector<EdgeId>& outs = g.nodes()[at].out;
      std::uint32_t& i = next_out[at];
      while (i < outs.size() && remaining[outs[i]] == 0) {
        ++i;
      }
      if (i == outs.size()) {
        break;  // no edges left at this node
      }
      const InlinedEdge& e = g.edges()[outs[i]];
      remaining[e.id]--;
      unconsumed--;
      if (e.to == kNoNode) {
        break;  // sink edge consumed
      }
      pending.push_back(e.to);
      at = e.to;
    }
    std::reverse(pending.begin() + static_cast<std::ptrdiff_t>(sub_tour), pending.end());
  }
  // Leftover edge counts mean a disconnected solution (flow conservation
  // allows a cycle the path never reaches): no single trace realises it.
  if (unconsumed != 0) {
    return Trace{};
  }
  return t;
}

}  // namespace pmk
