#include "src/wcet/ipet.h"

#include <cassert>
#include <cmath>
#include <list>
#include <map>
#include <stdexcept>
#include <utility>

namespace pmk {

namespace {

using Row = LinearProgram::Row;

bool RowsEqual(const Row& a, const Row& b) {
  return a.type == b.type && a.rhs == b.rhs && a.idx == b.idx && a.val == b.val;
}

// Flow conservation at every node, then the source row ("the kernel is
// entered exactly once").
std::vector<Row> BuildFlowRows(const InlinedGraph& g) {
  std::vector<Row> rows;
  rows.reserve(g.nodes().size() + 1);
  for (const InlinedNode& n : g.nodes()) {
    Row row;
    row.type = LinearProgram::RowType::kEq;
    row.rhs = 0;
    for (EdgeId eid : n.in) {
      row.idx.push_back(eid);
      row.val.push_back(1.0);
    }
    for (EdgeId eid : n.out) {
      row.idx.push_back(eid);
      row.val.push_back(-1.0);
    }
    rows.push_back(std::move(row));
  }
  {
    Row row;
    row.type = LinearProgram::RowType::kEq;
    row.rhs = 1;
    row.idx.push_back(g.source_edge());
    row.val.push_back(1.0);
    rows.push_back(std::move(row));
  }
  return rows;
}

// Loop bounds: head executions <= bound * entry-edge executions.
std::vector<Row> BuildLoopRows(const InlinedGraph& g) {
  std::vector<Row> rows;
  for (const InlinedLoop& loop : g.loops()) {
    if (loop.bound == 0) {
      continue;  // unbounded: the LP detects it if the path can use the loop
    }
    Row row;
    row.type = LinearProgram::RowType::kLe;
    row.rhs = 0;
    for (EdgeId eid : g.nodes()[loop.head].in) {
      row.idx.push_back(eid);
      row.val.push_back(1.0);
    }
    for (EdgeId eid : loop.entries) {
      row.idx.push_back(eid);
      row.val.push_back(-static_cast<double>(loop.bound));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Analyzed paths end at the FIRST path-end block they reach (kernel exit
// or transfer to the interrupt handler): path-end nodes may only flow into
// the virtual sink, never onward into post-path code.
std::vector<Row> BuildPathEndRows(const InlinedGraph& g) {
  std::vector<Row> rows;
  for (const InlinedNode& n : g.nodes()) {
    if (!g.BlockOf(n.id).is_path_end) {
      continue;
    }
    for (EdgeId eid : n.out) {
      if (g.edges()[eid].kind == InlinedEdge::Kind::kSink) {
        continue;
      }
      Row row;
      row.type = LinearProgram::RowType::kEq;
      row.rhs = 0;
      row.idx.push_back(eid);
      row.val.push_back(1.0);
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

// Latency mode: execution cannot continue past a preemption point.
std::vector<Row> BuildPreemptRows(const InlinedGraph& g, const IpetOptions& options) {
  std::vector<Row> rows;
  if (!options.irq_pending) {
    return rows;
  }
  for (const InlinedNode& n : g.nodes()) {
    if (!g.BlockOf(n.id).is_preemption_point) {
      continue;
    }
    for (EdgeId eid : n.out) {
      if (g.edges()[eid].kind == InlinedEdge::Kind::kFallThrough) {
        Row row;
        row.type = LinearProgram::RowType::kEq;
        row.rhs = 0;
        row.idx.push_back(eid);
        row.val.push_back(1.0);
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

// Absolute execution bounds declared on blocks (std::map keeps the emission
// order deterministic in BlockId).
std::vector<Row> BuildExecRows(const InlinedGraph& g) {
  std::vector<Row> rows;
  std::map<BlockId, std::vector<NodeId>> by_block;
  for (const InlinedNode& n : g.nodes()) {
    if (g.BlockOf(n.id).absolute_exec_bound != 0) {
      by_block[n.block].push_back(n.id);
    }
  }
  for (const auto& [bid, nodes] : by_block) {
    Row row;
    row.type = LinearProgram::RowType::kLe;
    row.rhs = g.program().block(bid).absolute_exec_bound;
    for (NodeId n : nodes) {
      for (EdgeId eid : g.nodes()[n].in) {
        row.idx.push_back(eid);
        row.val.push_back(1.0);
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Manual constraints (Section 5.2).
std::vector<Row> BuildManualRows(const InlinedGraph& g,
                                 const std::vector<ManualConstraint>& constraints) {
  std::vector<Row> rows;
  const auto in_edges_of_block = [&](BlockId bid, Row& row, double coeff) {
    for (const InlinedNode& n : g.nodes()) {
      if (n.block == bid) {
        for (EdgeId eid : n.in) {
          row.idx.push_back(eid);
          row.val.push_back(coeff);
        }
      }
    }
  };
  for (const ManualConstraint& mc : constraints) {
    Row row;
    switch (mc.kind) {
      case ManualConstraint::Kind::kConflict: {
        // Both blocks execute at most once per invocation of their (shared)
        // function; per invocation only one of them may run. Globally:
        // n_a + n_b <= invocations of the function = entries of its clones.
        row.type = LinearProgram::RowType::kLe;
        row.rhs = 0;
        in_edges_of_block(mc.a, row, 1.0);
        in_edges_of_block(mc.b, row, 1.0);
        const FuncId f = g.program().block(mc.a).func;
        const BlockId entry = g.program().function(f).entry;
        in_edges_of_block(entry, row, -1.0);
        break;
      }
      case ManualConstraint::Kind::kConsistent: {
        row.type = LinearProgram::RowType::kEq;
        row.rhs = 0;
        in_edges_of_block(mc.a, row, 1.0);
        in_edges_of_block(mc.b, row, -1.0);
        break;
      }
      case ManualConstraint::Kind::kExecutes: {
        row.type = LinearProgram::RowType::kLe;
        row.rhs = mc.n;
        in_edges_of_block(mc.a, row, 1.0);
        break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Rebases |warm| across the upcoming splice of |fresh| over [begin, end).
// The family rebuild re-emits rows for every block, but an edit usually
// changes only a handful of them — and virtual inlining means one block edit
// can touch several scattered rows (one per inlined clone). A contiguous
// changed-span treatment would gut every basis token in between, so instead
// the old and fresh family rows are matched row-by-row on exact content
// (greedy, order-preserving — both sides are emitted in node order) and the
// full old-row -> new-row mapping is handed to RemapRows. Basis tokens of
// every surviving row carry over; only the genuinely removed/inserted rows
// perturb the basis, so the warm solve repairs a handful of columns instead
// of rebuilding half the family.
void RebaseWarmAcrossSplice(const LinearProgram& lp, std::uint32_t begin, std::uint32_t end,
                            const std::vector<Row>& fresh, IlpWarmStart* warm) {
  if (warm == nullptr) {
    return;
  }
  const std::uint32_t old_m = static_cast<std::uint32_t>(lp.rows.size());
  const std::uint32_t old_n = end - begin;
  const std::uint32_t new_n = static_cast<std::uint32_t>(fresh.size());
  const std::int64_t shift = static_cast<std::int64_t>(new_n) - old_n;
  std::vector<std::int32_t> old_to_new(old_m);
  for (std::uint32_t r = 0; r < begin; ++r) {
    old_to_new[r] = static_cast<std::int32_t>(r);
  }
  for (std::uint32_t r = end; r < old_m; ++r) {
    old_to_new[r] = static_cast<std::int32_t>(static_cast<std::int64_t>(r) + shift);
  }
  std::uint32_t j = 0;
  for (std::uint32_t i = 0; i < old_n; ++i) {
    // Match old row begin+i against the next unmatched fresh row with
    // identical content. Family rows are content-unique (each pins a
    // distinct edge/loop/block), so a lookahead hit is a genuine survivor
    // and everything skipped over is a fresh insertion.
    std::uint32_t jj = j;
    while (jj < new_n && !RowsEqual(lp.rows[begin + i], fresh[jj])) {
      ++jj;
    }
    if (jj < new_n) {
      old_to_new[begin + i] = static_cast<std::int32_t>(begin + jj);
      j = jj + 1;
    } else {
      old_to_new[begin + i] = -1;  // removed (or content-edited) row
    }
  }
  warm->RemapRows(old_to_new, static_cast<std::uint32_t>(static_cast<std::int64_t>(old_m) + shift));
}

// Splices |fresh| over rows [begin, end) of |lp|, returning how many of the
// surviving rows differ from what that span previously held.
std::size_t SpliceRows(LinearProgram& lp, std::uint32_t begin, std::uint32_t end,
                       std::vector<Row> fresh) {
  std::size_t changed = 0;
  const std::size_t old_n = end - begin;
  const std::size_t common = std::min(old_n, fresh.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!RowsEqual(lp.rows[begin + i], fresh[i])) {
      ++changed;
    }
  }
  changed += (old_n > common ? old_n - common : fresh.size() - common);
  lp.rows.erase(lp.rows.begin() + begin, lp.rows.begin() + end);
  lp.rows.insert(lp.rows.begin() + begin, std::make_move_iterator(fresh.begin()),
                 std::make_move_iterator(fresh.end()));
  return changed;
}


}  // namespace

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
  IpetProgram prog;
  LinearProgram& lp = prog.lp;
  // One variable per edge; objective: entering an edge pays its target's
  // per-execution cost plus any loop first-miss charge on the edge itself.
  for (const InlinedEdge& e : g.edges()) {
    double coeff = static_cast<double>(costs.edge_extras[e.id]);
    if (e.to != kNoNode) {
      coeff += static_cast<double>(costs.node_costs[e.to]);
    }
    lp.AddVar(coeff);
  }

  const auto append = [&lp](std::vector<Row> rows) {
    for (Row& row : rows) {
      lp.AddRow(std::move(row));
    }
    return static_cast<std::uint32_t>(lp.rows.size());
  };
  prog.flow_end = append(BuildFlowRows(g));
  prog.loops_end = append(BuildLoopRows(g));
  prog.pathend_end = append(BuildPathEndRows(g));
  prog.preempt_end = append(BuildPreemptRows(g, options));
  prog.exec_end = append(BuildExecRows(g));
  append(BuildManualRows(g, constraints));
  return prog;
}

void PatchIpetObjective(const InlinedGraph& g, const CostResult& costs, IpetProgram& prog) {
  for (const InlinedEdge& e : g.edges()) {
    double coeff = static_cast<double>(costs.edge_extras[e.id]);
    if (e.to != kNoNode) {
      coeff += static_cast<double>(costs.node_costs[e.to]);
    }
    prog.lp.objective[e.id] = coeff;
  }
}

std::size_t PatchIpetLoopRows(const InlinedGraph& g, IpetProgram& prog, IlpWarmStart* warm) {
  std::vector<Row> fresh = BuildLoopRows(g);
  const std::int64_t shift =
      static_cast<std::int64_t>(fresh.size()) - (prog.loops_end - prog.flow_end);
  RebaseWarmAcrossSplice(prog.lp, prog.flow_end, prog.loops_end, fresh, warm);
  const std::size_t changed = SpliceRows(prog.lp, prog.flow_end, prog.loops_end, std::move(fresh));
  prog.loops_end = static_cast<std::uint32_t>(prog.loops_end + shift);
  prog.pathend_end = static_cast<std::uint32_t>(prog.pathend_end + shift);
  prog.preempt_end = static_cast<std::uint32_t>(prog.preempt_end + shift);
  prog.exec_end = static_cast<std::uint32_t>(prog.exec_end + shift);
  return changed;
}

std::size_t PatchIpetExtraRows(const InlinedGraph& g, const IpetOptions& options,
                               IpetProgram& prog, IlpWarmStart* warm) {
  std::vector<Row> fresh_exec = BuildExecRows(g);
  const std::int64_t exec_shift =
      static_cast<std::int64_t>(fresh_exec.size()) - (prog.exec_end - prog.preempt_end);
  RebaseWarmAcrossSplice(prog.lp, prog.preempt_end, prog.exec_end, fresh_exec, warm);
  std::size_t changed =
      SpliceRows(prog.lp, prog.preempt_end, prog.exec_end, std::move(fresh_exec));

  std::vector<Row> fresh_preempt = BuildPreemptRows(g, options);
  const std::int64_t pre_shift =
      static_cast<std::int64_t>(fresh_preempt.size()) - (prog.preempt_end - prog.pathend_end);
  RebaseWarmAcrossSplice(prog.lp, prog.pathend_end, prog.preempt_end, fresh_preempt, warm);
  changed += SpliceRows(prog.lp, prog.pathend_end, prog.preempt_end, std::move(fresh_preempt));

  prog.preempt_end = static_cast<std::uint32_t>(prog.preempt_end + pre_shift);
  prog.exec_end = static_cast<std::uint32_t>(prog.exec_end + pre_shift + exec_shift);
  return changed;
}

IpetResult SolveIpetProgram(const InlinedGraph& g, const IpetProgram& prog) {
  return ExtractIpetResult(g, SolveIlp(prog.lp));
}

IpetResult SolveIpetProgramWarm(const InlinedGraph& g, const IpetProgram& prog,
                                IlpWarmStart& warm) {
  return ExtractIpetResult(g, SolveIlpWarm(prog.lp, warm));
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
  // entry node to the (unique) sink edge.
  std::vector<std::uint32_t> remaining = result.edge_counts;
  std::vector<std::size_t> next_out(g.nodes().size(), 0);

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

  Trace t;
  for (NodeId n : walk) {
    t.blocks.push_back(g.nodes()[n].block);
  }
  // Leftover edge counts indicate a disconnected solution (shouldn't happen
  // with flow conservation); tolerate but flag via trace emptiness.
  return t;
}

}  // namespace pmk
