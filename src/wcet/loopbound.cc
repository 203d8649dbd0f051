#include "src/wcet/loopbound.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <optional>

namespace pmk {

namespace {

constexpr std::uint32_t kMaxIterations = 1u << 22;  // bounded-search cap
constexpr std::uint32_t kMaxCycles = 512;           // enumerated cycle shapes
constexpr std::uint32_t kMaxCycleLen = 256;

// The guard register controlling a loop: taken from semantic conditions on
// blocks of the head's function instance within the body.
std::optional<std::uint8_t> FindGuardReg(const InlinedGraph& g, const InlinedLoop& loop) {
  const std::uint32_t inst = g.nodes()[loop.head].instance;
  for (NodeId n : loop.body) {
    if (g.nodes()[n].instance != inst) {
      continue;
    }
    const Block& b = g.BlockOf(n);
    if (b.cond.HasSemantics()) {
      return b.cond.lhs;
    }
  }
  return std::nullopt;
}

// Initial value of |reg| on loop entry: a LoopInput range on the head (take
// the max — all loop updates are decrements, checked below) or a kConst in
// the same instance outside the body.
std::optional<std::int64_t> FindInitValue(const InlinedGraph& g, const InlinedLoop& loop,
                                          std::uint8_t reg) {
  const Block& head = g.BlockOf(loop.head);
  for (const LoopInput& in : head.loop_inputs) {
    if (in.reg == reg) {
      return in.max;
    }
  }
  const std::uint32_t inst = g.nodes()[loop.head].instance;
  std::vector<std::uint8_t> body(g.nodes().size(), 0);
  for (const NodeId n : loop.body) {
    body[n] = 1;
  }
  std::optional<std::int64_t> best;
  for (NodeId n : g.InstanceNodes(inst)) {
    if (body[n] != 0) {
      continue;
    }
    for (const RegOp& op : g.BlockOf(n).reg_ops) {
      if (op.kind == RegOp::Kind::kConst && op.dst == reg) {
        best = best ? std::max(*best, op.imm) : op.imm;
      }
    }
  }
  return best;
}

// Enumerates simple cycles head -> ... -> head within the body. Membership
// tests use flat per-node bitmaps; the DFS edge order (and therefore the
// enumerated cycle list) is unchanged.
void EnumerateCycles(const InlinedGraph& g, const InlinedLoop& loop,
                     std::vector<std::vector<EdgeId>>& out) {
  std::vector<std::uint8_t> body(g.nodes().size(), 0);
  for (const NodeId n : loop.body) {
    body[n] = 1;
  }
  std::vector<EdgeId> path;
  std::vector<std::uint8_t> visited(g.nodes().size(), 0);

  struct Frame {
    NodeId node;
    std::size_t next_edge;
  };
  std::vector<Frame> stack;
  stack.push_back({loop.head, 0});

  while (!stack.empty() && out.size() < kMaxCycles) {
    Frame& f = stack.back();
    const auto& outs = g.nodes()[f.node].out;
    if (f.next_edge >= outs.size() || path.size() >= kMaxCycleLen) {
      if (stack.size() > 1) {
        visited[f.node] = 0;
        path.pop_back();
      }
      stack.pop_back();
      continue;
    }
    const EdgeId eid = outs[f.next_edge++];
    const InlinedEdge& e = g.edges()[eid];
    if (e.to == kNoNode || body[e.to] == 0) {
      continue;
    }
    if (e.to == loop.head) {
      path.push_back(eid);
      out.push_back(path);
      path.pop_back();
      continue;
    }
    if (visited[e.to] != 0) {
      continue;
    }
    visited[e.to] = 1;
    path.push_back(eid);
    stack.push_back({e.to, 0});
  }
}

// Whether traversing |eid| out of a semantically-conditional block is
// permitted when the guard condition evaluates to |cond_true|.
bool EdgeAllowed(const InlinedGraph& g, const Block& b, EdgeId eid, bool cond_true) {
  const InlinedEdge& e = g.edges()[eid];
  if (e.kind == InlinedEdge::Kind::kTaken) {
    return cond_true;  // both one- and two-sided: taken requires true
  }
  // Fall-through: one-sided guards may exit at any time; two-sided guards
  // fall through only when false.
  return b.cond.one_sided || !cond_true;
}

bool EvalCond(const BranchCond& c, std::int64_t v) {
  const std::int64_t rhs = c.rhs_imm;  // analysis tracks a single register
  switch (c.cmp) {
    case BranchCond::Cmp::kGe:
      return v >= rhs;
    case BranchCond::Cmp::kLt:
      return v < rhs;
    case BranchCond::Cmp::kEq:
      return v == rhs;
    case BranchCond::Cmp::kNe:
      return v != rhs;
    case BranchCond::Cmp::kNone:
      break;
  }
  return false;
}


// Closed form of SimulateCycle for the common shape: every tracked-reg
// update in the cycle is a constant add (no kConst reset, no kMovReg) and
// every guard compares the register against an immediate with kGe/kLt. The
// register at the start of iteration c is then init + (c-1)*D (D = net add
// per cycle), each guard's failure condition is a half-line in that linear
// value, and the first failing iteration is a division instead of a
// simulation that walks every iteration up to the real loop bound. Returns
// the first failing iteration (>= 1; above kMaxIterations when no guard ever
// fails, which SimulateCycle reports as unbounded), or 0 when the cycle is
// outside that shape and the caller must fall back to the simulation.
std::uint64_t ClosedFormFirstFailure(const InlinedGraph& g, const InlinedLoop& loop,
                                     std::uint8_t reg, std::int64_t init,
                                     const std::vector<EdgeId>& cycle) {
  constexpr std::uint64_t kNotClosedForm = 0;
  const std::uint32_t inst = g.nodes()[loop.head].instance;

  // Symbolically execute one iteration: accumulate the running add-delta and
  // collect each guard check as (prefix delta, failure half-line).
  struct Guard {
    std::int64_t prefix = 0;  // reg delta applied before this check
    std::int64_t rhs = 0;
    bool fail_below = false;  // true: fails when v < rhs; false: v >= rhs
  };
  std::vector<Guard> guards;
  std::int64_t delta = 0;
  NodeId cur = loop.head;
  for (const EdgeId eid : cycle) {
    const InlinedEdge& e = g.edges()[eid];
    if (e.from != cur) {
      return kNotClosedForm;  // malformed: let the simulation refuse it
    }
    const Block& b = g.BlockOf(e.from);
    if (g.nodes()[e.from].instance == inst) {
      for (const RegOp& op : b.reg_ops) {
        if (op.dst != reg) {
          continue;
        }
        if (op.kind != RegOp::Kind::kAdd) {
          return kNotClosedForm;  // kConst reset or untracked kMovReg
        }
        delta += op.imm;
      }
      if (b.cond.HasSemantics() && b.cond.lhs == reg && b.cond.rhs_is_imm) {
        const bool taken = e.kind == InlinedEdge::Kind::kTaken;
        if (!taken && b.cond.one_sided) {
          // One-sided fall-through never exits; no failure condition.
        } else {
          Guard gd;
          gd.prefix = delta;
          gd.rhs = b.cond.rhs_imm;
          switch (b.cond.cmp) {
            case BranchCond::Cmp::kGe:
              // cond true iff v >= rhs; taken fails when false (v < rhs),
              // two-sided fall-through fails when true (v >= rhs).
              gd.fail_below = taken;
              break;
            case BranchCond::Cmp::kLt:
              gd.fail_below = !taken;
              break;
            default:
              return kNotClosedForm;  // kEq/kNe: not monotone in v
          }
          guards.push_back(gd);
        }
      }
    }
    cur = e.to;
  }
  if (cur != loop.head) {
    return kNotClosedForm;
  }

  // First iteration c >= 1 at which any guard fails, where the guarded value
  // is u(c) = init + (c-1)*delta + prefix.
  std::uint64_t first_fail = std::numeric_limits<std::uint64_t>::max();
  for (const Guard& gd : guards) {
    const __int128 a = static_cast<__int128>(init) + gd.prefix;  // u(1)
    const __int128 t = gd.rhs;
    std::uint64_t c = std::numeric_limits<std::uint64_t>::max();  // never
    if (gd.fail_below ? a < t : a >= t) {
      c = 1;
    } else if (delta != 0) {
      if (gd.fail_below && delta < 0) {
        // a - (c-1)*(-delta) < t, first at c-1 = floor((a-t)/(-delta)) + 1.
        const __int128 d = -static_cast<__int128>(delta);
        c = static_cast<std::uint64_t>((a - t) / d) + 2;
      } else if (!gd.fail_below && delta > 0) {
        // a + (c-1)*delta >= t, first at c-1 = ceil((t-a)/delta).
        const __int128 d = delta;
        c = static_cast<std::uint64_t>((t - a + d - 1) / d) + 1;
      }
      // Moving away from the threshold: never fails.
    }
    first_fail = std::min(first_fail, c);
  }
  return first_fail;
}

}  // namespace

std::optional<std::uint32_t> SimulateCycle(const InlinedGraph& g, const InlinedLoop& loop,
                                           std::uint8_t reg, std::int64_t init,
                                           const std::vector<EdgeId>& cycle) {
  const std::uint32_t inst = g.nodes()[loop.head].instance;
  std::int64_t v = init;
  std::uint32_t count = 0;
  NodeId cur = loop.head;
  while (count < kMaxIterations) {
    count++;  // the head (and cycle) executes
    bool exited = false;
    for (EdgeId eid : cycle) {
      const InlinedEdge& e = g.edges()[eid];
      if (e.from != cur) {
        return std::nullopt;  // malformed cycle: refuse to bound
      }
      const Block& b = g.BlockOf(e.from);
      // Apply this block's register ops (same stack frame only).
      if (g.nodes()[e.from].instance == inst) {
        for (const RegOp& op : b.reg_ops) {
          if (op.dst != reg) {
            continue;
          }
          switch (op.kind) {
            case RegOp::Kind::kConst:
              v = op.imm;
              break;
            case RegOp::Kind::kAdd:
              v += op.imm;
              break;
            case RegOp::Kind::kMovReg:
              return std::nullopt;  // untracked source: give up
          }
        }
        if (b.cond.HasSemantics() && b.cond.lhs == reg && b.cond.rhs_is_imm) {
          if (!EdgeAllowed(g, b, eid, EvalCond(b.cond, v))) {
            exited = true;
            break;
          }
        }
      }
      cur = e.to;
    }
    if (exited) {
      return count;
    }
    assert(cur == loop.head);
  }
  return std::nullopt;
}

std::optional<std::uint32_t> CountCycle(const InlinedGraph& g, const InlinedLoop& loop,
                                        std::uint8_t reg, std::int64_t init,
                                        const std::vector<EdgeId>& cycle) {
  const std::uint64_t first_fail = ClosedFormFirstFailure(g, loop, reg, init, cycle);
  if (first_fail == 0) {
    return SimulateCycle(g, loop, reg, init, cycle);
  }
  if (first_fail > kMaxIterations) {
    return std::nullopt;  // the simulation's unbounded cap
  }
  return static_cast<std::uint32_t>(first_fail);
}

std::vector<LoopBoundResult> ComputeLoopBounds(InlinedGraph& graph, CycleCounter count) {
  std::vector<LoopBoundResult> results;
  results.reserve(graph.loops().size());
  for (InlinedLoop& loop : graph.mutable_loops()) {
    LoopBoundResult res;
    const Block& head = graph.BlockOf(loop.head);

    const auto reg = FindGuardReg(graph, loop);
    if (reg.has_value()) {
      const auto init = FindInitValue(graph, loop, *reg);
      if (init.has_value()) {
        std::vector<std::vector<EdgeId>> cycles;
        EnumerateCycles(graph, loop, cycles);
        std::optional<std::uint32_t> worst;
        bool all_ok = !cycles.empty();
        for (const auto& cyc : cycles) {
          const std::optional<std::uint32_t> n = count(graph, loop, *reg, *init, cyc);
          if (!n.has_value()) {
            all_ok = false;
            break;
          }
          worst = worst ? std::max(*worst, *n) : *n;
        }
        if (all_ok && worst.has_value()) {
          res.bound = *worst;
          res.source = LoopBoundResult::Source::kComputed;
        }
      }
    }
    if (res.bound == 0 && head.loop_bound_annotation != 0) {
      res.bound = head.loop_bound_annotation;
      res.source = LoopBoundResult::Source::kAnnotation;
    }
    if (res.bound == 0 && head.absolute_exec_bound != 0) {
      res.bound = head.absolute_exec_bound;
      res.source = LoopBoundResult::Source::kAbsolute;
    }
    loop.bound = res.bound;
    results.push_back(res);
  }
  return results;
}

}  // namespace pmk
