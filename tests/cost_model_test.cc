// Unit tests for the conservative cost model and loop-bound analysis on
// hand-built synthetic programs where the exact expected numbers are known.

#include <gtest/gtest.h>

#include "src/wcet/cost.h"
#include "src/wcet/ipet.h"
#include "src/wcet/loopbound.h"

namespace pmk {
namespace {

// A synthetic program builder mirroring the shapes the analysis must handle.
struct Synth {
  Program prog;
  FuncId fn = kNoFunc;

  explicit Synth(const char* name = "synth") { fn = prog.AddFunction(name); }

  BlockId B(const char* name, std::uint32_t instr, bool ret = false) {
    Block b;
    b.name = name;
    b.instr_count = instr;
    b.is_return = ret;
    return prog.AddBlock(fn, b);
  }
};

TEST(CostModelSynthTest, StraightLineCostIsExact) {
  // One block: 8 instructions (one 32 B line), no data, return branch.
  Synth s2;
  const BlockId b2 = s2.B("only", 8, true);
  s2.prog.mutable_block(b2).is_path_end = true;
  s2.prog.Layout();
  InlinedGraph g2(s2.prog, s2.fn);
  ComputeLoopBounds(g2);
  CostModelOptions opts;
  const CostResult costs = ComputeNodeCosts(g2, CostModelCache(g2.program(), opts));
  // 8 instr + 1 cold I-line miss (60) + return branch (5).
  EXPECT_EQ(costs.node_costs[g2.entry_node()], 8u + 60u + 5u);
}

TEST(CostModelSynthTest, GraphRequiresAPathEnd) {
  Synth s;
  s.B("only", 8, /*ret=*/true);  // no is_path_end flag
  s.prog.Layout();
  EXPECT_THROW(InlinedGraph(s.prog, s.fn), std::logic_error);
}

TEST(CostModelSynthTest, SecondBlockInSameLineHits) {
  Synth s;
  const BlockId a = s.B("a", 2);
  const BlockId b = s.B("b", 2, true);
  s.prog.mutable_block(b).is_path_end = true;
  s.prog.AddEdge(a, b);
  s.prog.Layout();
  InlinedGraph g(s.prog, s.fn);
  ComputeLoopBounds(g);
  CostModelOptions opts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), opts));
  // Block a: 2 instr + one line miss. Block b: same line, must-hit: only
  // 2 instr + return branch.
  EXPECT_EQ(costs.node_costs[0], 2u + 60u);
  EXPECT_EQ(costs.node_costs[1], 2u + 5u);
}

// Loop fixture: entry(r0=N) -> loop(self; rdec; guard) -> exit(ret).
struct LoopSynth : Synth {
  BlockId entry;
  BlockId loop;
  BlockId exit;

  explicit LoopSynth(std::int64_t n, bool one_sided = false) {
    entry = B("entry", 4);
    prog.mutable_block(entry).reg_ops.push_back({RegOp::Kind::kConst, 0, 0, n});
    loop = B("loop", 64);  // 2 I-lines of body
    Block& lb = prog.mutable_block(loop);
    lb.reg_ops.push_back({RegOp::Kind::kAdd, 0, 0, -1});
    lb.cond.cmp = BranchCond::Cmp::kGe;
    lb.cond.lhs = 0;
    lb.cond.rhs_imm = 1;
    lb.cond.one_sided = one_sided;
    exit = B("exit", 2, true);
    prog.mutable_block(exit).is_path_end = true;
    prog.AddEdge(loop, exit);  // fall
    prog.AddEdge(loop, loop);  // taken
    prog.AddEdge(entry, loop);
    prog.Layout();
  }
};

TEST(LoopBoundSynthTest, CounterLoopBoundMatchesInit) {
  LoopSynth s(7);
  InlinedGraph g(s.prog, s.fn);
  const auto res = ComputeLoopBounds(g);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].bound, 7u);
  EXPECT_EQ(res[0].source, LoopBoundResult::Source::kComputed);
}

TEST(LoopBoundSynthTest, LoopInputRangeOverridesConst) {
  LoopSynth s(7);
  s.prog.mutable_block(s.loop).loop_inputs.push_back({0, 0, 100});
  InlinedGraph g(s.prog, s.fn);
  const auto res = ComputeLoopBounds(g);
  EXPECT_EQ(res[0].bound, 100u);  // maximized over the declared range
}

TEST(LoopBoundSynthTest, AnnotationFallbackWhenNoSemantics) {
  Synth s;
  const BlockId entry = s.B("entry", 4);
  const BlockId loop = s.B("loop", 4);
  const BlockId exit = s.B("exit", 2, true);
  s.prog.mutable_block(exit).is_path_end = true;
  s.prog.mutable_block(loop).loop_bound_annotation = 12;
  s.prog.AddEdge(entry, loop);
  s.prog.AddEdge(loop, exit);
  s.prog.AddEdge(loop, loop);
  s.prog.Layout();
  InlinedGraph g(s.prog, s.fn);
  const auto res = ComputeLoopBounds(g);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].bound, 12u);
  EXPECT_EQ(res[0].source, LoopBoundResult::Source::kAnnotation);
}

TEST(LoopBoundSynthTest, IpetUsesTheBound) {
  LoopSynth s(7);
  InlinedGraph g(s.prog, s.fn);
  ComputeLoopBounds(g);
  CostModelOptions copts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), copts));
  IpetOptions iopts;
  const IpetResult r = RunIpet(g, costs, iopts, {});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  // Loop head runs exactly 7 times on the worst (only) path.
  EXPECT_EQ(r.node_counts[1], 7u);
}

TEST(PersistenceSynthTest, LoopBodyLinesChargedOnce) {
  LoopSynth s(10);
  InlinedGraph g(s.prog, s.fn);
  ComputeLoopBounds(g);
  CostModelOptions copts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), copts));
  IpetOptions iopts;
  const IpetResult r = RunIpet(g, costs, iopts, {});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  // Body: 64 instr (256 B = up to 9 lines) + conditional branch each
  // iteration; its I-lines miss once (persistence: charged on the entry
  // edge), not per iteration.
  const Cycles per_iter = 64 + 5;
  EXPECT_LT(r.wcet, 4 + 60 + 10 * per_iter + 9 * 60 + 2 + 5 + 60);
  EXPECT_GE(r.wcet, 10 * per_iter);
  // Without persistence the body lines would cost ~8x60 every iteration.
  EXPECT_LT(r.wcet, 10 * (per_iter + 8 * 60) / 2);
}

TEST(PersistenceSynthTest, ConflictingLinesStayPerIteration) {
  // Two blocks in one loop whose lines collide in the direct-mapped model:
  // neither is persistent, so both miss every iteration.
  Synth s;
  const BlockId entry = s.B("entry", 4);
  s.prog.mutable_block(entry).reg_ops.push_back({RegOp::Kind::kConst, 0, 0, 8});
  const BlockId head = s.B("head", 4);
  {
    Block& hb = s.prog.mutable_block(head);
    hb.reg_ops.push_back({RegOp::Kind::kAdd, 0, 0, -1});
    hb.cond.cmp = BranchCond::Cmp::kGe;
    hb.cond.lhs = 0;
    hb.cond.rhs_imm = 1;
    // Conflicting global accesses: two symbols one way-size apart.
  }
  const BlockId exit = s.B("exit", 2, true);
  s.prog.mutable_block(exit).is_path_end = true;
  const SymId sym_a = s.prog.AddSymbol("a", 4096 + 64);
  {
    StaticAccess a;
    a.region = StaticAccess::Region::kGlobal;
    a.symbol = sym_a;
    a.offset = 0;
    s.prog.mutable_block(head).static_accesses.push_back(a);
    StaticAccess b;
    b.region = StaticAccess::Region::kGlobal;
    b.symbol = sym_a;
    b.offset = 4096;  // same set in a 4 KiB direct-mapped model
    s.prog.mutable_block(head).static_accesses.push_back(b);
  }
  s.prog.AddEdge(entry, head);
  s.prog.AddEdge(head, exit);
  s.prog.AddEdge(head, head);
  s.prog.Layout();

  InlinedGraph g(s.prog, s.fn);
  ComputeLoopBounds(g);
  CostModelOptions copts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), copts));
  // The head pays both conflicting data misses on every execution.
  EXPECT_GE(costs.node_costs[head], 4u + 2 * 60u);
}

TEST(TraceCostSynthTest, MatchesIpetOnTheOnlyPath) {
  LoopSynth s(5);
  InlinedGraph g(s.prog, s.fn);
  ComputeLoopBounds(g);
  CostModelOptions copts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), copts));
  IpetOptions iopts;
  const IpetResult r = RunIpet(g, costs, iopts, {});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  Trace t;
  t.blocks.push_back(s.entry);
  for (int i = 0; i < 5; ++i) {
    t.blocks.push_back(s.loop);
  }
  t.blocks.push_back(s.exit);
  EXPECT_EQ(EvaluateTraceCost(CostModelCache(s.prog, copts), t), r.wcet);
}

TEST(CostModelSynthTest, L2PinnedRegionCapsAtL2Latency) {
  Synth s;
  const BlockId b = s.B("only", 8, true);
  s.prog.mutable_block(b).is_path_end = true;
  s.prog.Layout();
  InlinedGraph g(s.prog, s.fn);
  ComputeLoopBounds(g);
  CostModelOptions opts;
  opts.machine.l2_enabled = true;
  opts.pinned_l2lines.insert(Program::kTextBase);  // the block's only line
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), opts));
  // 8 instr + one L2-hit miss (26) + return branch (5).
  EXPECT_EQ(costs.node_costs[g.entry_node()], 8u + 26u + 5u);
}

}  // namespace
}  // namespace pmk
