// Tests of the worst-case trace extraction: the ILP solution converted back
// to a concrete block sequence (paper Section 6's "converted the solution to
// a concrete execution trace"), and the structural feasibility checks one
// performs on it.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/wcet/analysis.h"
#include "tests/wcet_oracle.h"

namespace pmk {
namespace {

EntryResult AnalyzeSyscall(const KernelImage& img) {
  WcetAnalyzer an(img, AnalysisOptions{});
  EntryResult r = an.Analyze(EntryPoint::kSyscall);
  EXPECT_EQ(r.status, SolveStatus::kOptimal);
  return r;
}

TEST(WorstTraceTest, StartsAtEntryAndEndsAtAPathEnd) {
  const auto img = BuildKernelImage(KernelConfig::After());
  const EntryResult r = AnalyzeSyscall(*img);
  ASSERT_FALSE(r.worst_trace.blocks.empty());
  EXPECT_EQ(r.worst_trace.blocks.front(), img->b.sys.save);
  EXPECT_TRUE(img->prog.block(r.worst_trace.blocks.back()).is_path_end);
}

TEST(WorstTraceTest, RespectsDispatcherExclusivity) {
  // A feasible trace dispatches exactly one syscall operation.
  const auto img = BuildKernelImage(KernelConfig::After());
  const EntryResult r = AnalyzeSyscall(*img);
  std::size_t dispatched = 0;
  for (const BlockId b : r.worst_trace.blocks) {
    for (const BlockId d : {img->b.sys.do_call, img->b.sys.do_send, img->b.sys.do_recv,
                            img->b.sys.do_replyrecv, img->b.sys.do_yield}) {
      if (b == d) {
        dispatched++;
      }
    }
  }
  EXPECT_EQ(dispatched, 1u);
}

TEST(WorstTraceTest, ConsecutiveBlocksAreCfgNeighbours) {
  const auto img = BuildKernelImage(KernelConfig::After());
  const EntryResult r = AnalyzeSyscall(*img);
  const Program& p = img->prog;
  for (std::size_t i = 0; i + 1 < r.worst_trace.blocks.size(); ++i) {
    const Block& cur = p.block(r.worst_trace.blocks[i]);
    const BlockId next = r.worst_trace.blocks[i + 1];
    bool legal = false;
    for (const BlockId s : cur.succs) {
      legal |= s == next;
    }
    if (cur.callee != kNoFunc) {
      legal |= next == p.function(cur.callee).entry;
    }
    if (cur.is_return) {
      legal = true;  // return target depends on the (unrecorded) call stack
    }
    EXPECT_TRUE(legal) << cur.name << " -> " << p.block(next).name;
  }
}

TEST(WorstTraceTest, LatencyModeContainsNoPreemptionContinuation) {
  // With an interrupt pending, the worst path never passes a preemption
  // point's continue edge: a preemption-point block is followed by its
  // preempted exit (succs[1]), never by succs[0].
  const auto img = BuildKernelImage(KernelConfig::After());
  const EntryResult r = AnalyzeSyscall(*img);
  const Program& p = img->prog;
  for (std::size_t i = 0; i + 1 < r.worst_trace.blocks.size(); ++i) {
    const Block& cur = p.block(r.worst_trace.blocks[i]);
    if (cur.is_preemption_point) {
      EXPECT_EQ(r.worst_trace.blocks[i + 1], cur.succs[1]) << cur.name;
    }
  }
}

TEST(WorstTraceTest, WorstPathUsesTheDeepestDecode) {
  // The post-changes worst case is the IPC with worst-case cap decoding
  // (Section 6.1): the decode loop appears with its full 32-iteration count.
  const auto img = BuildKernelImage(KernelConfig::After());
  const EntryResult r = AnalyzeSyscall(*img);
  std::map<BlockId, std::size_t> counts;
  for (const BlockId b : r.worst_trace.blocks) {
    counts[b]++;
  }
  EXPECT_GE(counts[img->b.dec.loop], 32u);
  EXPECT_GE(counts[img->b.xfer.loop], KernelConfig::kMaxMsgWords);
}

TEST(WorstTraceTest, OversizedWorstPathIsElidedNotMaterialized) {
  // The atomic-shadow configuration's worst path has hundreds of millions of
  // block executions; extraction must decline rather than exhaust memory.
  KernelConfig kc = KernelConfig::After();
  kc.preemptible_clearing = false;
  kc.preemptible_deletion = false;
  kc.preemptible_badged_abort = false;
  const auto img = BuildKernelImage(kc);
  WcetAnalyzer an(*img, AnalysisOptions{});
  const EntryResult r = an.Analyze(EntryPoint::kSyscall);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_GT(r.wcet, 1'000'000'000u);
  EXPECT_TRUE(r.worst_trace.blocks.empty());
}

// e branches to a (then x) or to the loop h <-> body (then x). The hand-built
// solution takes e -> a -> x and also puts one count on the loop's cycle,
// which flow conservation allows but the path never reaches.
TEST(WorstTraceTest, DisconnectedSolutionGivesNoTrace) {
  Program prog;
  const FuncId fn = prog.AddFunction("f");
  const auto block = [&](const char* name, bool exit = false) {
    Block b;
    b.name = name;
    b.instr_count = 2;
    b.is_return = exit;
    b.is_path_end = exit;
    return prog.AddBlock(fn, b);
  };
  const BlockId e = block("e");
  const BlockId a = block("a");
  const BlockId h = block("h");
  const BlockId body = block("body");
  const BlockId x = block("x", true);
  prog.AddEdge(e, a);
  prog.AddEdge(e, h);
  prog.AddEdge(a, x);
  prog.AddEdge(h, x);
  prog.AddEdge(h, body);
  prog.AddEdge(body, h);
  prog.Layout();
  const InlinedGraph g(prog, fn);
  IpetResult r;
  r.status = SolveStatus::kOptimal;
  r.edge_counts.assign(g.edges().size(), 0);
  for (const InlinedEdge& edge : g.edges()) {
    const BlockId from = edge.from == kNoNode ? kNoBlock : g.nodes()[edge.from].block;
    const BlockId to = edge.to == kNoNode ? kNoBlock : g.nodes()[edge.to].block;
    const bool on_path = edge.kind == InlinedEdge::Kind::kSource ||
                         edge.kind == InlinedEdge::Kind::kSink || (from == e && to == a) ||
                         (from == a && to == x);
    r.edge_counts[edge.id] = on_path ? 1 : 0;
  }
  const std::vector<BlockId> path = {e, a, x};
  EXPECT_EQ(ExtractWorstTrace(g, r).blocks, path);
  EXPECT_EQ(oracle::ExtractWorstTrace(g, r).blocks, path);

  for (const InlinedEdge& edge : g.edges()) {
    if (edge.from != kNoNode && edge.to != kNoNode &&
        ((g.nodes()[edge.from].block == h && g.nodes()[edge.to].block == body) ||
         (g.nodes()[edge.from].block == body && g.nodes()[edge.to].block == h))) {
      r.edge_counts[edge.id] = 1;
    }
  }
  EXPECT_TRUE(ExtractWorstTrace(g, r).blocks.empty());
  EXPECT_TRUE(oracle::ExtractWorstTrace(g, r).blocks.empty());
}

TEST(WorstTraceTest, BeforeKernelWorstPathIsTheObjectClear) {
  // The pre-changes worst case is dominated by the non-preemptible clear
  // (Table 2's 3851 us), not by IPC.
  const auto img = BuildKernelImage(KernelConfig::Before());
  const EntryResult r = AnalyzeSyscall(*img);
  std::map<BlockId, std::size_t> counts;
  for (const BlockId b : r.worst_trace.blocks) {
    counts[b]++;
  }
  const std::uint32_t max_chunks =
      (1u << KernelConfig::kMaxObjectBits) / KernelConfig::Before().clear_chunk_bytes;
  EXPECT_EQ(counts[img->b.retype.clear_chunk], max_chunks);
}

}  // namespace
}  // namespace pmk
