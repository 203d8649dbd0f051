// Tests for the WCET pipeline stages: virtual inlining (CFG), automatic loop
// bounds (Section 5.3), the conservative cost model (Section 5.1) and IPET
// (Section 5.2) — on the real kernel images.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/kernel/objects.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

std::uint32_t LoopBoundFor(const InlinedGraph& g, BlockId head_block) {
  for (const InlinedLoop& l : g.loops()) {
    if (g.nodes()[l.head].block == head_block) {
      return l.bound;
    }
  }
  return 0;
}

TEST(InlineTest, CalleesAreClonedPerCallSite) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  // decode_cap is called from several contexts (handlers, transfer, mint);
  // count its entry-block clones.
  std::size_t decode_clones = 0;
  for (const InlinedNode& n : g.nodes()) {
    if (n.block == img->b.dec.entry) {
      decode_clones++;
    }
  }
  EXPECT_GE(decode_clones, 5u);
}

TEST(InlineTest, EveryNodeHasFlowPathConsistency) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  // Non-entry nodes have in-edges; non-return/path-end nodes have out-edges.
  for (const InlinedNode& n : g.nodes()) {
    if (n.id != g.entry_node()) {
      EXPECT_FALSE(n.in.empty()) << g.BlockOf(n.id).name;
    }
  }
  // Quasi-topological order covers all nodes (reducibility).
  EXPECT_EQ(g.QuasiTopoOrder().size(), g.nodes().size());
}

TEST(InlineTest, SinkEdgesOnlyAtPathEnds) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  for (EdgeId eid : g.sink_edges()) {
    const InlinedEdge& e = g.edges()[eid];
    EXPECT_TRUE(g.BlockOf(e.from).is_path_end);
  }
  EXPECT_GE(g.sink_edges().size(), 2u);  // exit + preempted
}

TEST(LoopBoundTest, DecodeLoopBoundIs32) {
  // Figure 7 / Section 5.3: the cap-decode loop is bounded by the 32 address
  // bits, derived automatically from the register slice.
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.fault.fn);  // fault path has one decode
  const auto res = ComputeLoopBounds(g);
  EXPECT_EQ(LoopBoundFor(g, img->b.dec.loop), 32u);
  bool found_auto = false;
  for (const auto& r : res) {
    if (r.source == LoopBoundResult::Source::kComputed) {
      found_auto = true;
    }
  }
  EXPECT_TRUE(found_auto);
}

TEST(LoopBoundTest, MessageLoopBoundedByMaxWords) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  ComputeLoopBounds(g);
  EXPECT_EQ(LoopBoundFor(g, img->b.xfer.loop), KernelConfig::kMaxMsgWords);
}

TEST(LoopBoundTest, CapTransferLoopBoundedByMaxExtraCaps) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  ComputeLoopBounds(g);
  EXPECT_EQ(LoopBoundFor(g, img->b.xfer.cap_one), KernelConfig::kMaxExtraCaps);
}

TEST(LoopBoundTest, SchedulerScanBoundedByPriorities) {
  KernelConfig kc = KernelConfig::After();
  kc.scheduler_bitmap = false;
  const auto img = BuildKernelImage(kc);
  InlinedGraph g(img->prog, img->b.irq.fn);
  ComputeLoopBounds(g);
  EXPECT_EQ(LoopBoundFor(g, img->b.choose.bn_loop), KernelConfig::kNumPriorities);
}

TEST(LoopBoundTest, AsidScanBoundedByPoolSize) {
  KernelConfig kc = KernelConfig::Before();
  const auto img = BuildKernelImage(kc);
  InlinedGraph g(img->prog, img->b.sys.fn);
  ComputeLoopBounds(g);
  EXPECT_EQ(LoopBoundFor(g, img->b.asid_alloc.loop), AsidPoolObj::kEntries);
  EXPECT_EQ(LoopBoundFor(g, img->b.pool_del.loop), AsidPoolObj::kEntries);
}

TEST(LoopBoundTest, RetypeClearLoopBoundedByChunks) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  ComputeLoopBounds(g);
  const std::uint32_t max_chunks =
      (1u << KernelConfig::kMaxObjectBits) / KernelConfig::After().clear_chunk_bytes;
  // The `more` head executes chunks+1 times per entry.
  EXPECT_EQ(LoopBoundFor(g, img->b.retype.more), max_chunks + 1);
}

TEST(CostModelTest, MustAnalysisMakesRepeatsCheap) {
  // Two consecutive straight-line nodes in one cache line: the second fetch
  // is a guaranteed hit — spot-check on the real image (sys.save is large).
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.irq.fn);
  ComputeLoopBounds(g);
  CostModelOptions opts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), opts));
  // Every reachable node has nonzero cost; entry has cold-cache misses.
  Cycles entry_cost = 0;
  for (const InlinedNode& n : g.nodes()) {
    if (n.id == g.entry_node()) {
      entry_cost = costs.node_costs[n.id];
    }
  }
  const Block& save = img->prog.block(img->b.irq.save);
  EXPECT_GT(entry_cost, save.instr_count);  // includes miss penalties
}

TEST(CostModelTest, L2RaisesMissPenalty) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.irq.fn);
  ComputeLoopBounds(g);
  CostModelOptions off;
  CostModelOptions on;
  on.machine.l2_enabled = true;
  const CostResult c_off = ComputeNodeCosts(g, CostModelCache(g.program(), off));
  const CostResult c_on = ComputeNodeCosts(g, CostModelCache(g.program(), on));
  Cycles total_off = 0;
  Cycles total_on = 0;
  for (std::size_t i = 0; i < c_off.node_costs.size(); ++i) {
    total_off += c_off.node_costs[i];
    total_on += c_on.node_costs[i];
  }
  EXPECT_GT(total_on, total_off);
}

TEST(CostModelTest, DefaultMachineChargesTheArm1136Constants) {
  // Every golden rests on these: the analyzed machine is MachineConfig{}.
  const auto img = BuildKernelImage(KernelConfig::After());
  for (const bool l2 : {false, true}) {
    AnalysisOptions ao;
    ao.l2_enabled = l2;
    const CostModelOptions c = BuildCostModelOptions(*img, ao);
    EXPECT_EQ(c.MissPenalty(), l2 ? 96u : 60u);
    EXPECT_EQ(c.machine.memory.load_use_stall, 2u);
    EXPECT_EQ(c.BranchCost(), 5u);
    EXPECT_EQ(c.LineBytes(), 32u);
    EXPECT_EQ(c.LineBytes() * c.NumSets(), 4096u);  // one 4 KiB way
  }
}

TEST(CostModelTest, RefusesMachinesTheOneWayMustCacheCannotModel) {
  const auto img = BuildKernelImage(KernelConfig::After());
  CostModelOptions lines;
  lines.machine.l1d.line_bytes = 64;
  EXPECT_THROW(CostModelCache(img->prog, lines), std::invalid_argument);
  CostModelOptions ways;
  ways.machine.l1d.ways = 2;  // 8 KiB ways against the L1I's 4 KiB
  EXPECT_THROW(CostModelCache(img->prog, ways), std::invalid_argument);
  CostModelOptions l2;
  l2.machine.l2.line_bytes = 16;
  l2.pinned_l2lines.insert(Program::kTextBase);
  EXPECT_THROW(CostModelCache(img->prog, l2), std::invalid_argument);
  // One L1 way cannot be locked and still allocate.
  CacheConfig direct_mapped = MachineConfig{}.l1i;
  direct_mapped.ways = 1;
  direct_mapped.size_bytes = 4096;
  EXPECT_THROW(SelectPinnedLines(*img, PinTarget::kL1I, direct_mapped, kL1PinnedWays),
               std::invalid_argument);
}

TEST(CostModelTest, RefusesProgramsPastTheLineIdRange) {
  // One block touching |lines| data lines a 4 KiB way apart: all in one set,
  // so each needs its own id there.
  const auto sweep = [](std::uint32_t lines) {
    auto prog = std::make_unique<Program>();
    const FuncId fn = prog->AddFunction("sweep");
    const SymId table = prog->AddSymbol("table", lines * 4096);
    Block b;
    b.name = "sweep";
    b.is_return = true;
    b.is_path_end = true;
    for (std::uint32_t k = 0; k < lines; ++k) {
      StaticAccess a;
      a.region = StaticAccess::Region::kGlobal;
      a.symbol = table;
      a.offset = k * 4096;
      b.static_accesses.push_back(a);
    }
    prog->AddBlock(fn, b);
    prog->Layout();
    return prog;
  };
  const auto full = sweep(CostModelCache::kMaxLineId);
  EXPECT_NO_THROW(CostModelCache(*full, CostModelOptions{}).worst_case(0));
  const auto past = sweep(CostModelCache::kMaxLineId + 1);
  EXPECT_THROW(CostModelCache(*past, CostModelOptions{}), std::invalid_argument);
  // Locked lines are never pooled, so they need no id.
  CostModelOptions one_locked;
  one_locked.pinned_dlines.insert(past->symbol(0).address);
  EXPECT_NO_THROW(CostModelCache(*past, one_locked).worst_case(0));
}

TEST(CostModelTest, PinnedLinesCostNothing) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.irq.fn);
  ComputeLoopBounds(g);
  const CostResult base = ComputeNodeCosts(g, CostModelCache(g.program(), CostModelOptions{}));
  AnalysisOptions pin;
  pin.cache_pinning = true;
  const CostResult pinned =
      ComputeNodeCosts(g, CostModelCache(g.program(), BuildCostModelOptions(*img, pin)));
  Cycles tb = 0;
  Cycles tp = 0;
  for (std::size_t i = 0; i < base.node_costs.size(); ++i) {
    tb += base.node_costs[i];
    tp += pinned.node_costs[i];
  }
  EXPECT_LT(tp, tb);
}

TEST(IpetTest, WorstTraceIsConsistentWithWcet) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.irq.fn);
  ComputeLoopBounds(g);
  CostModelOptions copts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), copts));
  IpetOptions iopts;
  const IpetResult r = RunIpet(g, costs, iopts, {});
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  const Trace trace = ExtractWorstTrace(g, r);
  ASSERT_FALSE(trace.blocks.empty());
  EXPECT_EQ(trace.blocks.front(), img->b.irq.save);
  // Evaluating the extracted worst path under the same model cannot exceed
  // the ILP bound (it replays one feasible flow).
  EXPECT_LE(EvaluateTraceCost(CostModelCache(img->prog, copts), trace), r.wcet);
}

TEST(IpetTest, LatencyModeCutsPreemptibleLoops) {
  // With an interrupt pending (latency mode), a preemptible loop contributes
  // at most one chunk; in functional mode it contributes all of them.
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  ComputeLoopBounds(g);
  CostModelOptions copts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), copts));
  IpetOptions latency;
  latency.irq_pending = true;
  IpetOptions functional;
  functional.irq_pending = false;
  const IpetResult lr = RunIpet(g, costs, latency, {});
  const IpetResult fr = RunIpet(g, costs, functional, {});
  ASSERT_EQ(lr.status, SolveStatus::kOptimal);
  ASSERT_EQ(fr.status, SolveStatus::kOptimal);
  EXPECT_LT(lr.wcet * 10, fr.wcet)
      << "functional-mode WCET should dwarf the latency bound (full clears)";
}

TEST(IpetTest, ManualConsistentConstraintTightensBound) {
  // The paper's "a is consistent with b in f" workflow (Sections 5.2, 6):
  // force the fastpath-eligibility check to agree with the fastpath bailing,
  // i.e. forbid paths that both run the fastpath AND the full slowpath.
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  ComputeLoopBounds(g);
  CostModelOptions copts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), copts));
  IpetOptions iopts;
  const IpetResult base = RunIpet(g, costs, iopts, {});
  ASSERT_EQ(base.status, SolveStatus::kOptimal);

  std::vector<ManualConstraint> cons;
  ManualConstraint mc;
  mc.kind = ManualConstraint::Kind::kConflict;
  mc.a = img->b.fast.do_it;  // completing fastpath conflicts with
  mc.b = img->b.sys.do_call;  // ... dispatching the slow Call
  cons.push_back(mc);
  const IpetResult tightened = RunIpet(g, costs, iopts, cons);
  ASSERT_EQ(tightened.status, SolveStatus::kOptimal);
  EXPECT_LE(tightened.wcet, base.wcet);
}

TEST(IpetTest, ExecutesNConstraintCapsBlock) {
  const auto img = BuildKernelImage(KernelConfig::After());
  InlinedGraph g(img->prog, img->b.sys.fn);
  ComputeLoopBounds(g);
  CostModelOptions copts;
  const CostResult costs = ComputeNodeCosts(g, CostModelCache(g.program(), copts));
  IpetOptions iopts;
  std::vector<ManualConstraint> cons;
  ManualConstraint mc;
  mc.kind = ManualConstraint::Kind::kExecutes;
  mc.a = img->b.dec.loop;
  mc.n = 8;  // pretend cspaces are at most 8 levels deep
  cons.push_back(mc);
  const IpetResult base = RunIpet(g, costs, iopts, {});
  const IpetResult capped = RunIpet(g, costs, iopts, cons);
  ASSERT_EQ(capped.status, SolveStatus::kOptimal);
  EXPECT_LT(capped.wcet, base.wcet);
}

TEST(AnalyzerTest, AllFourEntryPointsSolve) {
  for (const bool after : {false, true}) {
    const auto img =
        BuildKernelImage(after ? KernelConfig::After() : KernelConfig::Before());
    WcetAnalyzer an(*img, AnalysisOptions{});
    for (const EntryPoint e : kEntryPoints) {
      const EntryResult r = an.Analyze(e);
      EXPECT_EQ(r.status, SolveStatus::kOptimal) << EntryPointName(e);
      EXPECT_GT(r.wcet, 0u);
    }
  }
}

TEST(AnalyzerTest, BeforeKernelOrdersOfMagnitudeWorse) {
  const auto before = BuildKernelImage(KernelConfig::Before());
  const auto after = BuildKernelImage(KernelConfig::After());
  WcetAnalyzer ab(*before, AnalysisOptions{});
  WcetAnalyzer aa(*after, AnalysisOptions{});
  const Cycles wb = ab.Analyze(EntryPoint::kSyscall).wcet;
  const Cycles wa = aa.Analyze(EntryPoint::kSyscall).wcet;
  EXPECT_GT(wb, wa * 8) << "the paper reports a factor ~11.6 improvement";
  EXPECT_GT(ab.Analyze(EntryPoint::kInterrupt).wcet, aa.Analyze(EntryPoint::kInterrupt).wcet);
}

TEST(AnalyzerTest, PinningImprovesInterruptPathMost) {
  const auto img = BuildKernelImage(KernelConfig::After());
  AnalysisOptions plain;
  AnalysisOptions pinned;
  pinned.cache_pinning = true;
  WcetAnalyzer ap(*img, plain);
  WcetAnalyzer aq(*img, pinned);
  double best_gain = 0;
  EntryPoint best = EntryPoint::kSyscall;
  for (const EntryPoint e : kEntryPoints) {
    const Cycles w0 = ap.Analyze(e).wcet;
    const Cycles w1 = aq.Analyze(e).wcet;
    EXPECT_LE(w1, w0) << EntryPointName(e);
    const double gain = 1.0 - static_cast<double>(w1) / static_cast<double>(w0);
    if (gain > best_gain) {
      best_gain = gain;
      best = e;
    }
  }
  EXPECT_EQ(best, EntryPoint::kInterrupt);  // Table 1's 46% row
  EXPECT_GT(best_gain, 0.3);
}

TEST(AnalyzerTest, L2RaisesComputedBounds) {
  const auto img = BuildKernelImage(KernelConfig::After());
  AnalysisOptions off;
  AnalysisOptions on;
  on.l2_enabled = true;
  WcetAnalyzer a0(*img, off);
  WcetAnalyzer a1(*img, on);
  for (const auto e : {EntryPoint::kSyscall, EntryPoint::kInterrupt}) {
    EXPECT_GT(a1.Analyze(e).wcet, a0.Analyze(e).wcet) << EntryPointName(e);
  }
}

TEST(AnalyzerTest, InterruptResponseBoundIsSumOfWorstPaths) {
  const auto img = BuildKernelImage(KernelConfig::After());
  WcetAnalyzer an(*img, AnalysisOptions{});
  const Cycles bound = an.InterruptResponseBound();
  const Cycles sys = an.Analyze(EntryPoint::kSyscall).wcet;
  const Cycles irq = an.Analyze(EntryPoint::kInterrupt).wcet;
  EXPECT_EQ(bound, sys + irq);
}

TEST(AnalyzerTest, MostLoopsBoundedAutomatically) {
  // Section 5.3: the majority of loop bounds come from the automatic
  // slice-and-search analysis, not annotations.
  const auto img = BuildKernelImage(KernelConfig::After());
  WcetAnalyzer an(*img, AnalysisOptions{});
  const EntryResult r = an.Analyze(EntryPoint::kSyscall);
  EXPECT_GT(r.loops_bounded_auto, 10u);
  EXPECT_LE(r.loops_bounded_annot, 2u);
}

}  // namespace
}  // namespace pmk
