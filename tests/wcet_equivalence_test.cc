// Production-vs-oracle equivalence for the whole WCET pipeline.
//
// WcetAnalyzer (sparse revised-simplex ILP, closed-form loop bounds, shared
// block cost cache, digest-keyed stage caches) must be bit-identical to
// WcetOracle (tests/wcet_oracle.h: dense tableau, simulated loop bounds,
// per-visit access collection, re-derivation on every call) on every public
// query — Analyze, EvaluateTrace, InterruptResponseBound, PerBlockBounds —
// across both kernel generations, all cache configurations and all four
// entry points. Also checks the caches themselves: repeated and concurrent
// Analyze calls return the exact same result, and a cache that misses an
// edit fails the comparison.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/engine/job_pool.h"
#include "src/kernel/image.h"
#include "src/obs/metrics.h"
#include "src/wcet/analysis.h"
#include "tests/wcet_oracle.h"

namespace pmk {
namespace {

std::string Label(const AnalysisOptions& opts) {
  return "l2=" + std::to_string(opts.l2_enabled) + " pin=" + std::to_string(opts.cache_pinning) +
         " l2pin=" + std::to_string(opts.l2_kernel_pinning);
}

std::vector<AnalysisOptions> ConfigMatrix() {
  std::vector<AnalysisOptions> configs(4);
  configs[1].cache_pinning = true;
  configs[2].l2_enabled = true;
  configs[3].l2_enabled = true;
  configs[3].l2_kernel_pinning = true;
  return configs;
}

TEST(WcetEquivalenceTest, AnalyzeMatchesReferenceEverywhere) {
  for (const bool after : {false, true}) {
    const auto img = BuildKernelImage(after ? KernelConfig::After() : KernelConfig::Before());
    for (const AnalysisOptions& opts : ConfigMatrix()) {
      SCOPED_TRACE(std::string(after ? "after " : "before ") + Label(opts));
      EXPECT_EQ(DiffFromOracle(WcetAnalyzer(*img, opts), WcetOracle(*img, opts)), "");
    }
  }
}

TEST(WcetEquivalenceTest, DerivedQueriesMatchReference) {
  const auto img = BuildKernelImage(KernelConfig::After());
  for (const AnalysisOptions& opts : ConfigMatrix()) {
    SCOPED_TRACE(Label(opts));
    const WcetOracle oracle(*img, opts);
    const WcetAnalyzer an(*img, opts);
    // Forced-path evaluation of every entry's real worst-case trace.
    for (const EntryPoint e : kEntryPoints) {
      const Trace worst = an.Analyze(e).worst_trace;
      ASSERT_FALSE(worst.blocks.empty());
      EXPECT_EQ(oracle.EvaluateTrace(worst), an.EvaluateTrace(worst)) << EntryPointName(e);
    }
    EXPECT_EQ(oracle.InterruptResponseBound(), an.InterruptResponseBound());
    EXPECT_EQ(oracle.PerBlockBounds(), an.PerBlockBounds());
  }
}

TEST(WcetEquivalenceTest, MemoizedAnalyzeIsStable) {
  const auto img = BuildKernelImage(KernelConfig::After());
  const WcetAnalyzer an(*img, AnalysisOptions{});
  const auto hits = [] {
    return obs::MetricsRegistry::Get().Snapshot().CounterValue("wcet.memo.hit");
  };
  const EntryResult first = an.Analyze(EntryPoint::kSyscall);
  const std::uint64_t before = hits();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(DiffEntryResults(first, an.Analyze(EntryPoint::kSyscall)), "");
  }
  EXPECT_EQ(hits() - before, 3u);
}

TEST(WcetEquivalenceTest, ConcurrentAnalyzeIsConsistent) {
  // One analyzer driven from parallel workers: the per-entry locks must hand
  // every thread the same result, including when several threads race to
  // derive an entry for the first time.
  const auto img = BuildKernelImage(KernelConfig::After());
  const WcetAnalyzer an(*img, AnalysisOptions{});
  const auto results = engine::ParallelMap<EntryResult>(
      8, 4, [&](std::size_t i) { return an.Analyze(kEntryPoints[i % kEntryPoints.size()]); });
  for (std::size_t i = 4; i < results.size(); ++i) {
    EXPECT_EQ(DiffEntryResults(results[i - 4], results[i]), "");
  }
}

// The kernels' loops never need a second sweep of the must-cache fixpoint,
// so this synthetic loop does. The entry leaves data line L resident, the
// loop head hits it on the first visit, and the body evicts it (a line one
// way-size away, same set), so only re-visiting the head after the back edge
// finds the miss. Production's worklist must reach the oracle's whole-graph
// fixpoint.
TEST(WcetEquivalenceTest, CostFixpointRevisitsLoopHeads) {
  Program prog;
  const FuncId fn = prog.AddFunction("synth");
  const SymId sym = prog.AddSymbol("buf", 4096 + 64);
  const auto block = [&](const char* name, std::uint32_t offset) {
    Block b;
    b.name = name;
    b.instr_count = 4;
    StaticAccess a;
    a.region = StaticAccess::Region::kGlobal;
    a.symbol = sym;
    a.offset = offset;
    b.static_accesses.push_back(a);
    return prog.AddBlock(fn, b);
  };
  const BlockId entry = block("entry", 0);
  const BlockId head = block("head", 0);
  const BlockId body = block("body", 4096);
  Block exit_block;
  exit_block.name = "exit";
  exit_block.instr_count = 2;
  exit_block.is_return = true;
  exit_block.is_path_end = true;
  const BlockId exit = prog.AddBlock(fn, exit_block);
  prog.AddEdge(entry, head);
  prog.AddEdge(head, exit);
  prog.AddEdge(head, body);
  prog.AddEdge(body, head);
  prog.Layout();

  InlinedGraph g(prog, fn);
  ComputeLoopBounds(g);
  const CostModelOptions opts;
  const CostResult want = oracle::ComputeNodeCosts(g, opts);
  const CostResult got = ComputeNodeCosts(g, CostModelCache(prog, opts));
  EXPECT_EQ(want.node_costs, got.node_costs);
  EXPECT_EQ(want.edge_extras, got.edge_extras);
  // The head pays the evicted line's miss on every execution.
  for (NodeId n = 0; n < g.nodes().size(); ++n) {
    if (g.nodes()[n].block == head) {
      EXPECT_GE(got.node_costs[n], opts.MissPenalty());
    }
  }
}

BlockId FindBlock(const Program& prog, const std::string& name) {
  for (BlockId id = 0; id < prog.num_blocks(); ++id) {
    if (prog.block(id).name == name) {
      return id;
    }
  }
  ADD_FAILURE() << "no block " << name;
  return kNoBlock;
}

// The oracle catches a stale cache. Editing a resident analyzer's image
// without NotifyBlockEdited stands in for a stage digest that misses a field:
// the analyzer keeps answering from its caches, and the comparison with the
// oracle (which re-derives from the edited image) must fail until the
// analyzer is told.
TEST(WcetEquivalenceTest, OracleCatchesStaleCache) {
  const auto img = BuildKernelImage(KernelConfig::Before());
  Program& prog = img->prog;
  const AnalysisOptions opts;
  WcetAnalyzer an(*img, opts);
  const WcetOracle oracle(*img, opts);
  ASSERT_EQ(DiffFromOracle(an, oracle), "");  // every entry now cached

  const BlockId lz = FindBlock(prog, "choose.lz_deq");
  const std::uint32_t bound = prog.block(lz).absolute_exec_bound;
  ASSERT_GT(bound, 0u);
  prog.mutable_block(lz).absolute_exec_bound = bound + 1;
  EXPECT_NE(DiffFromOracle(an, oracle), "");
  an.NotifyBlockEdited(lz);
  EXPECT_EQ(DiffFromOracle(an, oracle), "");
}

}  // namespace
}  // namespace pmk
