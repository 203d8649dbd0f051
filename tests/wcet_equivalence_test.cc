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

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
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

// A seeded synthetic program in the shapes the cost stage must handle, well
// past the kernels' (at most 4 lines per set, merges of in-degree 19):
// nested loops, calls into functions with several returns, fans of up to 20
// branches merging into one block, and data accesses at way-size strides
// that put more than 256 lines in one set. The entry function's first block
// touches that set's first line between each pair of its other lines in
// stride order (0, 1, 0, 2, ..., 0, 319), so any later line that shared the
// first one's number would hit there; later blocks often touch a line and
// the one 256 strides on.
class RandomProgram {
 public:
  static constexpr std::uint32_t kWayBytes = 4096;  // one way of the default L1s
  static constexpr std::uint32_t kHotLines = 320;   // lines in the hot set
  static constexpr std::size_t kBlockBudget = 240;

  explicit RandomProgram(std::uint64_t seed) : rng_(seed) {
    entry = prog.AddFunction("entry");
    hot_ = prog.AddSymbol("hot", kHotLines * kWayBytes);
    data_ = prog.AddSymbol("data", 3 * kWayBytes);
    Block star = NewBlock("star");
    star.static_accesses.clear();
    for (std::uint32_t k = 1; k < kHotLines; ++k) {
      star.static_accesses.push_back(Global(hot_, 0));
      star.static_accesses.push_back(Global(hot_, k * kWayBytes));
    }
    const BlockId first = prog.AddBlock(entry, star);
    for (int i = 0; i < 3; ++i) {
      const FuncId f = prog.AddFunction("callee" + std::to_string(i));
      const Region body = Gen(f, 2);
      // One to three return blocks, reached through a fan.
      const std::uint32_t returns = 1 + Below(3);
      Fan(f, body.exit, returns, [&](BlockId parent) {
        Block ret = NewBlock("ret");
        ret.is_return = true;
        prog.AddEdge(parent, prog.AddBlock(f, ret));
      });
      callees_.push_back(f);
    }
    BlockId last = first;
    while (prog.num_blocks() < kBlockBudget) {
      const Region body = Gen(entry, 4);
      prog.AddEdge(last, body.entry);
      last = body.exit;
    }
    Block exit = NewBlock("exit");
    exit.is_return = true;
    exit.is_path_end = true;
    prog.AddEdge(last, prog.AddBlock(entry, exit));
    prog.Layout();
  }

  // The default machine with the L2 |l2|, a random tenth of the touched
  // lines locked into the L1s and, with the L2 on, an eighth into the L2.
  CostModelOptions Options(bool l2) {
    CostModelOptions opts;
    opts.machine.l2_enabled = l2;
    std::set<std::pair<Addr, bool>> lines;
    std::vector<LineAccess> acc;
    for (BlockId id = 0; id < prog.num_blocks(); ++id) {
      acc.clear();
      CollectAccesses(prog, prog.block(id), opts, acc);
      for (const LineAccess& a : acc) {
        lines.emplace(a.line, a.instruction);
      }
    }
    for (const auto& [line, instruction] : lines) {
      if (Below(10) == 0) {
        (instruction ? opts.pinned_ilines : opts.pinned_dlines).insert(line);
      }
      if (l2 && Below(8) == 0) {
        const Addr l2_line = opts.machine.l2.line_bytes;
        opts.pinned_l2lines.insert(line / l2_line * l2_line);
      }
    }
    return opts;
  }

  // A random walk over |g| from its entry to the sink, at most |cap| blocks.
  Trace Walk(const InlinedGraph& g, std::size_t cap) {
    Trace t;
    NodeId at = g.entry_node();
    while (at != kNoNode && t.blocks.size() < cap) {
      t.blocks.push_back(g.nodes()[at].block);
      const std::vector<EdgeId>& outs = g.nodes()[at].out;
      at = g.edges()[outs[Below(static_cast<std::uint32_t>(outs.size()))]].to;
    }
    return t;
  }

  Program prog;
  FuncId entry = kNoFunc;

 private:
  struct Region {
    BlockId entry = kNoBlock;
    BlockId exit = kNoBlock;  // no successors yet
  };

  std::uint32_t Below(std::uint32_t n) {
    return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng_);
  }

  static StaticAccess Global(SymId sym, std::uint32_t offset) {
    StaticAccess a;
    a.region = StaticAccess::Region::kGlobal;
    a.symbol = sym;
    a.offset = offset;
    return a;
  }

  Block NewBlock(const char* name) {
    Block b;
    b.name = name;
    b.instr_count = 1 + Below(20);
    b.raw_cycles = Below(3);
    b.max_dynamic_accesses = Below(4) == 0 ? 1 : 0;
    for (std::uint32_t i = Below(5); i > 0; --i) {
      // Half of the hot accesses pair a line with the one 256 strides on.
      last_hot_ = Below(2) == 0 ? (last_hot_ + 256) % kHotLines : Below(kHotLines);
      b.static_accesses.push_back(Global(hot_, last_hot_ * kWayBytes + 4 * Below(8)));
    }
    for (std::uint32_t i = Below(3); i > 0; --i) {
      b.static_accesses.push_back(Global(data_, 4 * Below(3 * kWayBytes / 4)));
    }
    if (Below(4) == 0) {
      StaticAccess stack;
      stack.offset = 4 * Below(8);
      b.static_accesses.push_back(stack);
    }
    return b;
  }

  BlockId Add(FuncId f, const char* name) { return prog.AddBlock(f, NewBlock(name)); }

  // A binary tree of branches below |parent| with |leaves| leaves; |leaf|
  // hangs each leaf off its parent.
  template <typename Leaf>
  void Fan(FuncId f, BlockId parent, std::uint32_t leaves, Leaf&& leaf) {
    if (leaves == 1) {
      leaf(parent);
      return;
    }
    const BlockId branch = Add(f, "branch");
    prog.AddEdge(parent, branch);
    const std::uint32_t left = leaves / 2;
    Fan(f, branch, left, leaf);
    Fan(f, branch, leaves - left, leaf);
  }

  // A single-entry, single-exit region of |f|; its entry is its first block.
  Region Gen(FuncId f, int depth) {
    const std::uint32_t kind = depth <= 0 || prog.num_blocks() > kBlockBudget ? 0
                               : depth == 1                                 ? Below(5)
                                                                            : 1 + Below(4);
    Region r;
    switch (kind) {
      case 0:
        r.entry = r.exit = Add(f, "plain");
        return r;
      case 1: {  // sequence
        r = Gen(f, depth - 1);
        for (std::uint32_t i = 1 + Below(2); i > 0; --i) {
          const Region next = Gen(f, depth - 1);
          prog.AddEdge(r.exit, next.entry);
          r.exit = next.exit;
        }
        return r;
      }
      case 2: {  // fan of up to 20 branches into one merge block
        r.entry = Add(f, "fan");
        std::vector<BlockId> exits;
        Fan(f, r.entry, 2 + Below(19), [&](BlockId parent) {
          const Region leaf = Below(3) == 0 ? Gen(f, depth - 2) : Gen(f, 0);
          prog.AddEdge(parent, leaf.entry);
          exits.push_back(leaf.exit);
        });
        r.exit = Add(f, "merge");
        for (const BlockId e : exits) {
          prog.AddEdge(e, r.exit);
        }
        return r;
      }
      case 3: {  // loop: head -> exit | body -> head
        r.entry = Add(f, "head");
        prog.mutable_block(r.entry).loop_bound_annotation = 1 + Below(4);
        const Region body = Gen(f, depth - 1);
        r.exit = Add(f, "after");
        prog.AddEdge(r.entry, r.exit);
        prog.AddEdge(r.entry, body.entry);
        prog.AddEdge(body.exit, r.entry);
        return r;
      }
      default: {  // call into a function already complete, if there is one
        r.entry = Add(f, "call");
        if (!callees_.empty()) {
          prog.mutable_block(r.entry).callee =
              callees_[Below(static_cast<std::uint32_t>(callees_.size()))];
        }
        r.exit = Add(f, "cont");
        prog.AddEdge(r.entry, r.exit);
        return r;
      }
    }
  }

  std::mt19937_64 rng_;
  SymId hot_ = 0;
  SymId data_ = 0;
  std::uint32_t last_hot_ = 0;
  std::vector<FuncId> callees_;
};

// Production's cost stage (line ids, flat states, worklist fixpoint) and its
// list-free worst-trace walk against the oracle's (line addresses, one heap
// state per node, whole-graph passes, the list walk) on random programs,
// with the L2 off and on and random lines locked.
TEST(WcetEquivalenceTest, RandomProgramsCostStageMatchesOracle) {
  std::size_t max_in_degree = 0;
  std::size_t nested_loops = 0;
  std::size_t calls = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomProgram rp(seed);
    InlinedGraph g(rp.prog, rp.entry);
    ComputeLoopBounds(g);
    for (const InlinedNode& n : g.nodes()) {
      max_in_degree = std::max(max_in_degree, n.in.size());
    }
    for (const InlinedLoop& outer : g.loops()) {
      for (const InlinedLoop& inner : g.loops()) {
        nested_loops += inner.head != outer.head &&
                        std::count(outer.body.begin(), outer.body.end(), inner.head) != 0;
      }
    }
    for (const InlinedEdge& e : g.edges()) {
      calls += e.kind == InlinedEdge::Kind::kCall;
    }
    for (const bool l2 : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + (l2 ? " L2 on" : " L2 off"));
      const CostModelOptions opts = rp.Options(l2);
      const CostModelCache cache(rp.prog, opts);
      const CostResult want = oracle::ComputeNodeCosts(g, opts);
      const CostResult got = ComputeNodeCosts(g, cache);
      EXPECT_EQ(want.node_costs, got.node_costs);
      EXPECT_EQ(want.edge_extras, got.edge_extras);

      const IpetResult ipet = RunIpet(g, got, IpetOptions{}, {});
      ASSERT_EQ(ipet.status, SolveStatus::kOptimal);
      const Trace worst = ExtractWorstTrace(g, ipet);
      ASSERT_FALSE(worst.blocks.empty());
      EXPECT_EQ(oracle::ExtractWorstTrace(g, ipet).blocks, worst.blocks);
      EXPECT_LE(EvaluateTraceCost(cache, worst), ipet.wcet);
      std::vector<Trace> traces = {worst};
      for (int i = 0; i < 4; ++i) {
        traces.push_back(rp.Walk(g, 3000));
      }
      for (const Trace& t : traces) {
        EXPECT_EQ(oracle::EvaluateTraceCost(rp.prog, opts, t), EvaluateTraceCost(cache, t));
      }
    }
  }
  // The shapes the programs are drawn for do occur.
  EXPECT_GE(max_in_degree, 15u);
  EXPECT_GT(nested_loops, 0u);
  EXPECT_GT(calls, 0u);
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
