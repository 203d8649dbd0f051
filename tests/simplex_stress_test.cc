// Stress tests for the ILP solver: adversarial LP geometry (Klee-Minty,
// degenerate/cycling instances), infeasible and unbounded detection, and
// randomized network-flow instances asserting the sparse revised simplex and
// the oracle's dense tableau (tests/wcet_oracle.h) agree exactly on status,
// objective and solution vector. Branch-and-bound truncation (max_nodes) must
// also be deterministic and identical in both, since the analyzer-vs-oracle
// tests rely on bit-identical results from both solvers. On the kernel's own
// IPET programs the two must also walk the same pivot path: those programs
// have alternative optima, so the path decides which optimal x (and hence
// which worst-case trace) the analysis reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/image.h"
#include "src/obs/metrics.h"
#include "src/sim/rng.h"
#include "src/wcet/analysis.h"
#include "src/wcet/cfg.h"
#include "src/wcet/ilp.h"
#include "src/wcet/ipet.h"
#include "src/wcet/loopbound.h"
#include "tests/wcet_oracle.h"

namespace pmk {
namespace {

LinearProgram::Row Le(std::vector<std::uint32_t> idx, std::vector<double> val, double rhs) {
  LinearProgram::Row r;
  r.idx = std::move(idx);
  r.val = std::move(val);
  r.rhs = rhs;
  r.type = LinearProgram::RowType::kLe;
  return r;
}

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().Snapshot().CounterValue(name);
}

// Checks the dense oracle's and the sparse solver's answers to one instance
// agree on status, objective and x; returns them as a pair.
std::pair<SolveResult, SolveResult> Agree(SolveResult dense, SolveResult sparse) {
  EXPECT_EQ(dense.status, sparse.status);
  EXPECT_NEAR(dense.objective, sparse.objective, 1e-6 * (1.0 + std::abs(dense.objective)));
  EXPECT_EQ(dense.x.size(), sparse.x.size());
  if (dense.x.size() == sparse.x.size()) {
    for (std::size_t i = 0; i < dense.x.size(); ++i) {
      EXPECT_NEAR(dense.x[i], sparse.x[i], 1e-6 * (1.0 + std::abs(dense.x[i])))
          << "x[" << i << "]";
    }
  }
  return {std::move(dense), std::move(sparse)};
}

TEST(SimplexStressTest, KleeMintyCubeSolvesExactly) {
  // Klee-Minty cube, the worst case for Dantzig pricing:
  //   max sum_j 2^(n-j) x_j
  //   s.t. 2 * sum_{j<i} 2^(i-j) x_j + x_i <= 5^i
  // Optimum is x = (0, ..., 0, 5^n) with objective 5^n. Exercises long pivot
  // chains well past the point where the solver switches to Bland's rule.
  constexpr std::uint32_t n = 12;
  LinearProgram lp;
  double pow2 = 1u << (n - 1);
  for (std::uint32_t j = 0; j < n; ++j, pow2 /= 2) {
    lp.AddVar(pow2);
  }
  double rhs = 1;
  for (std::uint32_t i = 0; i < n; ++i) {
    rhs *= 5;
    LinearProgram::Row row;
    double coeff = 2;
    for (std::uint32_t j = i; j-- > 0;) {
      row.idx.push_back(j);
      row.val.push_back(coeff *= 2);
    }
    row.idx.push_back(i);
    row.val.push_back(1.0);
    row.rhs = rhs;
    lp.AddRow(std::move(row));
  }
  const auto [dense, sparse] = Agree(oracle::SolveLp(lp), SolveLp(lp));
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dense.objective, 244140625.0, 1e-3);  // 5^12
  EXPECT_NEAR(dense.x[n - 1], 244140625.0, 1e-3);
  // The adversarial geometry must cost real pivot work (one pivot per
  // variable would mean the instance degenerated into a trivial one), yet
  // both solvers must still terminate well inside the iteration budget.
  EXPECT_GE(dense.pivots, n);
  EXPECT_GE(sparse.pivots, n);
}

TEST(SimplexStressTest, BealeCyclingInstanceTerminates) {
  // Beale's classic example cycles forever under textbook Dantzig pricing
  // with arbitrary tie-breaking; the Bland fallback must break the cycle.
  // Optimum: x = (1/25, 0, 1, 0), objective 1/20.
  LinearProgram lp;
  lp.AddVar(0.75);
  lp.AddVar(-150.0);
  lp.AddVar(0.02);
  lp.AddVar(-6.0);
  lp.AddRow(Le({0, 1, 2, 3}, {0.25, -60.0, -1.0 / 25.0, 9.0}, 0.0));
  lp.AddRow(Le({0, 1, 2, 3}, {0.5, -90.0, -1.0 / 50.0, 3.0}, 0.0));
  lp.AddRow(Le({2}, {1.0}, 1.0));
  const auto [dense, sparse] = Agree(oracle::SolveLp(lp), SolveLp(lp));
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dense.objective, 0.05, 1e-6);
  EXPECT_NEAR(sparse.objective, 0.05, 1e-6);
}

TEST(SimplexStressTest, HighlyDegenerateVertexSolves) {
  // Many redundant constraints active at the optimum: every pivot at the
  // degenerate vertex makes zero progress, so the anti-cycling tie-breaks do
  // the work. max x+y s.t. k copies of scaled (x + y <= 10).
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddVar(1.0);
  for (int k = 1; k <= 12; ++k) {
    lp.AddRow(Le({0, 1}, {static_cast<double>(k), static_cast<double>(k)}, 10.0 * k));
  }
  lp.AddRow(Le({0}, {1.0}, 4.0));
  const auto [dense, sparse] = Agree(oracle::SolveLp(lp), SolveLp(lp));
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dense.objective, 10.0, 1e-6);
}

TEST(SimplexStressTest, InfeasibleDetectedInBothModes) {
  // x0 <= 1 together with -x0 <= -2 (i.e. x0 >= 2).
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddRow(Le({0}, {1.0}, 1.0));
  lp.AddRow(Le({0}, {-1.0}, -2.0));
  const auto [dense, sparse] = Agree(oracle::SolveLp(lp), SolveLp(lp));
  EXPECT_EQ(dense.status, SolveStatus::kInfeasible);
  EXPECT_EQ(sparse.status, SolveStatus::kInfeasible);

  // And through branch-and-bound as well.
  const auto [di, si] = Agree(oracle::SolveIlp(lp), SolveIlp(lp));
  EXPECT_EQ(di.status, SolveStatus::kInfeasible);
  EXPECT_EQ(si.status, SolveStatus::kInfeasible);
}

TEST(SimplexStressTest, UnboundedDetectedInBothModes) {
  // max x0 with only x0 - x1 <= 1: push x1 up and x0 follows forever.
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddVar(0.0);
  lp.AddRow(Le({0, 1}, {1.0, -1.0}, 1.0));
  const auto [dense, sparse] = Agree(oracle::SolveLp(lp), SolveLp(lp));
  EXPECT_EQ(dense.status, SolveStatus::kUnbounded);
  EXPECT_EQ(sparse.status, SolveStatus::kUnbounded);
}

TEST(SimplexStressTest, FractionalRelaxationBranches) {
  // max x + y s.t. 2x + 2y <= 3: relaxation peaks at 1.5, the ILP at 1.
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddVar(1.0);
  lp.AddRow(Le({0, 1}, {2.0, 2.0}, 3.0));
  const auto [relax_d, relax_s] = Agree(oracle::SolveLp(lp), SolveLp(lp));
  EXPECT_NEAR(relax_d.objective, 1.5, 1e-6);
  const auto [ilp_d, ilp_s] = Agree(oracle::SolveIlp(lp), SolveIlp(lp));
  ASSERT_EQ(ilp_d.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ilp_d.objective, 1.0, 1e-6);
  EXPECT_NEAR(ilp_s.objective, 1.0, 1e-6);
  for (const double v : ilp_d.x) {
    EXPECT_NEAR(v, std::round(v), 1e-6);
  }
}

TEST(SimplexStressTest, MaxNodesTruncationIsDeterministic) {
  // A knapsack-flavoured instance whose relaxation is fractional at several
  // branch-and-bound depths. Truncating the node budget must yield the same
  // status and incumbent from both solvers at every budget, because the
  // node ordering and branching variable choice are shared — this pins the
  // explored-node order, not just the converged answer.
  LinearProgram lp;
  const double weights[] = {7, 5, 4, 3};
  const double values[] = {9, 6, 5, 3};
  LinearProgram::Row cap;
  for (std::uint32_t j = 0; j < 4; ++j) {
    lp.AddVar(values[j]);
    cap.idx.push_back(j);
    cap.val.push_back(weights[j]);
    lp.AddRow(Le({j}, {1.0}, 1.0));  // binary-style upper bounds
  }
  cap.rhs = 10.0;
  lp.AddRow(std::move(cap));

  std::vector<double> objectives;
  for (std::uint32_t budget = 1; budget <= 16; ++budget) {
    const auto [dense, sparse] = Agree(oracle::SolveIlp(lp, budget), SolveIlp(lp, budget));
    objectives.push_back(dense.objective);
  }
  // The full solve (large budget) must reach the true optimum: items 1+2+3
  // (weights 5+4+3 = 12 > 10, so actually 7+3 vs 5+4 ... assert against a
  // brute-force enumeration instead of hand arithmetic).
  double best = 0;
  for (unsigned mask = 0; mask < 16; ++mask) {
    double w = 0;
    double v = 0;
    for (unsigned j = 0; j < 4; ++j) {
      if (mask & (1u << j)) {
        w += weights[j];
        v += values[j];
      }
    }
    if (w <= 10.0 && v > best) {
      best = v;
    }
  }
  const auto [full_d, full_s] = Agree(oracle::SolveIlp(lp), SolveIlp(lp));
  ASSERT_EQ(full_d.status, SolveStatus::kOptimal);
  EXPECT_NEAR(full_d.objective, best, 1e-6);
  // Incumbent quality is monotone in the node budget.
  for (std::size_t i = 1; i < objectives.size(); ++i) {
    EXPECT_GE(objectives[i] + 1e-9, objectives[i - 1]);
  }
}

// Builds a random layered max-flow-with-profits LP: source -> layer A ->
// layer B -> sink, random integer capacities and per-edge profits,
// conservation equalities on the internal nodes. Network matrices are the
// production workload shape (IPET flow constraints), so this is the
// distribution where sparse-vs-dense disagreement would matter most.
LinearProgram RandomNetworkLp(SplitMix64& rng, std::uint32_t width) {
  LinearProgram lp;
  std::vector<std::uint32_t> sa(width), ab(width * width), bt(width);
  for (std::uint32_t i = 0; i < width; ++i) {
    sa[i] = lp.AddVar(1.0 + static_cast<double>(rng.Below(5)));
  }
  for (std::uint32_t i = 0; i < width; ++i) {
    for (std::uint32_t j = 0; j < width; ++j) {
      ab[i * width + j] = lp.AddVar(1.0 + static_cast<double>(rng.Below(5)));
    }
  }
  for (std::uint32_t j = 0; j < width; ++j) {
    bt[j] = lp.AddVar(1.0 + static_cast<double>(rng.Below(5)));
  }
  for (std::uint32_t v = 0; v < lp.num_vars; ++v) {
    lp.AddRow(Le({v}, {1.0}, 1.0 + static_cast<double>(rng.Below(9))));
  }
  // Conservation at layer-A node i: sa_i == sum_j ab_ij.
  for (std::uint32_t i = 0; i < width; ++i) {
    LinearProgram::Row row;
    row.idx.push_back(sa[i]);
    row.val.push_back(1.0);
    for (std::uint32_t j = 0; j < width; ++j) {
      row.idx.push_back(ab[i * width + j]);
      row.val.push_back(-1.0);
    }
    row.type = LinearProgram::RowType::kEq;
    lp.AddRow(std::move(row));
  }
  // Conservation at layer-B node j: sum_i ab_ij == bt_j.
  for (std::uint32_t j = 0; j < width; ++j) {
    LinearProgram::Row row;
    for (std::uint32_t i = 0; i < width; ++i) {
      row.idx.push_back(ab[i * width + j]);
      row.val.push_back(1.0);
    }
    row.idx.push_back(bt[j]);
    row.val.push_back(-1.0);
    row.type = LinearProgram::RowType::kEq;
    lp.AddRow(std::move(row));
  }
  // Total outflow cap keeps the instance bounded even if every edge is wide.
  LinearProgram::Row total;
  for (std::uint32_t i = 0; i < width; ++i) {
    total.idx.push_back(sa[i]);
    total.val.push_back(1.0);
  }
  total.rhs = static_cast<double>(2 + rng.Below(3 * width));
  lp.AddRow(std::move(total));
  return lp;
}

// Solves |lp| with the dense oracle and the sparse solver, as LP and as ILP,
// and checks they agree.
void AgreeOnNetworkLp(const LinearProgram& lp) {
  const auto [dense, sparse] = Agree(oracle::SolveLp(lp), SolveLp(lp));
  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  // Integral data over a network matrix: branch-and-bound must agree with
  // the oracle too, and can only tighten the relaxation.
  const auto [ilp_d, ilp_s] = Agree(oracle::SolveIlp(lp), SolveIlp(lp));
  ASSERT_EQ(ilp_d.status, SolveStatus::kOptimal);
  EXPECT_LE(ilp_d.objective, dense.objective + 1e-6);
}

TEST(SimplexStressTest, RandomizedNetworkFlowsMatchAcrossModes) {
  SplitMix64 rng(0x5eed5eedULL);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    SplitMix64 stream = rng.Split(static_cast<std::uint64_t>(trial));
    const std::uint32_t width = 2 + static_cast<std::uint32_t>(stream.Below(3));
    AgreeOnNetworkLp(RandomNetworkLp(stream, width));
  }
}

TEST(SimplexStressTest, WideRandomNetworkFlowsCrossRefactorisations) {
  // Widths 18-25 (342-675 variables) take 60-160 pivots, so solves cross the
  // 64-pivot refactorisation, which replaces the eta file and rebuilds the
  // per-row eta chains, the dual BTRAN's memo and its slot links: the
  // incremental walks must still match the dense tableau after it. The
  // widths 2-4 above never get there.
  SplitMix64 rng(0xfac7041dULL);
  const std::uint64_t refactorisations = CounterValue("wcet.simplex.refactorisations");
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    SplitMix64 stream = rng.Split(static_cast<std::uint64_t>(trial));
    const std::uint32_t width = 18 + static_cast<std::uint32_t>(stream.Below(8));
    AgreeOnNetworkLp(RandomNetworkLp(stream, width));
  }
  EXPECT_GT(CounterValue("wcet.simplex.refactorisations"), refactorisations);
}

struct KernelIpet {
  std::string label;
  LinearProgram lp;
  // The row a one-row edit raises: the first loop-bound row, or the source
  // row where the entry has no loop (the after kernel's interrupt path).
  std::uint32_t edit_row = 0;
};

// The IPET program of |entry| as WcetAnalyzer builds it for |opts|, with its
// edit row: flow rows (one per node) and the source row come first, then
// the loop-bound rows.
KernelIpet KernelIpetProgram(const KernelImage& img, const AnalysisOptions& opts,
                             EntryPoint entry) {
  InlinedGraph graph(img.prog, AnalysisEntryFunc(img, entry));
  ComputeLoopBounds(graph);
  const CostResult costs = oracle::ComputeNodeCosts(graph, BuildCostModelOptions(img, opts));
  const bool has_loop_row = std::any_of(graph.loops().begin(), graph.loops().end(),
                                        [](const InlinedLoop& l) { return l.bound != 0; });
  const std::uint32_t source_row = static_cast<std::uint32_t>(graph.nodes().size());
  return {"", BuildIpetProgram(graph, costs, IpetOptions{opts.irq_pending}, opts.constraints),
          has_loop_row ? source_row + 1 : source_row};
}

// Every kernel IPET program the analysis drivers solve: both kernels, L2
// off/on, pinning off/on, all four entries.
std::vector<KernelIpet> KernelIpetPrograms() {
  std::vector<KernelIpet> out;
  for (const bool after : {false, true}) {
    const auto img = BuildKernelImage(after ? KernelConfig::After() : KernelConfig::Before());
    for (const bool l2 : {false, true}) {
      for (const bool pin : {false, true}) {
        AnalysisOptions opts;
        opts.l2_enabled = l2;
        opts.cache_pinning = pin;
        for (const EntryPoint e : kEntryPoints) {
          out.push_back(KernelIpetProgram(*img, opts, e));
          out.back().label = std::string(after ? "after" : "before") + " l2=" +
                             std::to_string(l2) + " pin=" + std::to_string(pin) + " " +
                             EntryPointName(e);
        }
      }
    }
  }
  return out;
}

TEST(SimplexStressTest, KernelIpetRelaxationsWalkTheOraclePath) {
  // The sparse solver re-prices, ratio-tests and refactorises only what a
  // pivot changed; every value that decides a pivot must still match the
  // dense tableau's, so both take the same number of pivots to the same
  // vertex. Relaxations, not SolveIlp: the sparse branch-and-bound
  // warm-starts its children, so its pivot counts legitimately differ where
  // branching happens. x is compared to 1e-12: the before kernel's syscall
  // relaxation with pinning is fractional, and there the product-form
  // inverse and the tableau round one coordinate (2/257) 16 ulps apart.
  const std::vector<KernelIpet> programs = KernelIpetPrograms();
  ASSERT_EQ(programs.size(), 32u);
  for (const KernelIpet& k : programs) {
    SCOPED_TRACE(k.label);
    const SolveResult dense = oracle::SolveLp(k.lp);
    const SolveResult sparse = SolveLp(k.lp);
    ASSERT_EQ(dense.status, SolveStatus::kOptimal);
    ASSERT_EQ(sparse.status, SolveStatus::kOptimal);
    EXPECT_EQ(dense.pivots, sparse.pivots);
    ASSERT_EQ(dense.x.size(), sparse.x.size());
    for (std::size_t i = 0; i < dense.x.size(); ++i) {
      EXPECT_NEAR(dense.x[i], sparse.x[i], 1e-12 * (1.0 + std::abs(dense.x[i]))) << "x[" << i << "]";
    }
  }
}

// What a solve returned, to the bit: status, pivots, objective and an
// FNV-1a digest of the bytes of x.
struct PinnedSolve {
  SolveStatus status;
  std::uint64_t pivots;
  double objective;
  std::uint64_t x_digest;
};

std::uint64_t DigestOf(const std::vector<double>& x) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(double); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

void ExpectPinned(const SolveResult& r, const PinnedSolve& pin) {
  EXPECT_EQ(r.status, pin.status);
  EXPECT_EQ(r.pivots, pin.pivots);
  EXPECT_EQ(r.objective, pin.objective);
  EXPECT_EQ(DigestOf(r.x), pin.x_digest);
}

TEST(SimplexStressTest, KernelIpetSolvesKeepTheirPinnedPath) {
  // Every solve mode of every kernel IPET program, pinned to the bit: a cold
  // SolveIlp (branch-and-bound children warm-started from their parent's
  // basis on the before kernel's fractional syscall relaxations, periodic
  // refactorisations on every syscall program), and a SolveIlpWarm re-solve
  // after raising one row's rhs by one, which imports and refactorises the
  // stored basis and repairs it with DualIterate. The dual BTRAN's memo,
  // the eta chains and the entering tree are rebuilt or carried across each
  // of those; a pivot that moved anywhere changes the count, the vertex or
  // both. Recorded from the solver that walked the whole eta file and
  // scanned every reduced cost at each pivot.
  constexpr SolveStatus kOpt = SolveStatus::kOptimal;
  const PinnedSolve pins[][2] = {
      // before l2=0 pin=0 System call
      {{kOpt, 603, 1318637, 0xc5d8abc9bdbd5632}, {kOpt, 10, 1318717, 0x91e440d3f3a0a812}},
      // before l2=0 pin=0 Undefined instruction
      {{kOpt, 102, 95821, 0xb88bb63e8eda79e3}, {kOpt, 2, 95901, 0x60241d3b88eb4d83}},
      // before l2=0 pin=0 Page fault
      {{kOpt, 102, 95943, 0xb88bb63e8eda79e3}, {kOpt, 2, 96023, 0x60241d3b88eb4d83}},
      // before l2=0 pin=0 Interrupt
      {{kOpt, 49, 66395, 0x39b9b565399098e9}, {kOpt, 2, 66475, 0xf0398df8000c4a09}},
      // before l2=0 pin=1 System call
      {{kOpt, 602, 1316177, 0x96a55ad824c20eb2}, {kOpt, 10, 1316257, 0xffb37fe94c29bb92}},
      // before l2=0 pin=1 Undefined instruction
      {{kOpt, 102, 93001, 0xb88bb63e8eda79e3}, {kOpt, 2, 93081, 0x60241d3b88eb4d83}},
      // before l2=0 pin=1 Page fault
      {{kOpt, 102, 93123, 0xb88bb63e8eda79e3}, {kOpt, 2, 93203, 0x60241d3b88eb4d83}},
      // before l2=0 pin=1 Interrupt
      {{kOpt, 49, 63695, 0x39b9b565399098e9}, {kOpt, 2, 63775, 0xf0398df8000c4a09}},
      // before l2=1 pin=0 System call
      {{kOpt, 603, 1989389, 0xc5d8abc9bdbd5632}, {kOpt, 10, 1989505, 0x91e440d3f3a0a812}},
      // before l2=1 pin=0 Undefined instruction
      {{kOpt, 102, 144709, 0xb88bb63e8eda79e3}, {kOpt, 2, 144825, 0x60241d3b88eb4d83}},
      // before l2=1 pin=0 Page fault
      {{kOpt, 102, 144903, 0xb88bb63e8eda79e3}, {kOpt, 2, 145019, 0x60241d3b88eb4d83}},
      // before l2=1 pin=0 Interrupt
      {{kOpt, 49, 100163, 0x39b9b565399098e9}, {kOpt, 2, 100279, 0xf0398df8000c4a09}},
      // before l2=1 pin=1 System call
      {{kOpt, 602, 1985453, 0x96a55ad824c20eb2}, {kOpt, 10, 1985569, 0xffb37fe94c29bb92}},
      // before l2=1 pin=1 Undefined instruction
      {{kOpt, 102, 140197, 0xb88bb63e8eda79e3}, {kOpt, 2, 140313, 0x60241d3b88eb4d83}},
      // before l2=1 pin=1 Page fault
      {{kOpt, 102, 140391, 0xb88bb63e8eda79e3}, {kOpt, 2, 140507, 0x60241d3b88eb4d83}},
      // before l2=1 pin=1 Interrupt
      {{kOpt, 49, 95843, 0x39b9b565399098e9}, {kOpt, 2, 95959, 0xf0398df8000c4a09}},
      // after l2=0 pin=0 System call
      {{kOpt, 698, 64016, 0xe2dc669e5097c3aa}, {kOpt, 2, 69025, 0xfa968b6f52f7e232}},
      // after l2=0 pin=0 Undefined instruction
      {{kOpt, 102, 34736, 0xed22452612f5d1e2}, {kOpt, 2, 39745, 0xa9604dd1e1da3dca}},
      // after l2=0 pin=0 Page fault
      {{kOpt, 102, 34858, 0xed22452612f5d1e2}, {kOpt, 2, 39867, 0xa9604dd1e1da3dca}},
      // after l2=0 pin=0 Interrupt
      {{kOpt, 47, 5310, 0x756b2bf5d6753438}, {kOpt, 2, 10620, 0x159c734476ed3185}},
      // after l2=0 pin=1 System call
      {{kOpt, 695, 58796, 0x22446578311316aa}, {kOpt, 2, 63805, 0x706533c9dee4c432}},
      // after l2=0 pin=1 Undefined instruction
      {{kOpt, 102, 31976, 0xed22452612f5d1e2}, {kOpt, 2, 36985, 0xa9604dd1e1da3dca}},
      // after l2=0 pin=1 Page fault
      {{kOpt, 102, 32098, 0xed22452612f5d1e2}, {kOpt, 2, 37107, 0xa9604dd1e1da3dca}},
      // after l2=0 pin=1 Interrupt
      {{kOpt, 47, 2670, 0x756b2bf5d6753438}, {kOpt, 2, 5340, 0x159c734476ed3185}},
      // after l2=1 pin=0 System call
      {{kOpt, 698, 97280, 0xe2dc669e5097c3aa}, {kOpt, 2, 104809, 0xfa968b6f52f7e232}},
      // after l2=1 pin=0 Undefined instruction
      {{kOpt, 102, 52736, 0xed22452612f5d1e2}, {kOpt, 2, 60265, 0xa9604dd1e1da3dca}},
      // after l2=1 pin=0 Page fault
      {{kOpt, 102, 52930, 0xed22452612f5d1e2}, {kOpt, 2, 60459, 0xa9604dd1e1da3dca}},
      // after l2=1 pin=0 Interrupt
      {{kOpt, 47, 8190, 0x756b2bf5d6753438}, {kOpt, 2, 16380, 0x159c734476ed3185}},
      // after l2=1 pin=1 System call
      {{kOpt, 695, 88928, 0x22446578311316aa}, {kOpt, 2, 96457, 0x706533c9dee4c432}},
      // after l2=1 pin=1 Undefined instruction
      {{kOpt, 102, 48320, 0xed22452612f5d1e2}, {kOpt, 2, 55849, 0xa9604dd1e1da3dca}},
      // after l2=1 pin=1 Page fault
      {{kOpt, 102, 48514, 0xed22452612f5d1e2}, {kOpt, 2, 56043, 0xa9604dd1e1da3dca}},
      // after l2=1 pin=1 Interrupt
      {{kOpt, 47, 3966, 0x756b2bf5d6753438}, {kOpt, 2, 7932, 0x159c734476ed3185}},
  };
  const std::vector<KernelIpet> programs = KernelIpetPrograms();
  ASSERT_EQ(programs.size(), std::size(pins));
  const std::uint64_t steps = CounterValue("wcet.simplex.eta_steps");
  const std::uint64_t refactorisations = CounterValue("wcet.simplex.refactorisations");
  const std::uint64_t imports = CounterValue("wcet.simplex.imports");
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const KernelIpet& k = programs[i];
    SCOPED_TRACE(k.label);
    ExpectPinned(SolveIlp(k.lp), pins[i][0]);
    IlpWarmStart warm;
    ASSERT_EQ(SolveIlpWarm(k.lp, warm).status, SolveStatus::kOptimal);
    LinearProgram edited = k.lp;
    edited.rhs[k.edit_row] += 1;
    ExpectPinned(SolveIlpWarm(edited, warm), pins[i][1]);
  }
  // The work those solves took, pinned too: the same pivots can cost more.
  // Eta steps grow when an eta file holds etas a walk need not apply (the
  // refactorisation storing its identity etas does that and moves no pivot);
  // refactorisations and imports count the eta files built. Recorded before
  // the refactorisation's numeric pass became FtranColumn.
  EXPECT_EQ(CounterValue("wcet.simplex.eta_steps") - steps, 290'652u);
  EXPECT_EQ(CounterValue("wcet.simplex.refactorisations") - refactorisations, 184u);
  EXPECT_EQ(CounterValue("wcet.simplex.imports") - imports, 56u);
}

TEST(SimplexStressTest, PivotEtaWorkStaysATenthOfTheFullWalk) {
  // wcet.simplex.eta_steps counts the etas the entering column's FTRANs
  // apply and the dual BTRAN steps (the full walks after SetPhase and after
  // each refactorisation, the recomputed steps in between). On the after
  // kernel's syscall relaxation (698 pivots) a solver that walks the whole
  // eta file in both directions at every pivot applies 475,285 etas, 680.9
  // per pivot; following only the etas a pivot reaches or changed applies
  // 15,208, 21.8 per pivot. Gate: at most a tenth of the full walk.
  const auto img = BuildKernelImage(KernelConfig::After());
  const LinearProgram lp = KernelIpetProgram(*img, AnalysisOptions{}, EntryPoint::kSyscall).lp;
  const std::uint64_t steps = CounterValue("wcet.simplex.eta_steps");
  const SolveResult r = SolveLp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  ASSERT_EQ(r.pivots, 698u);
  const double per_pivot =
      static_cast<double>(CounterValue("wcet.simplex.eta_steps") - steps) / 698.0;
  EXPECT_LE(per_pivot, 475'285.0 / 698.0 / 10.0);
  EXPECT_GT(per_pivot, 0.0);
}

TEST(SimplexStressTest, KernelIpetOptimaAreNotUnique) {
  // Renumbering the rows and columns of one kernel IPET program reaches the
  // same optimum at a different vertex: the optimal x is not unique, so the
  // pivot path is part of the analysis output (worst traces, goldens).
  const auto img = BuildKernelImage(KernelConfig::After());
  const LinearProgram lp = KernelIpetProgram(*img, AnalysisOptions{}, EntryPoint::kSyscall).lp;
  // Fisher-Yates on mt19937's raw output, so every standard library draws
  // the same permutation (std::shuffle's is implementation-defined).
  std::mt19937 gen(1);
  const auto shuffle = [&gen](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[gen() % i]);
    }
  };
  std::vector<std::uint32_t> col(lp.num_vars);  // col[v] = v's new index
  std::iota(col.begin(), col.end(), 0u);
  shuffle(col);
  std::vector<std::uint32_t> row_order(lp.num_rows());
  std::iota(row_order.begin(), row_order.end(), 0u);
  shuffle(row_order);
  LinearProgram perm;
  perm.num_vars = lp.num_vars;
  perm.objective.assign(lp.num_vars, 0.0);
  for (std::uint32_t v = 0; v < lp.num_vars; ++v) {
    perm.objective[col[v]] = lp.objective[v];
  }
  for (const std::uint32_t r : row_order) {
    const LinearProgram::RowView view = lp.row(r);
    LinearProgram::Row row;
    for (const std::uint32_t i : view.idx) {
      row.idx.push_back(col[i]);
    }
    row.val.assign(view.val.begin(), view.val.end());
    row.rhs = view.rhs;
    row.type = view.type;
    perm.AddRow(row);
  }
  const SolveResult base = SolveIlp(lp);
  const SolveResult moved = SolveIlp(perm);
  ASSERT_EQ(base.status, SolveStatus::kOptimal);
  ASSERT_EQ(moved.status, SolveStatus::kOptimal);
  EXPECT_EQ(base.objective, moved.objective);
  std::vector<double> moved_back(lp.num_vars);
  for (std::uint32_t v = 0; v < lp.num_vars; ++v) {
    moved_back[v] = moved.x[col[v]];
  }
  EXPECT_NE(base.x, moved_back);
}

}  // namespace
}  // namespace pmk
