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

#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/image.h"
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

TEST(SimplexStressTest, RandomizedNetworkFlowsMatchAcrossModes) {
  SplitMix64 rng(0x5eed5eedULL);
  for (int trial = 0; trial < 24; ++trial) {
    SplitMix64 stream = rng.Split(static_cast<std::uint64_t>(trial));
    const std::uint32_t width = 2 + static_cast<std::uint32_t>(stream.Below(3));
    const LinearProgram lp = RandomNetworkLp(stream, width);
    const auto [dense, sparse] = Agree(oracle::SolveLp(lp), SolveLp(lp));
    ASSERT_EQ(dense.status, SolveStatus::kOptimal) << "trial " << trial;
    // Integral data over a network matrix: branch-and-bound must agree with
    // the oracle too, and can only tighten the relaxation.
    const auto [ilp_d, ilp_s] = Agree(oracle::SolveIlp(lp), SolveIlp(lp));
    ASSERT_EQ(ilp_d.status, SolveStatus::kOptimal) << "trial " << trial;
    EXPECT_LE(ilp_d.objective, dense.objective + 1e-6) << "trial " << trial;
  }
}

struct KernelIpet {
  std::string label;
  LinearProgram lp;
};

// The IPET program of |entry| as WcetAnalyzer builds it for |opts|.
LinearProgram KernelIpetLp(const KernelImage& img, const AnalysisOptions& opts, EntryPoint entry) {
  InlinedGraph graph(img.prog, AnalysisEntryFunc(img, entry));
  ComputeLoopBounds(graph);
  const CostResult costs = oracle::ComputeNodeCosts(graph, BuildCostModelOptions(img, opts));
  return BuildIpetProgram(graph, costs, IpetOptions{opts.irq_pending}, opts.constraints).lp;
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
          out.push_back({std::string(after ? "after" : "before") + " l2=" + std::to_string(l2) +
                             " pin=" + std::to_string(pin) + " " + EntryPointName(e),
                         KernelIpetLp(*img, opts, e)});
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

TEST(SimplexStressTest, KernelIpetOptimaAreNotUnique) {
  // Renumbering the rows and columns of one kernel IPET program reaches the
  // same optimum at a different vertex: the optimal x is not unique, so the
  // pivot path is part of the analysis output (worst traces, goldens).
  const auto img = BuildKernelImage(KernelConfig::After());
  const LinearProgram lp = KernelIpetLp(*img, AnalysisOptions{}, EntryPoint::kSyscall);
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
  std::vector<std::size_t> row_order(lp.rows.size());
  std::iota(row_order.begin(), row_order.end(), std::size_t{0});
  shuffle(row_order);
  LinearProgram perm;
  perm.num_vars = lp.num_vars;
  perm.objective.assign(lp.num_vars, 0.0);
  for (std::uint32_t v = 0; v < lp.num_vars; ++v) {
    perm.objective[col[v]] = lp.objective[v];
  }
  for (const std::size_t r : row_order) {
    LinearProgram::Row row = lp.rows[r];
    for (std::uint32_t& i : row.idx) {
      i = col[i];
    }
    perm.AddRow(std::move(row));
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
