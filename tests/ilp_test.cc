// Unit tests for the simplex / branch-and-bound ILP solver against
// hand-solved instances.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/wcet/ilp.h"

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

LinearProgram::Row Eq(std::vector<std::uint32_t> idx, std::vector<double> val, double rhs) {
  LinearProgram::Row r = Le(std::move(idx), std::move(val), rhs);
  r.type = LinearProgram::RowType::kEq;
  return r;
}

TEST(LpTest, SingleVariableBound) {
  LinearProgram lp;
  lp.AddVar(3.0);
  lp.AddRow(Le({0}, {1.0}, 5.0));
  const SolveResult r = SolveLp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 15.0, 1e-6);
  EXPECT_NEAR(r.x[0], 5.0, 1e-6);
}

TEST(LpTest, ClassicTwoVariable) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), z = 36.
  LinearProgram lp;
  lp.AddVar(3.0);
  lp.AddVar(5.0);
  lp.AddRow(Le({0}, {1.0}, 4.0));
  lp.AddRow(Le({1}, {2.0}, 12.0));
  lp.AddRow(Le({0, 1}, {3.0, 2.0}, 18.0));
  const SolveResult r = SolveLp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-6);
  EXPECT_NEAR(r.x[0], 2.0, 1e-6);
  EXPECT_NEAR(r.x[1], 6.0, 1e-6);
}

TEST(LpTest, EqualityConstraint) {
  // max x + y st x + y = 7, x <= 3 -> z = 7.
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddVar(1.0);
  lp.AddRow(Eq({0, 1}, {1.0, 1.0}, 7.0));
  lp.AddRow(Le({0}, {1.0}, 3.0));
  const SolveResult r = SolveLp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 7.0, 1e-6);
}

TEST(LpTest, InfeasibleDetected) {
  // x <= 1 and x >= 2 (written -x <= -2).
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddRow(Le({0}, {1.0}, 1.0));
  lp.AddRow(Le({0}, {-1.0}, -2.0));
  EXPECT_EQ(SolveLp(lp).status, SolveStatus::kInfeasible);
}

TEST(LpTest, UnboundedDetected) {
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddRow(Le({0}, {-1.0}, 0.0));  // x >= 0 only
  EXPECT_EQ(SolveLp(lp).status, SolveStatus::kUnbounded);
}

TEST(LpTest, NegativeRhsNormalization) {
  // max x st -x <= -3 (x >= 3), x <= 10 -> z = 10.
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddRow(Le({0}, {-1.0}, -3.0));
  lp.AddRow(Le({0}, {1.0}, 10.0));
  const SolveResult r = SolveLp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10.0, 1e-6);
}

TEST(LpTest, DegenerateVertexHandled) {
  // Redundant constraints meeting at the optimum.
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddVar(1.0);
  lp.AddRow(Le({0, 1}, {1.0, 1.0}, 4.0));
  lp.AddRow(Le({0, 1}, {2.0, 2.0}, 8.0));
  lp.AddRow(Le({0}, {1.0}, 4.0));
  const SolveResult r = SolveLp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
}

TEST(IlpTest, FractionalLpRoundsDownCorrectly) {
  // max x st 2x <= 5: LP -> 2.5; ILP -> 2.
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddRow(Le({0}, {2.0}, 5.0));
  const SolveResult r = SolveIlp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(IlpTest, KnapsackStyle) {
  // max 8x + 11y + 6z st 5x + 7y + 4z <= 14, x,y,z <= 1 (0/1 knapsack).
  // Optimal integral: x=1,y=0,z=1 -> 14? check: 8+6=14 (weight 9);
  // y=1,z=1 -> 17 (weight 11 <= 14). So best = 8+11? weight 12: x+y=19? 5+7=12
  // <= 14 -> 19.
  LinearProgram lp;
  lp.AddVar(8.0);
  lp.AddVar(11.0);
  lp.AddVar(6.0);
  lp.AddRow(Le({0, 1, 2}, {5.0, 7.0, 4.0}, 14.0));
  for (std::uint32_t v = 0; v < 3; ++v) {
    lp.AddRow(Le({v}, {1.0}, 1.0));
  }
  const SolveResult r = SolveIlp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 19.0, 1e-6);
  EXPECT_NEAR(r.x[0], 1.0, 1e-6);
  EXPECT_NEAR(r.x[1], 1.0, 1e-6);
  EXPECT_NEAR(r.x[2], 0.0, 1e-6);
}

TEST(IlpTest, FlowNetworkIsIntegral) {
  // A tiny IPET-shaped problem: source=1, a splits to b/c, both join d.
  // Vars: e_sa, e_ab, e_ac, e_bd, e_cd, e_d_sink. Max cost on c-branch.
  LinearProgram lp;
  const std::uint32_t sa = lp.AddVar(10);   // cost of a
  const std::uint32_t ab = lp.AddVar(20);   // cost of b
  const std::uint32_t ac = lp.AddVar(50);   // cost of c
  const std::uint32_t bd = lp.AddVar(5);    // cost of d
  const std::uint32_t cd = lp.AddVar(5);    // cost of d
  const std::uint32_t ds = lp.AddVar(0);
  lp.AddRow(Eq({sa}, {1.0}, 1.0));
  lp.AddRow(Eq({sa, ab, ac}, {1.0, -1.0, -1.0}, 0.0));        // node a
  lp.AddRow(Eq({ab, bd}, {1.0, -1.0}, 0.0));                  // node b
  lp.AddRow(Eq({ac, cd}, {1.0, -1.0}, 0.0));                  // node c
  lp.AddRow(Eq({bd, cd, ds}, {1.0, 1.0, -1.0}, 0.0));         // node d
  const SolveResult r = SolveIlp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 10 + 50 + 5, 1e-6);
  EXPECT_NEAR(r.x[ac], 1.0, 1e-6);
  EXPECT_NEAR(r.x[ab], 0.0, 1e-6);
}

TEST(IlpTest, LoopBoundConstraint) {
  // entry -> head; head loops <= 3 times per entry; each iteration costs 7.
  // Vars: e_entry(=1), e_back. count(head) = e_entry + e_back <= 3.
  LinearProgram lp;
  const std::uint32_t en = lp.AddVar(7);
  const std::uint32_t back = lp.AddVar(7);
  lp.AddRow(Eq({en}, {1.0}, 1.0));
  lp.AddRow(Le({en, back}, {1.0, 1.0}, 3.0));
  const SolveResult r = SolveIlp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_NEAR(r.objective, 21.0, 1e-6);
}

TEST(IlpTest, IntegralityGapRequiresBranching) {
  // max x + y st 2x + 2y <= 3 -> LP 1.5, ILP 1.
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddVar(1.0);
  lp.AddRow(Le({0, 1}, {2.0, 2.0}, 3.0));
  const SolveResult lr = SolveLp(lp);
  ASSERT_EQ(lr.status, SolveStatus::kOptimal);
  EXPECT_NEAR(lr.objective, 1.5, 1e-6);
  const SolveResult ir = SolveIlp(lp);
  ASSERT_EQ(ir.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ir.objective, 1.0, 1e-6);
}

TEST(IlpTest, ModeratelySizedChainSolvesQuickly) {
  // A chain of 200 nodes with flow conservation: stress sanity.
  LinearProgram lp;
  std::vector<std::uint32_t> vars;
  for (int i = 0; i < 200; ++i) {
    vars.push_back(lp.AddVar(static_cast<double>(i % 7)));
  }
  lp.AddRow(Eq({vars[0]}, {1.0}, 1.0));
  for (int i = 0; i + 1 < 200; ++i) {
    lp.AddRow(Eq({vars[i], vars[i + 1]}, {1.0, -1.0}, 0.0));
  }
  const SolveResult r = SolveIlp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  double expect = 0;
  for (int i = 0; i < 200; ++i) {
    expect += i % 7;
  }
  EXPECT_NEAR(r.objective, expect, 1e-5);
}

TEST(IlpTest, UnboundedSolveCountsItsPivots) {
  // max x0 with only x0 - x1 <= 1 (a loop with no bound): x0 enters, then x1
  // follows a ray. wcet.simplex.pivots counts every pivot of the solve, the
  // unbounded exit's included.
  LinearProgram lp;
  lp.AddVar(1.0);
  lp.AddVar(0.0);
  lp.AddRow(Le({0, 1}, {1.0, -1.0}, 1.0));
  const auto pivots = [] {
    return obs::MetricsRegistry::Get().Snapshot().CounterValue("wcet.simplex.pivots");
  };
  const std::uint64_t before = pivots();
  const SolveResult r = SolveIlp(lp);
  ASSERT_EQ(r.status, SolveStatus::kUnbounded);
  EXPECT_GT(r.pivots, 0u);
  EXPECT_EQ(pivots(), before + r.pivots);
}

TEST(IlpTest, MovedFromWarmStartSolvesCold) {
  // A moved-from IlpWarmStart holds no basis: the solve runs cold, matches
  // SolveIlp, and leaves the object holding the new root basis.
  LinearProgram lp;
  lp.AddVar(8.0);
  lp.AddVar(11.0);
  lp.AddRow(Le({0, 1}, {5.0, 7.0}, 14.0));
  lp.AddRow(Le({0}, {1.0}, 1.0));
  lp.AddRow(Le({1}, {1.0}, 1.0));
  const auto cold_solves = [] {
    return obs::MetricsRegistry::Get().Snapshot().CounterValue("wcet.inc.simplex.cold");
  };
  IlpWarmStart warm;
  IlpWarmStart taken = std::move(warm);
  EXPECT_FALSE(warm.valid());
  const std::uint64_t before = cold_solves();
  const SolveResult r = SolveIlpWarm(lp, warm);
  EXPECT_EQ(cold_solves(), before + 1);
  const SolveResult cold = SolveIlp(lp);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.objective, cold.objective);
  EXPECT_EQ(r.x, cold.x);
  EXPECT_TRUE(warm.valid());
  EXPECT_FALSE(taken.valid());
}

TEST(IlpTest, WarmRestartCountsOneImport) {
  // wcet.simplex.imports counts warm-start basis imports that refactorise:
  // none for a cold solve, one for a warm root that needs no branching.
  LinearProgram lp;
  lp.AddVar(3.0);
  lp.AddVar(5.0);
  lp.AddRow(Le({0}, {1.0}, 4.0));
  lp.AddRow(Le({1}, {2.0}, 12.0));
  lp.AddRow(Le({0, 1}, {3.0, 2.0}, 18.0));
  const auto imports = [] {
    return obs::MetricsRegistry::Get().Snapshot().CounterValue("wcet.simplex.imports");
  };
  IlpWarmStart warm;
  const std::uint64_t before = imports();
  ASSERT_EQ(SolveIlpWarm(lp, warm).status, SolveStatus::kOptimal);
  EXPECT_EQ(imports(), before);
  ASSERT_EQ(SolveIlpWarm(lp, warm).status, SolveStatus::kOptimal);
  EXPECT_EQ(imports(), before + 1);
}

TEST(IlpTest, RebaseCarriesTheBasisByRowContent) {
  // A rebuild that drops the first row and inserts another in front keeps
  // the other two rows' content; Rebase carries their tokens over, counts
  // the one old row it could not carry, and the warm re-solve imports the
  // carried basis and equals a cold solve. A stored basis that was not
  // exported from |from| (another row count) is dropped.
  const auto program = [](std::vector<LinearProgram::Row> rows) {
    LinearProgram lp;
    lp.AddVar(3.0);
    lp.AddVar(5.0);
    for (const LinearProgram::Row& row : rows) {
      lp.AddRow(row);
    }
    return lp;
  };
  const LinearProgram a =
      program({Le({0}, {1.0}, 4.0), Le({1}, {2.0}, 12.0), Le({0, 1}, {3.0, 2.0}, 18.0)});
  const LinearProgram b =
      program({Le({1}, {1.0}, 5.0), Le({1}, {2.0}, 12.0), Le({0, 1}, {3.0, 2.0}, 18.0)});
  const auto imports = [] {
    return obs::MetricsRegistry::Get().Snapshot().CounterValue("wcet.simplex.imports");
  };
  IlpWarmStart warm;
  EXPECT_EQ(warm.Rebase(a, b), 1u);  // the count needs no stored basis
  EXPECT_FALSE(warm.valid());
  ASSERT_EQ(SolveIlpWarm(a, warm).status, SolveStatus::kOptimal);
  EXPECT_EQ(warm.Rebase(a, b), 1u);
  ASSERT_TRUE(warm.valid());
  const std::uint64_t before = imports();
  const SolveResult r = SolveIlpWarm(b, warm);
  EXPECT_GT(imports(), before);
  const SolveResult cold = SolveIlp(b);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  EXPECT_EQ(r.objective, cold.objective);
  EXPECT_EQ(r.x, cold.x);

  const LinearProgram c = program({Le({1}, {2.0}, 12.0), Le({0, 1}, {3.0, 2.0}, 18.0)});
  EXPECT_EQ(warm.Rebase(c, b), 0u);
  EXPECT_FALSE(warm.valid());
}

}  // namespace
}  // namespace pmk
