// Campaign engine: job-pool scheduling and the determinism contract.
//
// The engine's promise is that worker count is invisible in every output:
// RunJobs/ParallelMap collect by ordinal, and the sweeps and campaign modes
// derive each run's inputs purely from its index. These tests pin the
// promise at each layer — pool, sweep, campaign — plus the pool's error
// contract.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/job_pool.h"
#include "src/fault/campaign.h"
#include "src/sim/rng.h"

namespace pmk {
namespace {

TEST(JobPoolTest, RunsEveryIndexExactlyOnce) {
  for (const unsigned jobs : {1u, 2u, 4u, 16u}) {
    std::vector<std::atomic<int>> hits(57);
    engine::RunJobs(hits.size(), jobs, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at jobs=" << jobs;
    }
  }
}

TEST(JobPoolTest, ParallelMapCollectsInOrdinalOrder) {
  const auto square = [](std::size_t i) { return i * i; };
  const auto serial = engine::ParallelMap<std::size_t>(100, 1, square);
  const auto threaded = engine::ParallelMap<std::size_t>(100, 7, square);
  ASSERT_EQ(serial.size(), 100u);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(serial[9], 81u);
}

TEST(JobPoolTest, MoreJobsThanItemsIsFine) {
  const auto r = engine::ParallelMap<std::size_t>(3, 16, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(r, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(JobPoolTest, ZeroItemsIsANoOp) {
  engine::RunJobs(0, 4, [](std::size_t) { FAIL() << "no job should run"; });
  EXPECT_TRUE(engine::ParallelMap<int>(0, 4, [](std::size_t) { return 1; }).empty());
}

TEST(JobPoolTest, LowestFailingIndexWins) {
  // Several jobs throw; the pool must rethrow the lowest ordinal's exception
  // so failure reports are independent of thread interleaving.
  for (const unsigned jobs : {1u, 4u}) {
    try {
      engine::RunJobs(64, jobs, [](std::size_t i) {
        if (i % 2 == 1) {
          throw std::runtime_error("job " + std::to_string(i));
        }
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 1") << "jobs=" << jobs;
    }
  }
}

TEST(SplitMix64Test, SplitStreamsAreDisjointAndDeterministic) {
  const SplitMix64 base(42);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 64; ++s) {
    SplitMix64 a = base.Split(s);
    SplitMix64 b = base.Split(s);
    EXPECT_EQ(a.Next(), b.Next()) << "stream " << s;
    firsts.insert(base.Split(s).Next());
  }
  // All 64 streams start differently, and splitting does not perturb the
  // parent (Split is const).
  EXPECT_EQ(firsts.size(), 64u);
  SplitMix64 p1(42);
  SplitMix64 p2(42);
  (void)p2.Split(7);
  EXPECT_EQ(p1.Next(), p2.Next());
}

std::string Signature(const SweepResult& res) {
  std::ostringstream os;
  const auto rec = [&os](const RunRecord& r) {
    os << r.plan << '|' << r.completed << r.invariant_violation << r.exec_error << r.kernel_error
       << r.restart_overrun << '|' << r.restarts << '|' << r.actions_fired << '|'
       << r.lines_asserted << '|' << r.preempt_points << '|' << r.max_irq_latency << '|'
       << r.detail << '\n';
  };
  os << res.preempt_points << '\n';
  rec(res.dry_run);
  for (const RunRecord& r : res.runs) {
    rec(r);
  }
  return os.str();
}

// One shard of a large campaign: a system with substantial resident state
// (30 endpoints with 50 queued senders each, ~1500 threads) whose common
// prefix every run shares, plus a victim endpoint whose deletion is the
// swept operation.
OpFactory MakeShardBootCase() {
  return [] {
    OpInstance inst;
    inst.sys = std::make_unique<System>(KernelConfig::After(), EvalMachine(false));
    System& sys = *inst.sys;
    for (int e = 0; e < 30; ++e) {
      EndpointObj* ep = nullptr;
      sys.AddEndpoint(&ep);
      sys.QueueSenders(ep, 50, {1, 2, 3});
    }
    EndpointObj* victim = nullptr;
    const std::uint32_t victim_cptr = sys.AddEndpoint(&victim);
    sys.QueueSenders(victim, 48, {7});
    inst.actor = sys.AddThread(50);
    sys.kernel().DirectSetCurrent(inst.actor);

    Cap root_cap;
    root_cap.type = ObjType::kCNode;
    root_cap.obj = sys.root()->base;
    inst.op = SysOp::kCall;
    inst.cptr = sys.AddCap(root_cap);
    inst.args.label = InvLabel::kCNodeDelete;
    inst.args.arg0 = victim_cptr & 0xFF;

    const Addr victim_base = victim->base;
    inst.check_done = [victim_base](System& s) {
      if (s.kernel().objects().Get<EndpointObj>(victim_base) != nullptr) {
        throw std::logic_error("shard-boot: victim endpoint survived deletion");
      }
    };
    return inst;
  };
}

TEST(EngineSweepTest, SweepMatchesSerialAtAnyJobCount) {
  std::vector<std::pair<std::string, OpFactory>> cases = CanonicalOps();
  cases.emplace_back("shard-boot", MakeShardBootCase());
  for (const auto& [name, factory] : cases) {
    SCOPED_TRACE(name);
    const SweepResult reference = ExhaustiveIrqSweep(factory, SweepOptions{});
    EXPECT_TRUE(reference.AllOk());
    const std::string expected = Signature(reference);
    for (const unsigned jobs : {1u, 4u}) {
      SweepOptions opts;
      opts.jobs = jobs;
      const SweepResult swept = ExhaustiveIrqSweep(factory, opts);
      EXPECT_TRUE(swept.AllOk()) << "jobs=" << jobs;
      EXPECT_EQ(expected, Signature(swept)) << "jobs=" << jobs;
    }
  }
}

TEST(EngineCampaignTest, ReportIsByteIdenticalAcrossJobCounts) {
  CampaignConfig cfg;
  cfg.seed = 42;
  cfg.random_runs = 6;
  cfg.storm_runs = 2;
  cfg.hostile_runs = 24;
  cfg.spurious_runs = 4;

  std::string csv1;
  {
    cfg.jobs = 1;
    std::ostringstream os;
    RunCampaign(cfg).WriteCsv(os);
    csv1 = os.str();
  }
  for (const unsigned jobs : {2u, 4u}) {
    cfg.jobs = jobs;
    std::ostringstream os;
    const CampaignReport rep = RunCampaign(cfg);
    rep.WriteCsv(os);
    EXPECT_EQ(csv1, os.str()) << "jobs=" << jobs;
    EXPECT_EQ(rep.failures(), 0u);
  }
}

}  // namespace
}  // namespace pmk
