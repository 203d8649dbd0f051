// ShardSupervisor chaos tests: worker crashes, poison runs, watchdog kills,
// journal resume — the campaign must survive all of them with byte-identical
// results. Campaign-level golden-CSV tests live at the bottom.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/engine/journal.h"
#include "src/engine/shard.h"
#include "src/fault/campaign.h"

namespace pmk::engine {
namespace {

namespace fs = std::filesystem;

std::vector<std::uint8_t> PayloadFor(std::uint32_t ordinal) {
  // Deterministic, ordinal-dependent, multi-byte.
  std::vector<std::uint8_t> p;
  for (std::uint32_t i = 0; i < 16 + ordinal % 7; ++i) {
    p.push_back(static_cast<std::uint8_t>(ordinal * 37 + i));
  }
  return p;
}

std::vector<ShardTask> MakeTasks(std::uint32_t n, std::int32_t poison = -1) {
  std::vector<ShardTask> tasks;
  for (std::uint32_t i = 0; i < n; ++i) {
    tasks.push_back({"task|" + std::to_string(i), [i, poison] {
                       if (poison >= 0 && i == static_cast<std::uint32_t>(poison) &&
                           ShardSupervisor::InWorker()) {
                         std::abort();  // hostile run: SIGABRT mid-task
                       }
                       return PayloadFor(i);
                     }});
  }
  return tasks;
}

void ExpectPayloads(const ShardOutcome& out, std::uint32_t n, std::int32_t skip = -1) {
  ASSERT_EQ(out.payloads.size(), n);
  ASSERT_EQ(out.completed.size(), n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (skip >= 0 && i == static_cast<std::uint32_t>(skip)) {
      continue;
    }
    EXPECT_TRUE(out.completed[i]) << "ordinal " << i;
    EXPECT_EQ(out.payloads[i], PayloadFor(i)) << "ordinal " << i;
  }
}

class ShardChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("pmk_shard_chaos_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ShardChaosTest, InProcessReferencePath) {
  ShardOptions opts;
  opts.shards = 0;
  ShardOutcome out = ShardSupervisor(MakeTasks(11), opts).Run();
  ExpectPayloads(out, 11);
  EXPECT_TRUE(out.AllCompleted());
  EXPECT_EQ(out.stats.workers_spawned, 0u);
  EXPECT_FALSE(out.stats.used_fallback);
}

TEST_F(ShardChaosTest, ForkedShardsMatchReference) {
  ShardOptions opts;
  opts.shards = 3;
  ShardOutcome out = ShardSupervisor(MakeTasks(11), opts).Run();
  ExpectPayloads(out, 11);
  EXPECT_TRUE(out.AllCompleted());
  EXPECT_GE(out.stats.workers_spawned, 3u);
  EXPECT_EQ(out.stats.worker_deaths, 0u);
  EXPECT_EQ(out.stats.retries, 0u);
}

TEST_F(ShardChaosTest, WorkerNotInSupervisorProcess) {
  EXPECT_FALSE(ShardSupervisor::InWorker());
  ShardOptions opts;
  opts.shards = 2;
  // Tasks observe InWorker()==true only under fork.
  std::vector<ShardTask> tasks;
  for (std::uint32_t i = 0; i < 4; ++i) {
    tasks.push_back({"w|" + std::to_string(i), [] {
                       return std::vector<std::uint8_t>{
                           static_cast<std::uint8_t>(ShardSupervisor::InWorker() ? 1 : 0)};
                     }});
  }
  ShardOutcome out = ShardSupervisor(std::move(tasks), opts).Run();
  ASSERT_TRUE(out.AllCompleted());
  for (const auto& p : out.payloads) {
    EXPECT_EQ(p, (std::vector<std::uint8_t>{1}));
  }
  EXPECT_FALSE(ShardSupervisor::InWorker());  // supervisor side unchanged
}

TEST_F(ShardChaosTest, ChaosKillIsRetriedToCompletion) {
  ShardOptions opts;
  opts.shards = 3;
  opts.max_attempts = 4;  // plenty: the chaos kill is one-shot
  opts.chaos_kill_shard = 1;
  opts.chaos_kill_after_results = 1;
  ShardOutcome out = ShardSupervisor(MakeTasks(12), opts).Run();
  ExpectPayloads(out, 12);
  EXPECT_TRUE(out.AllCompleted());
  EXPECT_GE(out.stats.worker_deaths, 1u);
  EXPECT_GE(out.stats.retries, 1u);
  EXPECT_TRUE(out.quarantined.empty());
  EXPECT_TRUE(out.failed.empty());
}

TEST_F(ShardChaosTest, PoisonRunIsQuarantinedOthersComplete) {
  ShardOptions opts;
  opts.shards = 3;
  opts.max_attempts = 2;
  ShardOutcome out = ShardSupervisor(MakeTasks(10, /*poison=*/4), opts).Run();
  ExpectPayloads(out, 10, /*skip=*/4);
  EXPECT_FALSE(out.completed[4]);
  ASSERT_EQ(out.quarantined.size(), 1u);
  EXPECT_EQ(out.quarantined[0], 4u);
  ASSERT_EQ(out.failed.size(), 1u);
  EXPECT_EQ(out.failed[0], 4u);
  EXPECT_FALSE(out.AllCompleted());
  EXPECT_GE(out.stats.worker_deaths, opts.max_attempts);  // main wave + isolated attempt
}

TEST_F(ShardChaosTest, HungWorkerIsKilledByWatchdog) {
  ShardOptions opts;
  opts.shards = 2;
  opts.task_timeout_ms = 200;
  opts.max_attempts = 2;
  std::vector<ShardTask> tasks = MakeTasks(6);
  tasks[3].execute = [] {
    if (ShardSupervisor::InWorker()) {
      for (;;) {
        // Wedged: no frames, no progress. The watchdog must fire.
      }
    }
    return PayloadFor(3);
  };
  ShardOutcome out = ShardSupervisor(std::move(tasks), opts).Run();
  ExpectPayloads(out, 6, /*skip=*/3);
  EXPECT_FALSE(out.completed[3]);
  EXPECT_GE(out.stats.timeouts, 1u);
  ASSERT_EQ(out.quarantined.size(), 1u);
  EXPECT_EQ(out.quarantined[0], 3u);
  ASSERT_EQ(out.failed.size(), 1u);
}

TEST_F(ShardChaosTest, JournalResumeSkipsCompletedRuns) {
  const std::uint64_t digest = 0xABCDEF;
  ShardOptions opts;
  opts.shards = 2;
  opts.journal_dir = dir_;
  opts.journal_digest = digest;
  opts.seed = 42;

  {
    ShardOutcome first = ShardSupervisor(MakeTasks(8), opts).Run();
    ASSERT_TRUE(first.AllCompleted());
    EXPECT_EQ(first.stats.journal_hits, 0u);
    EXPECT_FALSE(first.stats.resumed);
  }
  // Second supervisor over the same campaign: every run is a journal hit and
  // nothing forks.
  ShardOutcome second = ShardSupervisor(MakeTasks(8), opts).Run();
  ExpectPayloads(second, 8);
  EXPECT_TRUE(second.AllCompleted());
  EXPECT_EQ(second.stats.journal_hits, 8u);
  EXPECT_TRUE(second.stats.resumed);
  EXPECT_EQ(second.stats.workers_spawned, 0u);
}

TEST_F(ShardChaosTest, JournalResumeAfterPartialRun) {
  const std::uint64_t digest = 0x5EED;
  // Pre-populate the journal with runs 0..3, as if a prior supervisor was
  // killed halfway.
  {
    ResultJournal j(dir_, digest);
    const std::vector<ShardTask> tasks = MakeTasks(9);
    for (std::uint32_t i = 0; i < 4; ++i) {
      j.Append(ResultJournal::Key(digest, tasks[i].key, 7), PayloadFor(i));
    }
  }
  ShardOptions opts;
  opts.shards = 3;
  opts.journal_dir = dir_;
  opts.journal_digest = digest;
  opts.seed = 7;
  ShardOutcome out = ShardSupervisor(MakeTasks(9), opts).Run();
  ExpectPayloads(out, 9);
  EXPECT_TRUE(out.AllCompleted());
  EXPECT_EQ(out.stats.journal_hits, 4u);
  EXPECT_TRUE(out.stats.resumed);
  EXPECT_GE(out.stats.workers_spawned, 1u);
}

// ---------------------------------------------------------------- campaign
//
// End-to-end: the fault campaign's CSV must be byte-identical across the
// in-process reference, forked shards, a chaos-killed-and-retried run and a
// journal resume after a simulated supervisor crash. Seed 42, quick-sized
// config.

pmk::CampaignConfig TestCampaignConfig() {
  pmk::CampaignConfig cfg = pmk::CampaignConfig::Quick();
  cfg.seed = 42;
  return cfg;
}

std::string CampaignCsv(const pmk::CampaignReport& report) {
  std::ostringstream os;
  report.WriteCsv(os);
  return os.str();
}

const std::string& GoldenCsv() {
  static const std::string golden = [] {
    const pmk::CampaignReport report = pmk::RunCampaign(TestCampaignConfig());
    EXPECT_EQ(report.failures(), 0u);
    EXPECT_FALSE(report.shard.sharded);
    return CampaignCsv(report);
  }();
  return golden;
}

TEST_F(ShardChaosTest, CampaignShardsMatchGolden) {
  pmk::CampaignConfig cfg = TestCampaignConfig();
  cfg.shards = 3;
  const pmk::CampaignReport report = pmk::RunCampaign(cfg);
  EXPECT_EQ(CampaignCsv(report), GoldenCsv());
  EXPECT_TRUE(report.shard.sharded);
  EXPECT_GE(report.shard.workers_spawned, 3u);
  EXPECT_EQ(report.shard.worker_deaths, 0u);
}

TEST_F(ShardChaosTest, CampaignChaosKillMatchesGolden) {
  pmk::CampaignConfig cfg = TestCampaignConfig();
  cfg.shards = 3;
  cfg.journal_dir = dir_;
  cfg.shard_max_attempts = 4;
  cfg.chaos_kill_shard = 1;
  cfg.chaos_kill_after_results = 2;
  const pmk::CampaignReport report = pmk::RunCampaign(cfg);
  EXPECT_EQ(CampaignCsv(report), GoldenCsv());
  EXPECT_GE(report.shard.worker_deaths, 1u);
  EXPECT_GE(report.shard.retries, 1u);
  EXPECT_EQ(report.shard.quarantined, 0u);
}

TEST_F(ShardChaosTest, CampaignResumesAfterSupervisorCrash) {
  pmk::CampaignConfig cfg = TestCampaignConfig();
  cfg.shards = 3;
  cfg.journal_dir = dir_;
  {
    const pmk::CampaignReport first = pmk::RunCampaign(cfg);
    ASSERT_EQ(CampaignCsv(first), GoldenCsv());
  }
  // Simulate a supervisor SIGKILLed mid-campaign: the journal stops at an
  // arbitrary byte (here 40%, likely mid-frame). The resumed run must
  // recover the torn tail, replay the intact prefix and re-execute the rest.
  const std::string jpath =
      (fs::path(dir_) / engine::ResultJournal::kFileName).string();
  const std::uintmax_t full = fs::file_size(jpath);
  fs::resize_file(jpath, full * 2 / 5);

  const pmk::CampaignReport resumed = pmk::RunCampaign(cfg);
  EXPECT_EQ(CampaignCsv(resumed), GoldenCsv());
  EXPECT_TRUE(resumed.shard.resumed);
  EXPECT_GT(resumed.shard.journal_hits, 0u);
  EXPECT_LT(resumed.shard.journal_hits, resumed.shard.tasks);

  // A third run is a pure replay: every row from the journal, no workers.
  const pmk::CampaignReport replay = pmk::RunCampaign(cfg);
  EXPECT_EQ(CampaignCsv(replay), GoldenCsv());
  EXPECT_EQ(replay.shard.journal_hits, replay.shard.tasks);
  EXPECT_EQ(replay.shard.workers_spawned, 0u);
}

TEST_F(ShardChaosTest, CampaignPoisonRunIsQuarantinedAndReported) {
  pmk::CampaignConfig cfg = TestCampaignConfig();
  cfg.shards = 3;
  cfg.shard_max_attempts = 2;
  cfg.poison_ordinal = 5;
  const pmk::CampaignReport report = pmk::RunCampaign(cfg);
  EXPECT_EQ(report.shard.quarantined, 1u);
  EXPECT_EQ(report.shard.failed, 1u);
  EXPECT_EQ(report.failures(), 1u);  // exactly the poisoned row

  // Every row except the poisoned one matches the golden CSV line-for-line.
  std::istringstream got(CampaignCsv(report));
  std::istringstream want(GoldenCsv());
  std::string g, w;
  std::size_t line = 0;
  std::size_t mismatches = 0;
  while (std::getline(want, w)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(got, g)));
    if (g != w) {
      ++mismatches;
      // Header is line 0, so task ordinal 5 is line 6.
      EXPECT_EQ(line, 6u);
      EXPECT_NE(g.find("quarantined"), std::string::npos) << g;
    }
    ++line;
  }
  EXPECT_EQ(mismatches, 1u);
  EXPECT_FALSE(static_cast<bool>(std::getline(got, g)));
}

}  // namespace
}  // namespace pmk::engine
