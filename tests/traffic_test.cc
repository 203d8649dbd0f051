// Integration tests for the src/load saturation harness: fleet construction
// (badged caps, fastpath-eligible cspace), the two-phase driver's ack/drain
// discipline under load, the wire codec, byte-identity of a sweep across
// --jobs and --shards parallelism (the checkpoint-fork determinism
// contract), the result journal's resume and key, and live enforcement of
// the analyzed interrupt-response bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/load/fleet.h"
#include "src/load/traffic.h"
#include "src/obs/tail_observatory.h"
#include "src/sim/workload.h"
#include "src/wcet/analysis.h"

namespace pmk::load {
namespace {

// Small but non-trivial grid: every shape, two load points, enough clients
// to exercise the fleet CNode path. Sub-second even under sanitizers.
TrafficOptions SmallSweep() {
  TrafficOptions opts;
  opts.seed = 42;
  opts.clients = 50;
  opts.servers = 4;
  opts.load_gaps = {4096, 512};
  opts.run_cycles = 60'000;
  return opts;
}

std::vector<std::vector<std::uint8_t>> Fingerprint(const TrafficReport& r) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(r.results.size());
  for (const TrafficResult& res : r.results) {
    out.push_back(EncodeTrafficResult(res));
  }
  return out;
}

TEST(ClientFleetTest, DirectModeBuildsBadgedFastpathEligibleFleet) {
  System sys(KernelConfig::After(), EvalMachine(false));
  FleetSpec spec;
  spec.clients = 100;
  spec.servers = 4;
  spec.badge_base = 500;
  const Fleet fleet = BuildClientFleet(sys, spec);

  ASSERT_EQ(fleet.clients.size(), 100u);
  ASSERT_EQ(fleet.servers.size(), 4u);
  ASSERT_EQ(fleet.endpoints.size(), 4u);

  // The fleet CNode is one-level (guard + radix == 32): cptrs decode in a
  // single step, keeping badged IPC on the fastpath.
  ASSERT_NE(fleet.fleet_cnode, nullptr);
  EXPECT_EQ(fleet.fleet_cnode->guard_bits + fleet.fleet_cnode->radix_bits, 32);
  EXPECT_GE(1u << fleet.fleet_cnode->radix_bits, 100u);

  for (std::uint32_t i = 0; i < 100; ++i) {
    // Every client: resumed, rooted at the fleet CNode, holding a cap to its
    // round-robin server endpoint with a unique badge.
    EXPECT_EQ(fleet.clients[i]->state, ThreadState::kRunning);
    EXPECT_EQ(fleet.clients[i]->cspace_root, fleet.fleet_cnode->base);
    const Cap& cap = fleet.fleet_cnode->slots[fleet.client_cptrs[i]].cap;
    EXPECT_EQ(cap.type, ObjType::kEndpoint);
    EXPECT_EQ(cap.obj, fleet.endpoints[i % 4]->base);
    EXPECT_EQ(cap.badge, 500 + i);
  }
  sys.kernel().CheckInvariants();
}

TEST(ClientFleetTest, ResolveFleetRebindsPointersInAClone) {
  System sys(KernelConfig::After(), EvalMachine(false));
  FleetSpec spec;
  spec.clients = 10;
  spec.servers = 2;
  const Fleet fleet = BuildClientFleet(sys, spec);

  const auto clone = sys.Clone();
  const Fleet resolved = ResolveFleet(*clone, fleet);
  for (std::size_t i = 0; i < resolved.clients.size(); ++i) {
    EXPECT_NE(resolved.clients[i], fleet.clients[i]);  // clone owns its objects
    EXPECT_EQ(resolved.clients[i]->base, fleet.clients[i]->base);
  }
  EXPECT_NE(resolved.fleet_cnode, fleet.fleet_cnode);
  EXPECT_EQ(resolved.fleet_cnode->base, fleet.fleet_cnode->base);
}

TEST(ClientFleetTest, ResolveFleetTakesAddressesInAnyOrder) {
  // The fleet resolves with one walk while its addresses ascend; an address
  // below its predecessor is looked up on its own.
  System sys(KernelConfig::After(), EvalMachine(false));
  FleetSpec spec;
  spec.clients = 40;
  spec.servers = 4;
  Fleet fleet = BuildClientFleet(sys, spec);
  std::reverse(fleet.endpoint_addrs.begin(), fleet.endpoint_addrs.end());
  std::reverse(fleet.endpoints.begin(), fleet.endpoints.end());
  for (std::size_t i = 0; i + 3 < fleet.clients.size(); i += 5) {
    std::swap(fleet.client_addrs[i], fleet.client_addrs[i + 3]);
    std::swap(fleet.clients[i], fleet.clients[i + 3]);
  }
  std::swap(fleet.server_addrs.front(), fleet.server_addrs.back());
  std::swap(fleet.servers.front(), fleet.servers.back());

  const auto clone = sys.Clone();
  const Fleet resolved = ResolveFleet(*clone, fleet);
  const auto same = [](const auto& copies, const auto& originals) {
    ASSERT_EQ(copies.size(), originals.size());
    for (std::size_t i = 0; i < copies.size(); ++i) {
      EXPECT_NE(copies[i], originals[i]);
      EXPECT_EQ(copies[i]->base, originals[i]->base);
      EXPECT_EQ(copies[i]->type, originals[i]->type);
    }
  };
  same(resolved.endpoints, fleet.endpoints);
  same(resolved.servers, fleet.servers);
  same(resolved.clients, fleet.clients);
}

TEST(ClientFleetTest, ResolveFleetThrowsOnAMissingObject) {
  System sys(KernelConfig::After(), EvalMachine(false));
  FleetSpec spec;
  spec.clients = 40;
  spec.servers = 4;
  const Fleet fleet = BuildClientFleet(sys, spec);
  const auto clone = sys.Clone();
  ASSERT_NO_THROW(ResolveFleet(*clone, fleet));

  // No object starts inside a TCB, whether the walk or the lookup meets it.
  Fleet inside = fleet;
  inside.client_addrs[20] += 16;
  EXPECT_THROW(ResolveFleet(*clone, inside), std::logic_error);
  Fleet behind = fleet;
  behind.client_addrs[20] = behind.client_addrs[0] + 16;
  EXPECT_THROW(ResolveFleet(*clone, behind), std::logic_error);
  // An endpoint is not a TCB.
  Fleet endpoint = fleet;
  endpoint.server_addrs[1] = fleet.endpoint_addrs[3];
  EXPECT_THROW(ResolveFleet(*clone, endpoint), std::logic_error);
  // A TCB the clone no longer holds.
  clone->kernel().objects().Remove(fleet.client_addrs.back());
  EXPECT_THROW(ResolveFleet(*clone, fleet), std::logic_error);
}

// A fresh journal directory for the running test, removed when it ends.
class JournalDir {
 public:
  JournalDir()
      : path_((std::filesystem::temp_directory_path() /
               ("pmk_traffic_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~JournalDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(TrafficCodecTest, EncodeDecodeRoundTripsEveryField) {
  TrafficResult r;
  r.shape = "storm";
  r.load_point = 3;
  r.frame_gap = 512;
  r.irq_hist.Record(1000);
  r.irq_hist.Record(2500);
  r.frame_delay.Record(77);
  r.frames_offered = 123;
  r.frames_dropped = 4;
  r.frames_processed = 119;
  r.driver_acks = 60;
  r.client_calls = 31;
  r.requests_served = 29;
  r.spurious_acks = 2;
  r.coalesced_asserts = 17;
  r.steps = 999;

  const TrafficResult d = DecodeTrafficResult(EncodeTrafficResult(r));
  EXPECT_EQ(EncodeTrafficResult(d), EncodeTrafficResult(r));
  EXPECT_EQ(d.shape, "storm");
  EXPECT_EQ(d.irq_hist.count(), 2u);
  EXPECT_EQ(d.irq_hist.max(), 2500u);
  EXPECT_EQ(d.coalesced_asserts, 17u);
}

TEST(TrafficSweepTest, ByteIdenticalAcrossJobs) {
  TrafficOptions opts = SmallSweep();
  opts.jobs = 1;
  const TrafficReport serial = RunTrafficSweep(opts);
  opts.jobs = 4;
  const TrafficReport threaded = RunTrafficSweep(opts);
  ASSERT_EQ(serial.results.size(), 6u);
  EXPECT_EQ(Fingerprint(serial), Fingerprint(threaded));
  // Renderings derive from the results, so they match byte for byte too.
  EXPECT_EQ(RenderTrafficTable(serial), RenderTrafficTable(threaded));
  std::ostringstream a;
  std::ostringstream b;
  WriteTrafficCsv(serial, a);
  WriteTrafficCsv(threaded, b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(TrafficSweepTest, ByteIdenticalAcrossShardSupervision) {
  TrafficOptions opts = SmallSweep();
  const TrafficReport inproc = RunTrafficSweep(opts);
  opts.shards = 2;
  const TrafficReport sharded = RunTrafficSweep(opts);
  EXPECT_TRUE(sharded.shard.sharded);
  EXPECT_EQ(sharded.shard.tasks, 6u);
  EXPECT_EQ(Fingerprint(inproc), Fingerprint(sharded));
}

TEST(TrafficSweepTest, JournalResumesWithoutShards) {
  const JournalDir dir;
  TrafficOptions opts = SmallSweep();
  opts.journal_dir = dir.path();
  const TrafficReport first = RunTrafficSweep(opts);
  EXPECT_EQ(first.shard.journal_hits, 0u);

  const TrafficReport resumed = RunTrafficSweep(opts);
  EXPECT_FALSE(resumed.shard.sharded);
  EXPECT_EQ(resumed.shard.tasks, 6u);
  EXPECT_EQ(resumed.shard.journal_hits, resumed.shard.tasks);
  EXPECT_TRUE(resumed.shard.resumed);
  EXPECT_EQ(RenderTrafficTable(resumed), RenderTrafficTable(first));
  EXPECT_EQ(Fingerprint(resumed), Fingerprint(first));
}

TEST(TrafficSweepTest, JournalMissesWhenAResultOptionChanges) {
  const JournalDir dir;
  TrafficOptions opts = SmallSweep();
  opts.shards = 1;
  opts.journal_dir = dir.path();
  const TrafficReport first = RunTrafficSweep(opts);

  // A resumed journal must not replay rows computed under another run
  // length: the rerun executes every scenario and matches a fresh sweep.
  opts.run_cycles += 3'000;
  const TrafficReport rerun = RunTrafficSweep(opts);
  EXPECT_EQ(rerun.shard.journal_hits, 0u);
  TrafficOptions fresh = opts;
  fresh.shards = 0;
  fresh.journal_dir.clear();
  EXPECT_EQ(Fingerprint(rerun), Fingerprint(RunTrafficSweep(fresh)));
  EXPECT_NE(Fingerprint(rerun), Fingerprint(first));

  // Every other result-changing option is part of the journal key too.
  const std::vector<std::pair<const char*, std::function<void(TrafficOptions&)>>> edits = {
      {"clients", [](TrafficOptions& o) { o.clients += 1; }},
      {"servers", [](TrafficOptions& o) { o.servers += 1; }},
      // An extra load point keeps every existing scenario key but moves the
      // ordinals, and with them the RNG streams, of the later shapes.
      {"load_gaps", [](TrafficOptions& o) { o.load_gaps.push_back(256); }},
  };
  opts.shards = 0;
  for (const auto& [name, edit] : edits) {
    RunTrafficSweep(opts);  // the journal holds |opts|' rows again
    TrafficOptions changed = opts;
    edit(changed);
    EXPECT_EQ(RunTrafficSweep(changed).shard.journal_hits, 0u) << name;
  }
}

TEST(TrafficSweepTest, RerunFromSameOptionsReplaysIdentically) {
  // The boot-once/fork-per-scenario pattern: two full sweeps re-boot and
  // re-fork everything, so equality here proves the forked worlds (ring,
  // source, fleet, driver) carry no hidden host state.
  const TrafficReport a = RunTrafficSweep(SmallSweep());
  const TrafficReport b = RunTrafficSweep(SmallSweep());
  EXPECT_EQ(Fingerprint(a), Fingerprint(b));
}

TEST(TrafficSweepTest, SeedChangesTheTrafficButNotTheShape) {
  TrafficOptions opts = SmallSweep();
  const TrafficReport a = RunTrafficSweep(opts);
  opts.seed = 43;
  const TrafficReport b = RunTrafficSweep(opts);
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_NE(Fingerprint(a), Fingerprint(b));
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].shape, b.results[i].shape);
    EXPECT_EQ(a.results[i].frame_gap, b.results[i].frame_gap);
  }
}

TEST(TrafficSweepTest, TwoPhaseDriverServicesTheRing) {
  const TrafficReport report = RunTrafficSweep(SmallSweep());
  for (const TrafficResult& r : report.results) {
    // The device offered frames and the driver drained them: nothing is
    // processed that was not offered, drops are accounted, and the driver
    // acked at least once per drain batch.
    EXPECT_GT(r.frames_offered, 0u) << r.shape << " g" << r.frame_gap;
    EXPECT_LE(r.frames_processed + r.frames_dropped, r.frames_offered);
    EXPECT_GT(r.driver_acks, 0u);
    EXPECT_GT(r.irq_hist.count(), 0u);
    // The deferred phase ran: per-frame delays were measured for every
    // processed frame.
    EXPECT_EQ(r.frame_delay.count(), r.frames_processed);
  }
  // The hot load point (gap 512) must actually overrun the default ring —
  // otherwise this suite isn't testing saturation at all.
  std::uint64_t total_dropped = 0;
  for (const TrafficResult& r : report.results) {
    total_dropped += r.frames_dropped;
  }
  EXPECT_GT(total_dropped, 0u);
}

TEST(TrafficSweepTest, NonStormScenariosStayUnderAnalyzedBound) {
  const auto img = BuildKernelImage(KernelConfig::After());
  const Cycles bound = WcetAnalyzer(*img, AnalysisOptions{}).InterruptResponseBound();
  const TrafficReport report = RunTrafficSweep(SmallSweep());

  obs::TailObservatory observatory;
  observatory.SetBound("after", bound);
  FeedObservatory(report, observatory, "after");
  EXPECT_FALSE(observatory.AnyExceedance());

  for (const TrafficResult& r : report.results) {
    if (r.shape != "storm") {
      EXPECT_LE(r.irq_hist.max(), bound) << r.shape << " g" << r.frame_gap;
    }
  }
  // Storm rows exist and are marked unenforced (informational).
  bool storm_seen = false;
  for (const auto& row : observatory.Rows()) {
    if (row.scenario.find("traffic/storm/") == 0) {
      storm_seen = true;
      EXPECT_FALSE(row.enforced);
    }
  }
  EXPECT_TRUE(storm_seen);
}

}  // namespace
}  // namespace pmk::load
