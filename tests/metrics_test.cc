// Tests for the unified telemetry layer (src/obs/metrics, tail_observatory):
// lossless merging of concurrent shard recordings, snapshot determinism, the
// observer-never-input contract (campaign CSV byte-identical with telemetry
// on vs off), exporter shape, and the interrupt-response tail observatory.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/engine/job_pool.h"
#include "src/fault/campaign.h"
#include "src/fault/scenario.h"
#include "src/load/traffic.h"
#include "src/obs/metrics.h"
#include "src/obs/tail_observatory.h"
#include "src/sim/latency.h"
#include "src/sim/workload.h"

namespace pmk {
namespace {

using obs::MetricsRegistry;
using obs::MetricsSnapshot;

// Every test that touches the process-wide registry starts from zero and
// leaves telemetry enabled (the process default).
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Get().Reset();
  }
  void TearDown() override {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Get().Reset();
  }
};

TEST_F(MetricsTest, CounterGaugeHistogramRoundTrip) {
  const obs::Counter c("test.roundtrip.count");
  const obs::Gauge g("test.roundtrip.level");
  const obs::ValueHistogram h("test.roundtrip.values");
  c.Inc();
  c.Inc(41);
  g.Set(7);
  g.Add(-3);
  h.Record(100);
  h.Record(200);

  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snap.CounterValue("test.roundtrip.count"), 42u);
  const obs::MetricRow* gauge = snap.Find("test.roundtrip.level");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->gauge, 4);
  const obs::MetricRow* hist = snap.Find("test.roundtrip.values");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count(), 2u);
  EXPECT_EQ(hist->hist.min(), 100u);
  EXPECT_EQ(hist->hist.max(), 200u);
}

TEST_F(MetricsTest, DisabledRecordingIsInvisible) {
  const obs::Counter c("test.disabled.count");
  const obs::ValueHistogram h("test.disabled.values");
  MetricsRegistry::SetEnabled(false);
  c.Inc(100);
  h.Record(5);
  MetricsRegistry::SetEnabled(true);
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snap.CounterValue("test.disabled.count"), 0u);
  const obs::MetricRow* hist = snap.Find("test.disabled.values");
  ASSERT_NE(hist, nullptr);
  EXPECT_TRUE(hist->hist.empty());
}

TEST_F(MetricsTest, ConcurrentRunJobsRecordingMergesLosslessly) {
  // Many worker threads hammer the same counter and histogram through the
  // engine's job pool; the snapshot must account for every single recording
  // (per-thread shards merge commutatively, nothing is dropped or doubled).
  const obs::Counter c("test.concurrent.count");
  const obs::ValueHistogram h("test.concurrent.values");
  constexpr std::size_t kJobs = 64;
  constexpr unsigned kWorkers = 8;
  constexpr std::uint64_t kPerJob = 1000;
  engine::RunJobs(kJobs, kWorkers, [&](std::size_t job) {
    for (std::uint64_t i = 0; i < kPerJob; ++i) {
      c.Inc();
      h.Record(job + 1);  // distinct per-job value, min 1, max kJobs
    }
  });
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snap.CounterValue("test.concurrent.count"), kJobs * kPerJob);
  const obs::MetricRow* hist = snap.Find("test.concurrent.values");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count(), kJobs * kPerJob);
  EXPECT_EQ(hist->hist.min(), 1u);
  EXPECT_EQ(hist->hist.max(), kJobs);
}

TEST_F(MetricsTest, SnapshotIsDeterministicAcrossInterleavings) {
  // The same logical recordings through different thread interleavings must
  // produce identical snapshots, byte for byte in CSV form. The engine's own
  // wall-clock timer rows (engine.jobs.batch_nanos) are host time and thus
  // legitimately vary run to run, so the comparison keeps only the rows this
  // test records — the modelled data whose determinism the layer guarantees.
  const auto run = [](unsigned workers) {
    MetricsRegistry::Get().Reset();
    const obs::Counter c("test.determinism.count");
    const obs::ValueHistogram h("test.determinism.values");
    engine::RunJobs(32, workers, [&](std::size_t job) {
      c.Inc(job);
      h.Record(100 + job);
    });
    std::ostringstream os;
    MetricsRegistry::Get().Snapshot().WriteCsv(os);
    std::istringstream is(os.str());
    std::string line, kept;
    while (std::getline(is, line)) {
      if (line.rfind("test.determinism.", 0) == 0) {
        kept += line;
        kept += '\n';
      }
    }
    return kept;
  };
  const std::string serial = run(1);
  const std::string parallel4 = run(4);
  const std::string parallel8 = run(8);
  EXPECT_EQ(serial, parallel4);
  EXPECT_EQ(serial, parallel8);
  EXPECT_NE(serial.find("test.determinism.count"), std::string::npos);
}

TEST_F(MetricsTest, SnapshotRowsAreSortedByName) {
  obs::Counter("test.sort.zzz").Inc();
  obs::Counter("test.sort.aaa").Inc();
  obs::Counter("test.sort.mmm").Inc();
  const MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  std::vector<std::string> names;
  for (const obs::MetricRow& row : snap.rows) {
    names.push_back(row.name);
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST_F(MetricsTest, ResetZeroesButKeepsRegistrations) {
  const obs::Counter c("test.reset.count");
  c.Inc(5);
  MetricsRegistry::Get().Reset();
  EXPECT_EQ(MetricsRegistry::Get().Snapshot().CounterValue("test.reset.count"), 0u);
  c.Inc(2);
  EXPECT_EQ(MetricsRegistry::Get().Snapshot().CounterValue("test.reset.count"), 2u);
}

TEST_F(MetricsTest, ObsLabeledFoldsIntoName) {
  EXPECT_EQ(obs::ObsLabeled("fault.runs", "mode", "storm"), "fault.runs{mode=storm}");
}

TEST_F(MetricsTest, JsonlExportIsOneObjectPerLine) {
  obs::Counter("test.jsonl.count").Inc(3);
  obs::ValueHistogram("test.jsonl.values").Record(50);
  std::ostringstream os;
  MetricsRegistry::Get().Snapshot().WriteJsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    // Minimal JSON shape check: one {...} object with a "metric" key.
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"metric\""), std::string::npos) << line;
  }
  EXPECT_GE(lines, 2u);
}

// ------------------------------------------------- observer-never-input

TEST_F(MetricsTest, CampaignCsvIsByteIdenticalWithTelemetryOnAndOff) {
  // The acceptance contract: attaching the full telemetry layer (metrics
  // registry + tail observatory) cannot change one byte of the seeded
  // campaign's deterministic CSV.
  const auto run_csv = [](bool telemetry, obs::TailObservatory* observatory) {
    MetricsRegistry::SetEnabled(telemetry);
    CampaignConfig cfg;
    cfg.seed = 42;
    cfg.random_runs = 4;
    cfg.storm_runs = 1;
    cfg.hostile_runs = 16;
    cfg.spurious_runs = 4;
    cfg.observatory = observatory;
    std::ostringstream os;
    RunCampaign(cfg).WriteCsv(os);
    MetricsRegistry::SetEnabled(true);
    return os.str();
  };
  obs::TailObservatory observatory;
  const std::string with_everything = run_csv(true, &observatory);
  const std::string bare = run_csv(false, nullptr);
  EXPECT_EQ(with_everything, bare);
  EXPECT_FALSE(observatory.Rows().empty());
}

// fault.invariant.checks counts each Kernel::CheckInvariants call where it
// runs, whichever driver makes it: a traffic sweep audits every scenario
// once at its end, and a fault run audits after each kernel exit and once
// more after draining the lines it outlived.
TEST_F(MetricsTest, InvariantAuditsAreCountedWhereTheyRun) {
  const auto audits = [] {
    return MetricsRegistry::Get().Snapshot().CounterValue("fault.invariant.checks");
  };
  load::TrafficOptions quick;  // traffic_workload --quick
  quick.clients = 1000;
  quick.run_cycles = 260'000;
  std::uint64_t before = audits();
  ASSERT_EQ(load::RunTrafficSweep(quick).results.size(), 12u);
  EXPECT_EQ(audits() - before, 12u);

  before = audits();
  const RunRecord clean = RunWithInstance(MakeRetypeCase()(), InjectionPlan{});
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean.restarts, 0u);
  EXPECT_EQ(audits() - before, 2u);
}

// ------------------------------------------------------ tail observatory

TEST(TailObservatoryTest, BoundsHeadroomAndExceedance) {
  obs::TailObservatory to;
  to.SetBound("after", 1000);
  to.Record("after", "sweep/retype", 100);
  to.Record("after", "sweep/retype", 500);
  ASSERT_EQ(to.Rows().size(), 1u);
  const auto row = to.Rows()[0];
  EXPECT_EQ(row.bound, 1000u);
  EXPECT_FALSE(row.exceeded());
  EXPECT_DOUBLE_EQ(row.headroom(), 2.0);
  EXPECT_FALSE(to.AnyExceedance());

  to.Record("after", "sweep/retype", 1001);
  EXPECT_TRUE(to.AnyExceedance());
}

TEST(TailObservatoryTest, UnenforcedScenarioNeverFailsTheRun) {
  obs::TailObservatory to;
  to.SetBound("after", 1000);
  to.SetUnenforced("storm");
  to.Record("after", "storm", 5000);  // over the bound, but informational
  EXPECT_FALSE(to.AnyExceedance());
  const auto rows = to.Rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].exceeded());
  EXPECT_FALSE(rows[0].enforced);
  // The rendering marks it, loudly but non-fatally.
  EXPECT_NE(to.RenderTable().find("info-exceeded"), std::string::npos);
}

TEST(TailObservatoryTest, TouchCreatesExplicitEmptyRow) {
  obs::TailObservatory to;
  to.SetBound("after", 1000);
  to.Touch("after", "hostile");
  const auto rows = to.Rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].hist.empty());
  EXPECT_FALSE(rows[0].exceeded());
  EXPECT_NE(to.RenderTable().find("no-irqs"), std::string::npos);
}

TEST(TailObservatoryTest, RowsSortedAndBoundAppliesRetroactively) {
  obs::TailObservatory to;
  to.Record("after", "zeta", 10);
  to.Record("after", "alpha", 20);
  to.Record("before", "alpha", 30);
  to.SetBound("after", 100);  // set AFTER recording; must apply to both rows
  const auto rows = to.Rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].config, "after");
  EXPECT_EQ(rows[0].scenario, "alpha");
  EXPECT_EQ(rows[1].scenario, "zeta");
  EXPECT_EQ(rows[2].config, "before");
  EXPECT_EQ(rows[0].bound, 100u);
  EXPECT_EQ(rows[1].bound, 100u);
  EXPECT_EQ(rows[2].bound, 0u);  // no bound registered for "before"
}

TEST(TailObservatoryTest, CsvExportsOneRowPerCell) {
  obs::TailObservatory to;
  to.SetBound("after", 1000);
  to.Record("after", "sweep/retype", 100);
  to.Touch("after", "hostile");
  std::ostringstream csv_stream;
  to.WriteCsv(csv_stream);
  const std::string csv = csv_stream.str();
  // Header + two rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("sweep/retype"), std::string::npos);
}

TEST(TailObservatoryTest, IrqCountersAccumulatePerCellAndExport) {
  obs::TailObservatory to;
  to.SetBound("after", 1000);
  to.Record("after", "traffic/open", 100);
  to.RecordIrqCounters("after", "traffic/open", /*spurious_acks=*/3,
                       /*coalesced_asserts=*/7);
  to.RecordIrqCounters("after", "traffic/open", 1, 2);  // accumulates
  to.Touch("after", "traffic/storm");                   // counters default to 0

  const auto rows = to.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].scenario, "traffic/open");
  EXPECT_EQ(rows[0].spurious_acks, 4u);
  EXPECT_EQ(rows[0].coalesced_asserts, 9u);
  EXPECT_EQ(rows[1].spurious_acks, 0u);
  EXPECT_EQ(rows[1].coalesced_asserts, 0u);

  std::ostringstream csv_stream;
  to.WriteCsv(csv_stream);
  const std::string csv = csv_stream.str();
  EXPECT_NE(csv.find("spurious_acks,coalesced_asserts"), std::string::npos);
  EXPECT_NE(csv.find(",4,9\n"), std::string::npos);
}

TEST(TailObservatoryTest, IrqCountersAloneCreateARow) {
  // A scenario that only ever reported counters (no latency samples) still
  // shows up — drops at full saturation can coalesce every assert.
  obs::TailObservatory to;
  to.RecordIrqCounters("after", "traffic/saturated", 0, 12);
  const auto rows = to.Rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].hist.empty());
  EXPECT_EQ(rows[0].coalesced_asserts, 12u);
}

TEST(TailObservatoryTest, TailSinkHarvestsIrqDeliveriesFromLiveTrace) {
  // A TailSink on a timer-preempted retype must collect exactly the runs'
  // IRQ latencies — same count and max as the result record — at zero
  // modelled-cycle cost (cycle identity with no sink attached).
  const auto run = [](obs::TailObservatory* to) {
    System sys(KernelConfig::After(), EvalMachine(false));
    obs::TailSink sink(to, "after", "timer/retype");
    if (to != nullptr) {
      sys.AttachTraceSink(&sink);
    }
    TcbObj* t = sys.AddThread(10);
    const std::uint32_t ut_cptr = sys.AddUntyped(19);
    sys.kernel().DirectSetCurrent(t);
    SyscallArgs args;
    args.label = InvLabel::kUntypedRetype;
    args.obj_type = ObjType::kFrame;
    args.obj_bits = 18;
    args.dest_index = 70;
    const LongOpResult res = RunLongOpWithTimer(sys, SysOp::kCall, ut_cptr, args, 9000);
    sink.Flush();
    return res;
  };
  obs::TailObservatory to;
  const LongOpResult with_sink = run(&to);
  const LongOpResult without = run(nullptr);
  EXPECT_EQ(with_sink.max_irq_latency, without.max_irq_latency)
      << "attaching a TailSink changed modelled execution";
  const auto rows = to.Rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].hist.count(), with_sink.irq_hist.count());
  EXPECT_EQ(rows[0].hist.max(), with_sink.irq_hist.max());
  EXPECT_FALSE(rows[0].hist.empty());
}

}  // namespace
}  // namespace pmk
