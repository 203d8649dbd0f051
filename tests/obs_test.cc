// Tests for the observability subsystem (src/obs): histogram bucket and
// percentile math, trace-event ordering and pairing, block windows after a
// mid-path sink attach, PMU snapshot/delta correctness against the
// per-access oracle, the zero-overhead contract, and the per-block profiler
// against the static per-block bounds.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/obs/block_profile.h"
#include "src/obs/histogram.h"
#include "src/obs/pmu.h"
#include "src/obs/trace_sink.h"
#include "src/sim/latency.h"
#include "src/sim/workload.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

// ---------------------------------------------------------------- histogram

TEST(HistogramTest, SmallValuesAreExact) {
  // Below 2^kSubBucketBits every value has its own bucket.
  for (Cycles v = 0; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(v), v);
  }
}

TEST(HistogramTest, BucketRoundTripAndRelativeError) {
  // Any value maps to a bucket whose upper bound is >= the value and within
  // 1/16 (6.25%) of it — the HDR layout's resolution guarantee.
  for (const Cycles v :
       {16ull, 17ull, 31ull, 32ull, 100ull, 1000ull, 4095ull, 4096ull, 65537ull,
        1'000'000ull, 123'456'789ull, (1ull << 40) + 12345ull}) {
    const std::size_t idx = LatencyHistogram::BucketIndex(v);
    const Cycles ub = LatencyHistogram::BucketUpperBound(idx);
    EXPECT_GE(ub, v) << "value " << v;
    EXPECT_LE(ub - v, v / 16) << "value " << v;
    // The upper bound itself must land back in the same bucket.
    EXPECT_EQ(LatencyHistogram::BucketIndex(ub), idx) << "value " << v;
  }
}

TEST(HistogramTest, BucketIndexIsMonotone) {
  std::size_t last = 0;
  for (Cycles v = 0; v < 100'000; v = v < 64 ? v + 1 : v + v / 7) {
    const std::size_t idx = LatencyHistogram::BucketIndex(v);
    EXPECT_GE(idx, last) << "value " << v;
    last = idx;
  }
}

TEST(HistogramTest, PercentilesOfUniformRange) {
  LatencyHistogram h;
  for (Cycles v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 500.5);
  // Percentile returns a bucket upper bound: >= the true rank value, within
  // the 6.25% bucket resolution above it.
  for (const double p : {50.0, 90.0, 99.0}) {
    const auto truth = static_cast<Cycles>(p * 10);  // p% of 1..1000
    const Cycles got = h.Percentile(p);
    EXPECT_GE(got, truth) << "p" << p;
    EXPECT_LE(got, truth + truth / 16 + 1) << "p" << p;
  }
  EXPECT_EQ(h.Percentile(100), h.max());
  EXPECT_EQ(h.Percentile(0), h.min());
}

TEST(HistogramTest, SingleValueHasDegenerateDistribution) {
  LatencyHistogram h;
  h.Record(777, 5);
  const auto s = h.Summarize();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 777u);
  EXPECT_EQ(s.p50, 777u);
  EXPECT_EQ(s.p99, 777u);
  EXPECT_EQ(s.max, 777u);
  EXPECT_DOUBLE_EQ(s.mean, 777.0);
}

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
}

TEST(HistogramTest, CountAndSumAccessors) {
  LatencyHistogram h;
  // Empty histogram: both accessors are exact zeros (Sum() must not leak an
  // uninitialised accumulator).
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0.0);
  h.Record(100);
  h.Record(250);
  h.Record(7);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 357.0);
  // Count()/Sum() agree with the existing count()/Mean() surface.
  EXPECT_EQ(h.Count(), h.count());
  EXPECT_DOUBLE_EQ(h.Sum() / static_cast<double>(h.Count()), h.Mean());
  h.Record(0, 5);  // multi-record of zeros bumps count, not sum
  EXPECT_EQ(h.Count(), 8u);
  EXPECT_EQ(h.Sum(), 357.0);
}

TEST(HistogramTest, CountAndSumSurviveMergeAndReset) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  b.Record(20);
  b.Record(30);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_EQ(a.Sum(), 60.0);
  a.Reset();
  EXPECT_EQ(a.Count(), 0u);
  EXPECT_EQ(a.Sum(), 0.0);
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  for (Cycles v = 1; v < 500; v += 3) {
    a.Record(v);
    both.Record(v);
  }
  for (Cycles v = 100; v < 90'000; v += 971) {
    b.Record(v);
    both.Record(v);
  }
  a.Merge(b);
  const auto sa = a.Summarize();
  const auto sb = both.Summarize();
  EXPECT_EQ(sa.count, sb.count);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.p50, sb.p50);
  EXPECT_EQ(sa.p90, sb.p90);
  EXPECT_EQ(sa.p99, sb.p99);
  EXPECT_EQ(sa.max, sb.max);
  EXPECT_DOUBLE_EQ(sa.mean, sb.mean);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(123);
  h.Reset();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, EmptyPercentileIsZeroAtEveryRank) {
  // Every percentile of an empty histogram is defined to be 0 — never a
  // sentinel min_ (~0) leak and never a crash.
  LatencyHistogram h;
  for (const double p : {0.0, 0.001, 50.0, 99.99, 100.0, -5.0, 200.0}) {
    EXPECT_EQ(h.Percentile(p), 0u) << "p=" << p;
  }
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  const auto s = h.Summarize();
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.p99, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(HistogramTest, MergeDisjointOctaves) {
  // The two histograms occupy disjoint octaves (a: values < 2^4, dense
  // low buckets; b: values around 2^40, sparse high buckets), so the merge
  // must grow the bucket array and keep both tails intact.
  LatencyHistogram a;
  LatencyHistogram b;
  for (Cycles v = 1; v <= 10; ++v) {
    a.Record(v);
  }
  const Cycles huge = (Cycles{1} << 40) + 12345;
  b.Record(huge, 2);

  LatencyHistogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), 12u);
  EXPECT_EQ(merged.min(), 1u);
  EXPECT_EQ(merged.max(), huge);
  // p50 stays in the low octave, p99 lands in the high one.
  EXPECT_LE(merged.Percentile(50), 10u);
  EXPECT_GE(merged.Percentile(99), huge - huge / 16);

  // The mirror merge (high absorbs low) gives the same distribution.
  LatencyHistogram mirror = b;
  mirror.Merge(a);
  EXPECT_EQ(mirror.count(), merged.count());
  EXPECT_EQ(mirror.Percentile(50), merged.Percentile(50));
  EXPECT_EQ(mirror.Percentile(99), merged.Percentile(99));
  EXPECT_EQ(mirror.max(), merged.max());

  // Merging an empty histogram is a strict no-op in both directions.
  LatencyHistogram empty;
  const auto before = merged.Summarize();
  merged.Merge(empty);
  const auto after = merged.Summarize();
  EXPECT_EQ(after.count, before.count);
  EXPECT_EQ(after.min, before.min);
  EXPECT_EQ(after.max, before.max);
  empty.Merge(LatencyHistogram{});
  EXPECT_TRUE(empty.empty());
}

TEST(HistogramTest, RecordZeroTimesIsNoOp) {
  // Record(v, 0) must not create a phantom observation: count, min, max and
  // mean all stay untouched, and a fresh histogram stays empty.
  LatencyHistogram fresh;
  fresh.Record(999, 0);
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(fresh.min(), 0u);
  EXPECT_EQ(fresh.max(), 0u);

  LatencyHistogram h;
  h.Record(100, 3);
  h.Record(7, 0);       // would corrupt min_ if counted
  h.Record(1 << 20, 0);  // would corrupt max_ if counted
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 100.0);
}

// ------------------------------------------------------------- event traces

// One charged IPC round trip with an EventLog attached.
std::vector<TraceEvent> TraceOneCall(System& sys, EventLog& log) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(20);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);

  sys.AttachTraceSink(&log);
  SyscallArgs args;
  args.msg_len = 2;
  EXPECT_EQ(sys.kernel().Syscall(SysOp::kCall, cptr, args), KernelExit::kDone);
  sys.AttachTraceSink(nullptr);
  return log.events();
}

TEST(TraceSinkTest, SyscallEmitsPairedEntryExitWithMonotoneCycles) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EventLog log;
  const std::vector<TraceEvent> events = TraceOneCall(sys, log);
  ASSERT_FALSE(events.empty());

  // First event is the kernel entry, last is the matching exit.
  EXPECT_EQ(events.front().kind, TraceEventKind::kKernelEntry);
  EXPECT_EQ(events.back().kind, TraceEventKind::kKernelExit);

  int entries = 0;
  int exits = 0;
  int syscall_ops = 0;
  Cycles last = 0;
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.cycle, last);
    last = e.cycle;
    switch (e.kind) {
      case TraceEventKind::kKernelEntry:
        entries++;
        EXPECT_NE(e.name, nullptr);
        break;
      case TraceEventKind::kKernelExit:
        exits++;
        break;
      case TraceEventKind::kSyscallOp:
        syscall_ops++;
        EXPECT_NE(e.name, nullptr);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(entries, 1);
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(syscall_ops, 1);
}

TEST(TraceSinkTest, BlockCostsExactlyCoverTheKernelPath) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EventLog log;
  const std::vector<TraceEvent> events = TraceOneCall(sys, log);
  ASSERT_GE(events.size(), 3u);

  // Every charged cycle between kernel entry and exit is attributed to
  // exactly one block window, so the block costs sum to the path duration.
  const Cycles duration = events.back().cycle - events.front().cycle;
  Cycles block_sum = 0;
  int blocks = 0;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kBlockCost) {
      blocks++;
      block_sum += e.arg0;
      EXPECT_GE(e.cycle, events.front().cycle);
      EXPECT_LE(e.cycle, events.back().cycle);
    }
  }
  EXPECT_GT(blocks, 0);
  EXPECT_EQ(block_sum, duration);
}

TEST(TraceSinkTest, TracingChargesZeroModelledCycles) {
  System traced(KernelConfig::After(), EvalMachine(false));
  System bare(KernelConfig::After(), EvalMachine(false));
  EventLog log;
  TraceOneCall(traced, log);

  // Identical scenario without a sink.
  EventLog unused;
  {
    EndpointObj* ep = nullptr;
    const std::uint32_t cptr = bare.AddEndpoint(&ep);
    TcbObj* server = bare.AddThread(20);
    TcbObj* client = bare.AddThread(10);
    bare.kernel().DirectBlockOnRecv(server, ep);
    bare.kernel().DirectSetCurrent(client);
    SyscallArgs args;
    args.msg_len = 2;
    ASSERT_EQ(bare.kernel().Syscall(SysOp::kCall, cptr, args), KernelExit::kDone);
  }
  EXPECT_FALSE(log.events().empty());
  EXPECT_EQ(traced.machine().Now(), bare.machine().Now());
  EXPECT_EQ(traced.machine().counters(), bare.machine().counters());
}

// Attaches |sink| from inside the |n|th block of the next kernel path, the
// way a fault hook or debugger would, and records the attach cycle.
class AttachAtBlock : public FaultHook {
 public:
  AttachAtBlock(System& sys, TraceSink* sink, int n) : sys_(sys), sink_(sink), n_(n) {}

  void OnBlock(BlockId, bool) override {
    if (++seen_ == n_) {
      attach_cycle_ = sys_.machine().Now();
      sys_.kernel().exec().set_trace_sink(sink_);
    }
  }

  Cycles attach_cycle() const { return attach_cycle_; }

 private:
  System& sys_;
  TraceSink* sink_;
  int n_;
  int seen_ = 0;
  Cycles attach_cycle_ = 0;
};

// A sink attached inside a block opens that block's window at the attach:
// the windows cover exactly the rest of the path, not a window start left
// over from an earlier traced path.
TEST(TraceSinkTest, SinkAttachedMidPathWindowsCoverTheRestOfThePath) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(20);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);

  EventLog earlier;
  sys.AttachTraceSink(&earlier);
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{}), KernelExit::kDone);
  sys.AttachTraceSink(nullptr);
  ASSERT_EQ(sys.kernel().current(), client);

  EventLog log;
  AttachAtBlock hook(sys, &log, 5);
  sys.kernel().exec().set_fault_hook(&hook);
  SyscallArgs args;
  args.msg_len = 2;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, cptr, args), KernelExit::kDone);
  sys.kernel().exec().set_fault_hook(nullptr);
  sys.kernel().exec().set_trace_sink(nullptr);

  ASSERT_FALSE(log.events().empty());
  ASSERT_EQ(log.events().back().kind, TraceEventKind::kKernelExit);
  Cycles block_sum = 0;
  for (const TraceEvent& e : log.events()) {
    if (e.kind == TraceEventKind::kBlockCost) {
      block_sum += e.arg0;
    }
  }
  EXPECT_GT(block_sum, 0u);
  EXPECT_EQ(block_sum, log.events().back().cycle - hook.attach_cycle());
}

TEST(TraceSinkTest, IrqDeliverMatchesAssert) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  sys.AddEndpoint(&ep);
  TcbObj* handler = sys.AddThread(200);
  TcbObj* task = sys.AddThread(10);
  sys.kernel().DirectBindIrq(InterruptController::kTimerLine, ep);
  sys.kernel().DirectBlockOnRecv(handler, ep);
  sys.kernel().DirectSetCurrent(task);

  EventLog log;
  sys.AttachTraceSink(&log);
  sys.machine().irq().Unmask(InterruptController::kTimerLine);
  sys.machine().irq().Assert(InterruptController::kTimerLine, sys.machine().Now());
  sys.kernel().HandleIrqEntry();
  sys.AttachTraceSink(nullptr);

  const TraceEvent* assert_ev = nullptr;
  const TraceEvent* deliver_ev = nullptr;
  for (const TraceEvent& e : log.events()) {
    if (e.kind == TraceEventKind::kIrqAssert && assert_ev == nullptr) {
      assert_ev = &e;
    } else if (e.kind == TraceEventKind::kIrqDeliver && deliver_ev == nullptr) {
      deliver_ev = &e;
    }
  }
  ASSERT_NE(assert_ev, nullptr);
  ASSERT_NE(deliver_ev, nullptr);
  EXPECT_EQ(assert_ev->id, InterruptController::kTimerLine);
  EXPECT_EQ(deliver_ev->id, InterruptController::kTimerLine);
  // The deliver event carries the assert cycle and the response latency.
  EXPECT_EQ(deliver_ev->arg0, assert_ev->cycle);
  EXPECT_EQ(deliver_ev->arg1, deliver_ev->cycle - assert_ev->cycle);
  ASSERT_EQ(sys.kernel().irq_latencies().size(), 1u);
  EXPECT_EQ(sys.kernel().irq_latencies().back(), deliver_ev->arg1);
}

TEST(TraceSinkTest, PreemptedRetypeEmitsPreemptionPointEvents) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(19);
  sys.kernel().DirectSetCurrent(t);

  EventLog log;
  sys.AttachTraceSink(&log);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kFrame;
  args.obj_bits = 18;
  args.dest_index = 70;
  const LongOpResult res = RunLongOpWithTimer(sys, SysOp::kCall, ut_cptr, args, 8'000);
  sys.AttachTraceSink(nullptr);

  EXPECT_GT(res.preemptions, 0u);
  int hits = 0;
  int taken = 0;
  for (const TraceEvent& e : log.events()) {
    if (e.kind == TraceEventKind::kPreemptPointHit) {
      hits++;
    } else if (e.kind == TraceEventKind::kPreemptPointTaken) {
      taken++;
    }
  }
  // Every preemption went through a preemption-point block whose preempted
  // exit edge was followed; most point visits do NOT preempt.
  EXPECT_EQ(taken, static_cast<int>(res.preemptions));
  EXPECT_GT(hits, taken);
  // The long-op histogram saw every delivered timer interrupt.
  EXPECT_EQ(res.irq_hist.count(), sys.kernel().irq_latencies().size());
  EXPECT_EQ(res.irq_hist.max(), res.max_irq_latency);
}

TEST(TraceSinkTest, MultiSinkFansOut) {
  EventLog a;
  EventLog b;
  MultiSink m({&a});
  m.Add(&b);
  TraceEvent e;
  e.kind = TraceEventKind::kSyscallOp;
  e.cycle = 42;
  m.OnEvent(e);
  ASSERT_EQ(a.events().size(), 1u);
  ASSERT_EQ(b.events().size(), 1u);
  EXPECT_EQ(b.events()[0].cycle, 42u);
}

// --------------------------------------------------------------------- pmu

// One IPC Call whose PMU delta is returned, charged through |mode|.
PmuSnapshot CallDelta(Executor::ChargeMode mode) {
  System sys(KernelConfig::After(), EvalMachine(false));
  sys.kernel().exec().set_charge_mode(mode);
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(20);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);

  const PmuSnapshot s0 = ReadPmu(sys.machine());
  SyscallArgs args;
  args.msg_len = 2;
  EXPECT_EQ(sys.kernel().Syscall(SysOp::kCall, cptr, args), KernelExit::kDone);
  return ReadPmu(sys.machine()) - s0;
}

TEST(PmuTest, DeltaMatchesPerAccessOracle) {
  // The compiled backend counts a block's events when it charges the block,
  // so a PMU read after the Call sees every event the oracle charged one
  // access at a time.
  const PmuSnapshot d = CallDelta(Executor::ChargeMode::kCompiled);
  const PmuSnapshot want = CallDelta(Executor::ChargeMode::kInterpreted);
  EXPECT_EQ(d, want);
  EXPECT_GT(d.cycles, 0u);
  EXPECT_GT(d.instructions, 0u);
  EXPECT_GE(d.l1i_accesses, d.l1i_misses);
  EXPECT_GT(d.l1d_accesses, 0u);
  // With the L2 disabled every L1 miss stalls for the memory penalty.
  EXPECT_GT(d.mem_stall_cycles, 0u);
  EXPECT_LT(d.mem_stall_cycles, d.cycles);
}

TEST(PmuTest, CountersSurvivePollution) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(20);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs args;
  args.msg_len = 2;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, cptr, args), KernelExit::kDone);

  const PmuSnapshot before = ReadPmu(sys.machine());
  EXPECT_GT(before.l1i_misses, 0u);

  // Polluting the caches and resetting the predictor leaves the PMU
  // counting monotonically — snapshot deltas stay valid across
  // polluted-cache runs.
  sys.machine().PolluteCaches();
  EXPECT_EQ(ReadPmu(sys.machine()), before);
}

// ----------------------------------------------------------- block profiler

TEST(BlockProfilerTest, AttributesTheWholePathAndRespectsBounds) {
  System sys(KernelConfig::After(), EvalMachine(false));
  BlockProfiler prof;
  EventLog log;
  MultiSink sink({&prof, &log});

  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(20);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  sys.machine().PolluteCaches();  // worst-ish case: many misses to attribute

  sys.AttachTraceSink(&sink);
  SyscallArgs args;
  args.msg_len = 2;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, cptr, args), KernelExit::kDone);
  sys.AttachTraceSink(nullptr);

  const std::vector<TraceEvent>& events = log.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(prof.TotalCycles(), events.back().cycle - events.front().cycle);

  // Ranked() is sorted descending by total cycles and covers every block.
  const std::vector<BlockStats> ranked = prof.Ranked();
  ASSERT_FALSE(ranked.empty());
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].total_cycles, ranked[i].total_cycles);
  }
  Cycles ranked_sum = 0;
  for (const BlockStats& s : ranked) {
    ranked_sum += s.total_cycles;
    EXPECT_GT(s.execs, 0u);
    EXPECT_LE(s.max_cycles, s.total_cycles);
  }
  EXPECT_EQ(ranked_sum, prof.TotalCycles());

  // Even on a polluted cache, each block stays within its static all-miss
  // per-execution ceiling.
  WcetAnalyzer analyzer(sys.kernel().image(), AnalysisOptions{});
  const std::vector<Cycles> bounds = analyzer.PerBlockBounds();
  EXPECT_TRUE(prof.CheckAgainstBounds(bounds, nullptr));

  // A block id beyond the bounds table must fail the check.
  EXPECT_FALSE(prof.CheckAgainstBounds(std::vector<Cycles>{}, nullptr));
}

TEST(BlockProfilerTest, StatsForUnexecutedBlockIsZeroed) {
  BlockProfiler prof;
  const BlockStats s = prof.StatsFor(7);
  EXPECT_EQ(s.execs, 0u);
  EXPECT_EQ(s.total_cycles, 0u);
}

}  // namespace
}  // namespace pmk
