// trace_viewer — the observability stack end to end (src/obs).
//
// Runs a small mixed workload under full tracing: a timer-driven real-time
// handler (bound interrupt), a ping-pong IPC pair, and a worker whose large
// frame retype is preempted at the paper's preemption points. One MultiSink
// fans the kernel's event stream out to
//   - a ChromeTraceWriter  -> Chrome trace_event JSON (open in Perfetto),
//   - a BlockProfiler      -> hot-block table vs the static per-block bounds,
//   - an EventLog          -> structural self-checks below.
// Also reads the modelled PMU around the run and prints the interrupt
// response distribution as an HDR histogram.
//
// The example double-checks the observability contract and fails (non-zero
// exit) if any part is violated:
//   1. kernel entry/exit events pair up and timestamps are monotone;
//   2. at least one IRQ assert -> deliver span exists, ids and cycles match;
//   3. every profiled block's per-execution cost is within its static bound;
//   4. tracing charges zero modelled cycles (same final cycle count as an
//      identical untraced run).
//
//   $ trace_viewer [out.trace.json]

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/obs/block_profile.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/histogram.h"
#include "src/obs/pmu.h"
#include "src/obs/trace_sink.h"
#include "src/sim/runner.h"
#include "src/sim/workload.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

struct ScenarioResult {
  Cycles final_cycle = 0;
  std::vector<Cycles> irq_latencies;
};

// The workload; |sink| may be null (untraced baseline for the overhead check).
ScenarioResult RunScenario(System& sys, TraceSink* sink) {
  sys.AttachTraceSink(sink);

  EndpointObj* timer_ep = nullptr;
  const std::uint32_t timer_cptr = sys.AddEndpoint(&timer_ep);
  TcbObj* rt = sys.AddThread(200);
  sys.kernel().DirectBindIrq(InterruptController::kTimerLine, timer_ep);
  sys.kernel().DirectBlockOnRecv(rt, timer_ep);

  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(60);
  TcbObj* client = sys.AddThread(20);
  sys.kernel().DirectBlockOnRecv(server, ep);

  TcbObj* worker = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(19);
  sys.kernel().DirectSetCurrent(client);

  sys.machine().timer().set_period(20'000);
  sys.machine().timer().Restart(sys.machine().Now());

  Runner r(&sys);
  r.set_trace_sink(sink);
  r.SetProgram(rt, {UserStep::Compute(100), UserStep::Syscall(SysOp::kRecv, timer_cptr)});
  r.SetStepHook([&sys, rt](TcbObj* t, std::size_t) {
    if (t == rt) {
      sys.machine().irq().Unmask(InterruptController::kTimerLine);
    }
  });
  SyscallArgs call;
  call.msg_len = 2;
  r.SetProgram(client, {UserStep::Compute(400), UserStep::Syscall(SysOp::kCall, ep_cptr, call)});
  r.SetProgram(server, {UserStep::Syscall(SysOp::kReplyRecv, ep_cptr)});
  SyscallArgs mk;
  mk.label = InvLabel::kUntypedRetype;
  mk.obj_type = ObjType::kFrame;
  mk.obj_bits = 18;  // long clear: preempted at the Section 3.5 points
  mk.dest_index = 70;
  r.SetProgram(worker, {UserStep::Syscall(SysOp::kCall, ut_cptr, mk)}, /*loop=*/false);

  r.Run(400'000);
  sys.machine().timer().set_period(0);

  ScenarioResult out;
  out.final_cycle = sys.machine().Now();
  out.irq_latencies = sys.kernel().irq_latencies();
  sys.AttachTraceSink(nullptr);
  return out;
}

// Check 1: every kKernelEntry has a matching kKernelExit and cycles never
// decrease across the event stream.
bool CheckEntryExitPairing(const std::vector<TraceEvent>& events) {
  int depth = 0;
  int pairs = 0;
  Cycles last = 0;
  for (const TraceEvent& e : events) {
    if (e.cycle < last) {
      std::fprintf(stderr, "FAIL: event timestamps not monotone (%llu after %llu)\n",
                   static_cast<unsigned long long>(e.cycle),
                   static_cast<unsigned long long>(last));
      return false;
    }
    last = e.cycle;
    if (e.kind == TraceEventKind::kKernelEntry) {
      depth++;
    } else if (e.kind == TraceEventKind::kKernelExit) {
      depth--;
      pairs++;
      if (depth < 0) {
        std::fprintf(stderr, "FAIL: kernel exit without entry\n");
        return false;
      }
    }
  }
  if (depth != 0) {
    std::fprintf(stderr, "FAIL: %d unmatched kernel entries\n", depth);
    return false;
  }
  if (pairs == 0) {
    std::fprintf(stderr, "FAIL: no kernel entry/exit pairs traced\n");
    return false;
  }
  std::printf("  [ok] %d kernel entry/exit pairs, timestamps monotone\n", pairs);
  return true;
}

// Check 2: at least one assert -> deliver span per the paper's definition of
// interrupt response time; the deliver event must carry the assert cycle.
bool CheckIrqSpans(const std::vector<TraceEvent>& events) {
  int spans = 0;
  std::vector<Cycles> open(InterruptController::kNumLines, ~Cycles{0});
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kIrqAssert) {
      open[e.id] = e.cycle;
    } else if (e.kind == TraceEventKind::kIrqDeliver) {
      if (open[e.id] == ~Cycles{0}) {
        std::fprintf(stderr, "FAIL: IRQ deliver on line %u without assert\n", e.id);
        return false;
      }
      if (e.arg0 != open[e.id] || e.arg1 != e.cycle - open[e.id]) {
        std::fprintf(stderr, "FAIL: IRQ span on line %u inconsistent\n", e.id);
        return false;
      }
      open[e.id] = ~Cycles{0};
      spans++;
    }
  }
  if (spans == 0) {
    std::fprintf(stderr, "FAIL: no IRQ assert->deliver spans traced\n");
    return false;
  }
  std::printf("  [ok] %d IRQ assert->deliver spans, cycles consistent\n", spans);
  return true;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) {
  using namespace pmk;
  const ClockSpec clk;
  const std::string out_path = argc > 1 ? argv[1] : "trace_viewer.trace.json";

  std::printf("trace_viewer: tracing a mixed workload (timer-driven RT handler +\n");
  std::printf("IPC ping-pong + preempted long retype) for %s\n\n", out_path.c_str());

  // Traced run: one event stream into three consumers.
  ChromeTraceWriter writer(clk);
  BlockProfiler profiler;
  EventLog log;
  MultiSink sink({&writer, &profiler, &log});

  System sys(KernelConfig::After(), EvalMachine(false));
  const PmuSnapshot pmu0 = ReadPmu(sys.machine());
  const ScenarioResult traced = RunScenario(sys, &sink);
  const PmuSnapshot pmu = ReadPmu(sys.machine()) - pmu0;

  // Identical untraced run for the zero-overhead check.
  System bare(KernelConfig::After(), EvalMachine(false));
  const ScenarioResult untraced = RunScenario(bare, nullptr);

  if (!writer.WriteFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu events) — load it at ui.perfetto.dev\n\n", out_path.c_str(),
              writer.events().size());

  std::printf("PMU over the traced run:\n%s\n", FormatPmuDelta(pmu, clk).c_str());

  LatencyHistogram hist;
  for (const Cycles c : traced.irq_latencies) {
    hist.Record(c);
  }
  std::printf("interrupt response distribution:\n  %s\n%s\n",
              hist.FormatSummary(&clk).c_str(), hist.FormatAscii().c_str());

  WcetAnalyzer analyzer(sys.kernel().image(), AnalysisOptions{});
  const std::vector<Cycles> bounds = analyzer.PerBlockBounds();
  std::printf("hottest kernel blocks (observed vs per-block all-miss bound):\n");
  profiler.PrintTopBlocks(sys.kernel().image().prog, 12, &bounds, std::cout);

  std::printf("\nself-checks:\n");
  bool ok = CheckEntryExitPairing(log.events());
  ok = CheckIrqSpans(log.events()) && ok;
  if (profiler.CheckAgainstBounds(bounds, &std::cerr)) {
    std::printf("  [ok] %zu profiled blocks all within their static bounds\n",
                profiler.Ranked().size());
  } else {
    ok = false;
  }
  if (traced.final_cycle == untraced.final_cycle) {
    std::printf("  [ok] tracing charged zero modelled cycles (%llu in both runs)\n",
                static_cast<unsigned long long>(traced.final_cycle));
  } else {
    std::fprintf(stderr, "FAIL: traced run ended at %llu cycles, untraced at %llu\n",
                 static_cast<unsigned long long>(traced.final_cycle),
                 static_cast<unsigned long long>(untraced.final_cycle));
    ok = false;
  }
  return ok ? 0 : 1;
}
