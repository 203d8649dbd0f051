// telemetry_report — the interrupt-response tail observatory.
//
// The paper's result is a statically analyzed *worst-case* interrupt-response
// bound; this driver tells the tail story around it. It collects every
// modelled IRQ assert->deliver span from three sources —
//
//   1. the exhaustive preemption-point sweep of each canonical long-running
//      operation (one injected interrupt per boundary),
//   2. a timer-driven retype run harvested live through a TailSink attached
//      to the System's trace stream (zero modelled-cycle cost),
//   3. all five fault-campaign modes (exhaustive / random / storm / hostile /
//      spurious) at a fixed seed,
//
// — into per-(kernel config, scenario) histograms, fetches
// WcetAnalyzer::InterruptResponseBound() for the kernel under test and
// renders observed p50/p90/p99/max against the bound with a headroom ratio.
// An *enforced* scenario whose observed max exceeds the bound fails the run
// loudly (nonzero exit): the soundness claim, checked on every invocation.
// Storm-mode rows are informational — their latencies include device-side
// masking windows the kernel analysis deliberately excludes.
//
// Everything printed is modelled cycles, so the output is byte-identical
// across hosts and --jobs values and is kept as a golden
// (tests/goldens/telemetry_report_quick.txt for --quick --seed=42).
//
// Usage:
//   telemetry_report [--quick] [--seed=N] [--jobs=N] [--csv]
//                    [--metrics-json=F] [--progress] [--no-telemetry]

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/fault/campaign.h"
#include "src/obs/tail_observatory.h"
#include "src/sim/latency.h"
#include "src/sim/report.h"
#include "src/sim/workload.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

// A timer-preempted 256 KiB frame retype, observed through a TailSink on the
// live trace stream instead of the run's result record — exercising the
// third collection path end to end.
void TimerRetypeThroughSink(obs::TailObservatory& observatory) {
  System sys(KernelConfig::After(), EvalMachine(false));
  obs::TailSink sink(&observatory, "after", "timer/retype");
  sys.AttachTraceSink(&sink);
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(19);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kFrame;
  args.obj_bits = 18;
  args.dest_index = 70;
  RunLongOpWithTimer(sys, SysOp::kCall, ut_cptr, args, 9000);
  sink.Flush();
}

int Main(int argc, char** argv) {
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const std::uint64_t seed = bench::UnsignedFlag<std::uint64_t>(argc, argv, "--seed=", 42);

  obs::TailObservatory observatory;
  const auto img = BuildKernelImage(KernelConfig::After());
  const WcetAnalyzer analyzer(*img, AnalysisOptions{});
  const Cycles bound = analyzer.InterruptResponseBound();
  observatory.SetBound("after", bound);

  // 1. Exhaustive IRQ sweep of the three canonical operations.
  SweepOptions sweep;
  sweep.jobs = flags.jobs;
  for (const auto& [name, factory] : CanonicalOps()) {
    const std::string scenario = "sweep/" + name;
    observatory.Touch("after", scenario);
    const SweepResult res = ExhaustiveIrqSweep(factory, sweep);
    observatory.RecordHistogram("after", scenario, res.dry_run.irq_hist);
    for (const RunRecord& r : res.runs) {
      observatory.RecordHistogram("after", scenario, r.irq_hist);
    }
  }

  // 2. Live TailSink harvest from a timer-preempted long operation.
  TimerRetypeThroughSink(observatory);

  // 3. All five campaign modes feed the observatory themselves.
  CampaignConfig cc = flags.quick ? CampaignConfig::Quick() : CampaignConfig{};
  cc.seed = seed;
  cc.jobs = flags.jobs;
  cc.observatory = &observatory;
  const CampaignReport report = RunCampaign(cc);

  if (flags.csv) {
    observatory.WriteCsv(std::cout);
  } else {
    std::printf("Interrupt-response tail observatory (seed=%llu)\n",
                static_cast<unsigned long long>(seed));
    std::printf("analyzed bound (after kernel, L2 off): %llu cycles = %.1f us\n\n",
                static_cast<unsigned long long>(bound),
                ClockSpec{}.ToMicros(bound));
    std::printf("%s", observatory.RenderTable().c_str());
    std::printf("\ncampaign: %s\n", report.Summary().c_str());
  }

  const bool exceeded = observatory.AnyExceedance();
  if (exceeded) {
    std::fprintf(stderr,
                 "BOUND EXCEEDED: an enforced scenario's observed interrupt response\n"
                 "passed the statically analyzed worst-case bound.\n");
  }
  bench::ExportMetricsJson(flags.metrics_json);
  return (report.failures() == 0 && !exceeded) ? 0 : 1;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) { return pmk::Main(argc, argv); }
