// Table 2: WCET for each kernel entry point in the "before" and "after"
// kernels, computed (sound upper bound) and observed (best-effort worst-case
// recreation on the machine model), with the L2 cache disabled and enabled.
//
// Paper reference values (532 MHz i.MX31):
//   entry      before(L2 off)  after L2 off: computed/observed/ratio  after L2 on
//   syscall          3851 us         332.4 / 101.9 / 3.26             436.3 / 80.5 / 5.42
//   undefined         394.5 us        44.4 /  42.6 / 1.04              76.8 / 43.1 / 1.78
//   page fault        396.1 us        44.9 /  42.9 / 1.05              77.5 / 41.1 / 1.89
//   interrupt         143.1 us        23.2 /  17.7 / 1.31              44.8 / 14.3 / 3.13
// The absolute numbers differ (our substrate is a model, not the authors'
// board); the shape — before >> after, syscall dominating, ratios growing
// with L2 — is the reproduced result.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/engine/job_pool.h"
#include "src/sim/latency.h"
#include "src/sim/report.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

// Table 2's observed column: |entry|'s worst-case scenario on a fresh
// after-kernel System, one polluted-cache run (paper Section 5.4).
Cycles Observed(EntryPoint entry, bool l2) {
  System sys(KernelConfig::After(), EvalMachine(l2));
  if (entry == EntryPoint::kInterrupt && !l2) {
    sys.AttachTraceSink(&bench::GlobalTrace());  // representative modelled run
  }
  return EntryScenario(sys, entry).Run().cycles;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) {
  using namespace pmk;
  const ClockSpec clk;
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const bool csv = flags.csv;
  const unsigned jobs = flags.jobs;

  if (!csv) {
    std::printf("Table 2: WCET per kernel entry point, before vs after the paper's changes\n");
    std::printf("(computed = sound bound from the static analysis; observed = best-effort\n");
    std::printf(" worst-case recreation, one polluted-cache run; us @ 532 MHz)\n\n");
  }

  Table t({"Event handler", "Before;L2 off (us)", "After;L2 off comp", "obs", "ratio",
           "After;L2 on comp", "obs", "ratio"});

  const auto before = BuildKernelImage(KernelConfig::Before());
  const auto after = BuildKernelImage(KernelConfig::After());

  AnalysisOptions ao_off;
  AnalysisOptions ao_on;
  ao_on.l2_enabled = true;
  WcetAnalyzer before_off(*before, ao_off);
  WcetAnalyzer after_off(*after, ao_off);
  WcetAnalyzer after_on(*after, ao_on);

  // The per-entry pipeline — three LP solves plus two observed runs — is
  // independent across entries: fan it out over the job pool and collect in
  // entry order, so the table is identical for any --jobs value.
  struct EntryRow {
    Cycles b_off = 0, a_off = 0, a_on = 0, o_off = 0, o_on = 0;
  };
  const auto rows = engine::ParallelMap<EntryRow>(kEntryPoints.size(), jobs, [&](std::size_t i) {
    const EntryPoint entry = kEntryPoints[i];
    EntryRow r;
    r.b_off = before_off.Analyze(entry).wcet;
    r.a_off = after_off.Analyze(entry).wcet;
    r.a_on = after_on.Analyze(entry).wcet;
    r.o_off = Observed(entry, false);
    r.o_on = Observed(entry, true);
    return r;
  });

  for (std::size_t i = 0; i < kEntryPoints.size(); ++i) {
    const EntryPoint entry = kEntryPoints[i];
    const Cycles b_off = rows[i].b_off;
    const Cycles a_off = rows[i].a_off;
    const Cycles a_on = rows[i].a_on;
    const Cycles o_off = rows[i].o_off;
    const Cycles o_on = rows[i].o_on;
    t.AddRow({EntryPointName(entry), Table::Us(clk.ToMicros(b_off)),
              Table::Us(clk.ToMicros(a_off)), Table::Us(clk.ToMicros(o_off)),
              Table::Ratio(static_cast<double>(a_off) / static_cast<double>(o_off)),
              Table::Us(clk.ToMicros(a_on)), Table::Us(clk.ToMicros(o_on)),
              Table::Ratio(static_cast<double>(a_on) / static_cast<double>(o_on))});
  }
  if (csv) {
    t.PrintCsv();
    bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
    bench::ExportMetricsJson(flags.metrics_json);
    return 0;
  }
  t.Print();

  const Cycles b_sys = before_off.Analyze(EntryPoint::kSyscall).wcet;
  const Cycles a_sys = after_off.Analyze(EntryPoint::kSyscall).wcet;
  std::printf("\nimprovement factor on the system-call path (L2 off): %.1fx",
              static_cast<double>(b_sys) / static_cast<double>(a_sys));
  std::printf("  (paper: 11.6x)\n");

  // Both analyzers hold every entry's result by now: cache hits.
  const Cycles resp_off = after_off.InterruptResponseBound();
  const Cycles resp_on = after_on.InterruptResponseBound();
  std::printf("\nworst-case interrupt response (after kernel):\n");
  std::printf("  L2 off: %llu cycles = %.1f us  (paper: 356 us)\n",
              static_cast<unsigned long long>(resp_off), clk.ToMicros(resp_off));
  std::printf("  L2 on:  %llu cycles = %.1f us  (paper: 481 us)\n",
              static_cast<unsigned long long>(resp_on), clk.ToMicros(resp_on));
  bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
  bench::ExportMetricsJson(flags.metrics_json);
  return 0;
}
