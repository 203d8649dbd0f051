// Figure 9: effect of enabling the L2 cache and/or branch prediction on
// OBSERVED worst-case execution times, normalised to the baseline (both
// disabled). Cold, polluted caches before every run — the paper's worst-case
// measurement condition.
//
// Paper shape: the L2 can HURT these cold-cache worst cases (memory latency
// rises from 60 to 96 cycles and the L2 provides little reuse on short,
// non-repetitive kernel paths — up to +8% on the page-fault path); the
// branch predictor helps only marginally (cold predictor, initial
// mispredictions offset the wins).

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/latency.h"
#include "src/sim/report.h"
#include "src/sim/workload.h"

namespace pmk {
namespace {

// Max over repeated in-place runs: the first (unmeasured) execution primes
// the L2, as the paper's maxima over 100,000 executions inevitably do; the
// L1 caches are fully polluted before every measured run, the 128 KiB L2
// only partially displaced.
Cycles Observe(EntryPoint entry, bool l2, bool bpred) {
  constexpr int kRuns = 8;
  System sys(KernelConfig::After(), EvalMachine(l2, bpred));
  if (entry == EntryPoint::kSyscall) {
    sys.AttachTraceSink(&bench::GlobalTrace());  // representative modelled run
  }
  EntryScenario scenario(sys, entry);
  scenario.Run();
  scenario.Restore();
  Cycles worst = 0;
  for (int run = 0; run < kRuns; ++run) {
    worst = std::max(worst, scenario.Run().cycles);
    scenario.Restore();
  }
  return worst;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) {
  using namespace pmk;
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const bool csv = flags.csv;

  if (!csv) {
    std::printf("Figure 9: observed worst-case execution times with the L2 cache and/or\n");
    std::printf("branch predictor enabled, normalised to the baseline (both disabled)\n\n");
  }

  Table t({"Path", "Baseline (cyc)", "L2 on", "B-pred on", "L2+B-pred"});
  for (const EntryPoint entry : kEntryPoints) {
    const Cycles base = Observe(entry, false, false);
    const Cycles l2 = Observe(entry, true, false);
    const Cycles bp = Observe(entry, false, true);
    const Cycles both = Observe(entry, true, true);
    const auto norm = [&](Cycles c) {
      return Table::Ratio(static_cast<double>(c) / static_cast<double>(base));
    };
    t.AddRow({EntryPointName(entry), Table::Cyc(base), norm(l2), norm(bp), norm(both)});
  }
  if (csv) {
    t.PrintCsv();
    bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
    bench::ExportMetricsJson(flags.metrics_json);
    return 0;
  }
  t.Print();

  std::printf("\npaper shape: L2 on can exceed 1.00 on these cold-cache worst cases\n");
  std::printf("(up to 1.08 on the page-fault path); the branch predictor is a minor,\n");
  std::printf("sometimes sub-1.00 effect. In the average case both features help —\n");
  std::printf("the detriment is specific to cold polluted caches.\n");
  bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
  bench::ExportMetricsJson(flags.metrics_json);
  return 0;
}
