// Figure 8: overestimation of the hardware model for static analysis, with
// the L2 cache enabled and disabled. Each bar is a REALISABLE path: the
// analysis is forced onto the exact path a measured run took (by replaying
// its recorded trace under the conservative cost model), and the bar shows
// the percentage difference between the model's prediction and the observed
// execution time of the same path.
//
// Paper shape: per-path overestimation between ~25% and ~225%; the system
// call path overestimates the most (longest path: most cache-set contention
// under the 1-way-conservative model); L2 on is worse than L2 off.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/engine/job_pool.h"
#include "src/obs/chrome_trace.h"
#include "src/sim/latency.h"
#include "src/sim/report.h"
#include "src/sim/workload.h"
#include "src/wcet/analysis.h"

int main(int argc, char** argv) {
  using namespace pmk;

  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const bool csv = flags.csv;
  // --trace-json=FILE: dump a Chrome trace of the system-call path run
  // (L2 off) — the figure's most-overestimated bar — for Perfetto inspection.
  const std::string trace_path = flags.trace_json;
  const unsigned jobs = flags.jobs;

  if (!csv) {
    std::printf("Figure 8: %% overestimation of the hardware model on realisable paths\n");
    std::printf("(forced-path computed cost vs observed execution of the same path)\n\n");
  }

  // The 8-combination grid (4 entry points x L2 on/off) fans out over the
  // job pool: each combination observes its entry on a fresh System and
  // evaluates the forced-path bound against a shared per-L2 analyzer (its
  // queries are thread-safe). Rows are collected in ordinal order, so the
  // output is byte-identical for any --jobs count.
  const std::shared_ptr<const KernelImage> image = SharedKernelImage(KernelConfig::After());
  AnalysisOptions ao_on;
  ao_on.l2_enabled = true;
  const WcetAnalyzer an_on(*image, ao_on);
  const WcetAnalyzer an_off(*image, AnalysisOptions{});

  struct Combo {
    EntryPoint entry;
    bool l2;
  };
  std::vector<Combo> combos;
  for (const EntryPoint entry : kEntryPoints) {
    for (const bool l2 : {true, false}) {
      combos.push_back({entry, l2});
    }
  }
  struct Row {
    std::string name;
    Cycles observed = 0;
    Cycles forced = 0;
    bool l2 = false;
    double pct = 0;
  };
  const std::vector<Row> rows = engine::ParallelMap<Row>(
      combos.size(), jobs, [&](std::size_t ordinal) {
        const auto [entry, l2] = combos[ordinal];
        System sys(KernelConfig::After(), EvalMachine(l2));
        ChromeTraceWriter writer(ClockSpec{});
        const bool trace_this = !trace_path.empty() && entry == EntryPoint::kSyscall && !l2;
        if (trace_this) {
          sys.AttachTraceSink(&writer);
        }
        const EntryScenario::Observation run = EntryScenario(sys, entry).Run();
        if (trace_this && !writer.WriteFile(trace_path)) {
          std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
        }
        Row row;
        row.name = std::string(EntryPointName(entry)) + (l2 ? " (L2 on)" : " (L2 off)");
        row.observed = run.cycles;
        row.forced = (l2 ? an_on : an_off).EvaluateTrace(run.path);
        row.l2 = l2;
        row.pct =
            (static_cast<double>(row.forced) / static_cast<double>(row.observed) - 1.0) * 100.0;
        return row;
      });

  Table t({"Path", "L2", "observed (cyc)", "forced-path computed", "overestimation"});
  double max_pct = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    t.AddRow({EntryPointName(combos[i].entry), r.l2 ? "on" : "off", Table::Cyc(r.observed),
              Table::Cyc(r.forced), Table::Ratio(r.pct) + "%"});
    max_pct = std::max(max_pct, r.pct);
  }
  if (csv) {
    t.PrintCsv();
    bench::ExportMetricsJson(flags.metrics_json);
    return 0;
  }
  t.Print();

  std::printf("\n");
  for (const Row& r : rows) {
    std::printf("%-28s |%s %.0f%%\n", r.name.c_str(), Bar(r.pct, max_pct).c_str(), r.pct);
  }
  std::printf("\npaper shape: 25%%-225%% overestimation; system call worst; L2 on > L2 off\n");
  bench::ExportMetricsJson(flags.metrics_json);
  return 0;
}
