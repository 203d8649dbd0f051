// Ablation: fault-injection resilience of the "before" vs "after" kernel.
//
// For each canonical long-running operation the exhaustive preemption-point
// sweep injects an interrupt at every boundary the operation exposes. The
// "after" kernel (preemptible operations, Sections 3.3-3.5) shows many
// boundaries, a restart bound of one per injected line and a small worst
// observed interrupt response; the "before" kernel exposes no interior
// boundaries, so the sweep degenerates to a cycle-offset injection whose
// interrupt waits out the entire operation — the paper's latency pathology
// reproduced by the fault engine instead of a timer.
//
// Flags: --csv (machine-readable), --seed=N (cycle-offset draw),
// --jobs=N (run each sweep's boundary runs on N workers; same output).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/fault/campaign.h"
#include "src/sim/rng.h"
#include "src/sim/report.h"

namespace pmk {
namespace {

struct CaseRow {
  const char* op;
  OpFactory factory;
};

std::vector<CaseRow> CasesFor(const KernelConfig& kc) {
  return {{"retype", MakeRetypeCase(kc)},
          {"ep-delete", MakeEpDeleteCase(kc)},
          {"badged-abort", MakeBadgedAbortCase(kc)}};
}

int Main(int argc, char** argv) {
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const std::uint64_t seed = bench::UnsignedFlag<std::uint64_t>(argc, argv, "--seed=", 1);

  Table table({"kernel", "operation", "preempt points", "sweep runs", "all ok", "max restarts",
               "worst irq latency"});
  SweepOptions opts;
  opts.jobs = flags.jobs;  // the table is identical for any --jobs value
  SplitMix64 rng(seed);

  const struct {
    const char* name;
    KernelConfig kc;
  } kernels[] = {{"before", KernelConfig::Before()}, {"after", KernelConfig::After()}};

  bool all_ok = true;
  for (const auto& k : kernels) {
    for (CaseRow& c : CasesFor(k.kc)) {
      SweepResult sweep = ExhaustiveIrqSweep(c.factory, opts);
      Cycles worst = sweep.dry_run.max_irq_latency;
      for (const RunRecord& r : sweep.runs) {
        worst = std::max(worst, r.max_irq_latency);
      }
      // With no interior boundary to sweep, fall back to one seeded
      // cycle-offset injection so the before-kernel's latency is measured.
      std::uint64_t runs = sweep.runs.size();
      if (sweep.preempt_points == 0) {
        InjectionPlan plan;
        InjectionAction a;
        a.trigger = InjectionAction::Trigger::kCycleAtLeast;
        a.at = 200 + rng.Below(800);  // early enough to land inside short ops
        a.line = SweepOptions::kIrqLine;
        plan.actions.push_back(a);
        const RunRecord r = RunWithPlan(c.factory, plan, opts);
        worst = std::max(worst, r.max_irq_latency);
        runs = 1;
        all_ok = all_ok && r.ok();
      }
      all_ok = all_ok && sweep.AllOk();
      table.AddRow({k.name, c.op, std::to_string(sweep.preempt_points), std::to_string(runs),
                    sweep.AllOk() ? "yes" : "NO", std::to_string(sweep.MaxRestarts()),
                    Table::Cyc(worst)});
    }
  }

  if (flags.csv) {
    table.PrintCsv();
  } else {
    std::printf("Fault-injection ablation (exhaustive preemption-point sweep, seed=%llu)\n\n",
                static_cast<unsigned long long>(seed));
    table.Print();
    std::printf("\n'before' kernel: no interior preemption points -> the injected interrupt\n"
                "waits for the whole operation. 'after': bounded restarts, small latency.\n");
  }
  bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
  bench::ExportMetricsJson(flags.metrics_json);
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) { return pmk::Main(argc, argv); }
