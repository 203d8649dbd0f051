// Fault-injection campaign driver.
//
// Runs the seeded adversarial campaign (exhaustive preemption-point sweeps,
// random injection schedules, IRQ storms, hostile syscall inputs, spurious
// acks) and prints a per-mode summary. Also demonstrates the shrinker: with
// --demo-shrink a deliberately sabotaged run (an injection callback corrupts
// an endpoint queue length) produces a failing schedule that is shrunk to a
// minimal reproducer.
//
// Usage:
//   fault_campaign [--seed=N] [--jobs=N] [--csv[=path]] [--quick]
//                  [--demo-shrink] [--metrics-json=F] [--progress] [--no-telemetry]
//                  [--shards=N] [--journal=DIR] [--resume] [--shard-timeout-ms=N]
//                  [--shard-max-attempts=N] [--poison=ORDINAL]
//                  [--chaos-kill-shard=N] [--chaos-kill-after=N]
//
// Sharding: --shards=N forks N supervised worker processes (engine shard
// supervisor: watchdog timeouts, bounded retries with backoff, quarantine of
// poison runs); workers inherit the booted checkpoints through fork().
// --journal=DIR persists each completed run to a crash-safe journal; with
// --resume an existing journal is reused so a campaign killed mid-flight
// re-executes only missing runs (without --resume the journal is cleared
// first). The CSV on stdout is byte-identical for any --shards value
// and across resumes; supervision stats go to stderr. The chaos/poison flags
// are CI hooks that deliberately kill a worker or abort one run.
//
// The human-readable report ends with the tail observatory: per-scenario
// interrupt-response percentiles against the WCET analyzer's
// InterruptResponseBound for the campaign's kernel. An enforced row whose
// observed max exceeds the bound fails the run (nonzero exit).
//
// The report for a fixed seed is byte-identical across runs AND across
// --jobs values: pipe --csv output to a file and diff it to audit
// reproducibility (CI diffs --jobs=1 against --jobs=4).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "src/engine/journal.h"

#include "bench/bench_util.h"
#include "src/fault/campaign.h"
#include "src/obs/tail_observatory.h"
#include "src/sim/report.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

int DemoShrink() {
  // Sabotage: on every injection, corrupt the endpoint queue-length counter
  // of the first endpoint we can find through a sender. The invariant audit
  // must catch it, and the shrinker must reduce a noisy 6-action schedule to
  // a single action.
  const OpFactory factory = MakeEpDeleteCase();
  const auto sabotage = [](System& sys) {
    for (const auto& [base, obj] : sys.kernel().objects().objects()) {
      if (obj->type == ObjType::kEndpoint) {
        static_cast<EndpointObj*>(obj.get())->q_len += 1;
        return;
      }
    }
  };

  InjectionPlan noisy;
  for (std::uint64_t i = 0; i < 6; ++i) {
    InjectionAction a;
    a.trigger = InjectionAction::Trigger::kPreemptOrdinal;
    a.at = 3 + 5 * i;
    a.line = 4 + static_cast<std::uint32_t>(i);
    noisy.actions.push_back(a);
  }

  SweepOptions opts;
  const RunRecord failing = RunWithPlan(factory, noisy, opts, sabotage);
  std::printf("sabotaged run: plan=%s -> %s\n", failing.plan.c_str(),
              failing.ok() ? "PASSED (unexpected!)" : failing.detail.c_str());
  if (failing.ok()) {
    return 1;
  }
  const InjectionPlan minimal = ShrinkPlan(factory, noisy, opts, sabotage);
  std::printf("shrunk %zu actions -> %zu: %s\n", noisy.actions.size(), minimal.actions.size(),
              minimal.ToString().c_str());
  const RunRecord re = RunWithPlan(factory, minimal, opts, sabotage);
  std::printf("minimal reproducer still fails: %s\n", re.ok() ? "NO (bug!)" : "yes");
  return re.ok() ? 1 : 0;
}

int Main(int argc, char** argv) {
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  CampaignConfig cfg = flags.quick ? CampaignConfig::Quick() : CampaignConfig{};
  cfg.seed = bench::UnsignedFlag(argc, argv, "--seed=", cfg.seed);
  cfg.jobs = flags.jobs;
  if (HasFlag(argc, argv, "--demo-shrink")) {
    return DemoShrink();
  }

  cfg.shards = bench::UnsignedFlag(argc, argv, "--shards=", cfg.shards);
  cfg.journal_dir = FlagValue(argc, argv, "--journal=");
  if (!cfg.journal_dir.empty() && !HasFlag(argc, argv, "--resume")) {
    // Fresh campaign: drop any previous journal so old results cannot be
    // replayed. --resume keeps it and re-executes only missing runs.
    std::error_code ec;
    std::filesystem::remove(
        std::filesystem::path(cfg.journal_dir) / engine::ResultJournal::kFileName, ec);
  }
  cfg.shard_timeout_ms =
      bench::UnsignedFlag(argc, argv, "--shard-timeout-ms=", cfg.shard_timeout_ms);
  cfg.shard_max_attempts =
      bench::UnsignedFlag(argc, argv, "--shard-max-attempts=", cfg.shard_max_attempts);
  cfg.poison_ordinal = bench::UnsignedFlag(argc, argv, "--poison=", cfg.poison_ordinal);
  cfg.chaos_kill_shard =
      bench::UnsignedFlag(argc, argv, "--chaos-kill-shard=", cfg.chaos_kill_shard);
  cfg.chaos_kill_after_results =
      bench::UnsignedFlag(argc, argv, "--chaos-kill-after=", cfg.chaos_kill_after_results);

  // The campaign runs the canonical operations on the "after" kernel; its
  // observed interrupt-response tails are checked against the WCET
  // analyzer's bound for that kernel (modelled cycles on both sides).
  obs::TailObservatory observatory;
  {
    const auto img = BuildKernelImage(KernelConfig::After());
    const WcetAnalyzer analyzer(*img, AnalysisOptions{});
    observatory.SetBound("after", analyzer.InterruptResponseBound());
  }
  cfg.observatory = &observatory;

  const CampaignReport report = RunCampaign(cfg);

  if (cfg.shards > 0 || !cfg.journal_dir.empty()) {
    // stderr, so stdout CSV byte-identity is untouched.
    std::fprintf(stderr, "%s\n", report.shard.Summary().c_str());
  }

  const std::string csv_path = FlagValue(argc, argv, "--csv=");
  if (!csv_path.empty()) {
    std::ofstream f(csv_path);
    report.WriteCsv(f);
  } else if (flags.csv) {
    report.WriteCsv(std::cout);
    bench::ExportMetricsJson(flags.metrics_json);
    return (report.failures() == 0 && !observatory.AnyExceedance()) ? 0 : 1;
  }

  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_mode;  // mode -> {runs, fail}
  for (const ScenarioResult& r : report.results) {
    auto& [runs, fails] = by_mode[r.mode];
    ++runs;
    if (!r.ok) {
      ++fails;
    }
  }
  std::printf("%s\n", report.Summary().c_str());
  for (const auto& [mode, counts] : by_mode) {
    std::printf("  %-11s %6llu scenarios, %llu failures\n", mode.c_str(),
                static_cast<unsigned long long>(counts.first),
                static_cast<unsigned long long>(counts.second));
  }
  for (const ScenarioResult& r : report.results) {
    if (!r.ok) {
      std::printf("  FAIL [%s/%s] plan=%s: %s\n", r.mode.c_str(), r.op.c_str(), r.plan.c_str(),
                  r.detail.c_str());
    }
  }
  std::printf("\n%s", observatory.RenderTable().c_str());
  if (observatory.AnyExceedance()) {
    std::printf("BOUND EXCEEDED: an enforced scenario's observed max passed the WCET bound.\n");
  }
  bench::ExportMetricsJson(flags.metrics_json);
  return (report.failures() == 0 && !observatory.AnyExceedance()) ? 0 : 1;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) { return pmk::Main(argc, argv); }
