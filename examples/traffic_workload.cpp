// traffic_workload — saturating traffic against the modelled kernel.
//
// Boots a badged IPC client fleet (1000+ clients round-robined over a server
// pool through a dedicated one-level fleet CNode) plus a modelled NIC: an
// SPSC descriptor ring fed by a rate-controlled frame source on the device
// seam, drained by a two-phase driver (minimal-ISR ack at delivery, heavy
// per-frame work deferred to the driver loop). The harness then sweeps
// offered load — every arrival shape (open-loop, closed-loop, bursty storm)
// at every device inter-frame gap — with each scenario forked from one
// checkpointed boot, and checks the kernel-measured interrupt-response tail
// of every non-storm scenario against WcetAnalyzer::InterruptResponseBound()
// live. An enforced exceedance fails the run with a nonzero exit.
//
// Everything printed to stdout is modelled cycles/counts, byte-identical
// across hosts, across --jobs / --shards values and across journal resumes
// for a fixed seed (golden: tests/goldens/traffic_workload_quick.txt for
// --quick --seed=42). Shard supervision statistics vary with parallelism and
// go to stderr only. --journal=DIR works at any --shards value, 0 included.
//
// Usage:
//   traffic_workload [--quick] [--seed=N] [--jobs=N] [--csv]
//                    [--shards=N] [--journal=DIR] [--resume]
//                    [--metrics-json=F] [--progress] [--no-telemetry]

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench/bench_util.h"
#include "src/engine/journal.h"
#include "src/load/traffic.h"
#include "src/obs/tail_observatory.h"
#include "src/sim/report.h"
#include "src/sim/workload.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

int Main(int argc, char** argv) {
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);

  load::TrafficOptions opts;
  opts.jobs = flags.jobs;
  opts.seed = bench::UnsignedFlag(argc, argv, "--seed=", opts.seed);
  opts.shards = bench::UnsignedFlag(argc, argv, "--shards=", opts.shards);
  opts.journal_dir = FlagValue(argc, argv, "--journal=");
  if (!opts.journal_dir.empty() && !HasFlag(argc, argv, "--resume")) {
    // Fresh sweep: drop any previous journal so stale results cannot leak in.
    std::error_code ec;
    std::filesystem::remove(
        std::filesystem::path(opts.journal_dir) / engine::ResultJournal::kFileName, ec);
  }
  if (flags.quick) {
    // CI smoke shape: still a full thousand-client fleet over the whole
    // scenario grid, but a shorter modelled duration per scenario.
    opts.clients = 1000;
    opts.run_cycles = 260'000;
  } else {
    opts.clients = 2000;
    opts.servers = 16;
  }

  const auto img = BuildKernelImage(KernelConfig::After());
  const WcetAnalyzer analyzer(*img, AnalysisOptions{});
  const Cycles bound = analyzer.InterruptResponseBound();

  const load::TrafficReport report = load::RunTrafficSweep(opts);

  obs::TailObservatory observatory;
  observatory.SetBound("after", bound);
  load::FeedObservatory(report, observatory, "after");

  if (flags.csv) {
    load::WriteTrafficCsv(report, std::cout);
  } else {
    std::printf("Saturating traffic workload (seed=%llu, %u clients, %u servers)\n",
                static_cast<unsigned long long>(opts.seed), opts.clients, opts.servers);
    std::printf("analyzed bound (after kernel, L2 off): %llu cycles = %.1f us\n\n",
                static_cast<unsigned long long>(bound), ClockSpec{}.ToMicros(bound));
    std::printf("%s", load::RenderTrafficTable(report).c_str());
    std::printf("\n%s", observatory.RenderTable().c_str());
  }

  if (opts.shards > 0 || !opts.journal_dir.empty()) {
    // stderr, so the golden stdout is untouched.
    std::fprintf(stderr, "%s\n", report.shard.Summary().c_str());
  }

  const bool exceeded = observatory.AnyExceedance();
  if (exceeded) {
    std::fprintf(stderr,
                 "BOUND EXCEEDED: an enforced traffic scenario's observed interrupt\n"
                 "response passed the statically analyzed worst-case bound.\n");
  }
  bench::ExportMetricsJson(flags.metrics_json);
  return exceeded ? 1 : 0;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) { return pmk::Main(argc, argv); }
