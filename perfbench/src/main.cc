// perfbench — the reproduction's end-to-end benchmark.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--expected FILE] [--sabotage]
//   perfbench --record FILE
//
// Untraced (--trace 0): sets the workload up, runs its units in a closed loop
// for S seconds with a fresh, timed set-up every 0.4 s, and reports the
// end-to-end metrics. Traced (--trace 1): replays a fixed prefix of the
// workload's units for exact per-seed counts, measures the tracing and
// metrics-registry overheads on alternating blocks of identical units, runs
// the fixed layer probes and reports the per-layer metrics. Either way the
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --record regenerates the table of digests the units are checked against.

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "perfbench/src/bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"kernel.boot_ns_per_object.1k", "ns"},
    {"kernel.boot_ns_per_object.16k", "ns"},
    {"kernel.clone_ns_per_object.1k", "ns"},
    {"kernel.clone_ns_per_object.16k", "ns"},
    {"kernel.clone_ns_per_object", "ns"},
    {"kernel.find_ns", "ns"},
    {"kernel.audit_calls", "count"},
    {"kernel.audit_ns_per_call", "ns"},
    {"kir.blocks_charged", "count"},
    {"kir.exec_ns_per_block", "ns"},
    {"hw.l1i_accesses", "count"},
    {"hw.l1d_accesses", "count"},
    {"hw.l2_accesses", "count"},
    {"hw.l1d_miss_ratio", "ratio"},
    {"hw.branch_mispredicts", "count"},
    {"hw.exec_ns_per_access", "ns"},
    {"engine.forks", "count"},
    {"engine.fork_s", "s"},
    {"engine.freeze_s", "s"},
    {"engine.job_wall_p50_ms", "ms"},
    {"engine.parallel_efficiency", "ratio"},
    {"load.boot_s", "s"},
    {"load.frames_processed", "count"},
    {"load.requests_served", "count"},
    {"sim.runner_steps", "count"},
    {"sim.ns_per_step", "ns"},
    {"fault.runs", "count"},
    {"fault.seed_s", "s"},
    {"wcet.graph_s", "s"},
    {"wcet.loopbound_s", "s"},
    {"wcet.cost_s", "s"},
    {"wcet.ipet_build_s", "s"},
    {"wcet.ilp_s", "s"},
    {"wcet.stage_timer_ratio", "ratio"},
    {"wcet.simplex_pivots", "count"},
    {"wcet.refactorisations", "count"},
    {"wcet.bb_nodes", "count"},
    {"wcet.memo_hit_ratio", "ratio"},
    {"wcet.inc.hit_ratio", "ratio"},
    {"wcet.inc.warm_ratio", "ratio"},
    {"wcet.inc.rows_patched", "count"},
    {"wcet.serve.edit_us", "us"},
    {"wcet.serve.bound_us", "us"},
    {"wcet.serve.analyze_us", "us"},
    {"obs.registry_overhead", "ratio"},
    {"obs.registry_overhead_iqr", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.trace_overhead_iqr", "ratio"},
    {"hw.self_s", "s"},
    {"kir.self_s", "s"},
    {"kernel.self_s", "s"},
    {"sim.self_s", "s"},
    {"fault.self_s", "s"},
    {"engine.self_s", "s"},
    {"load.self_s", "s"},
    {"wcet.self_s", "s"},
    {"obs.self_s", "s"},
};

// What one operation is, per workload (for the human-readable summary).
const char* OpsName(const std::string& workload) {
  if (workload == "wcet_cold") {
    return "analyses_per_s";
  }
  if (workload == "wcet_edit") {
    return "requests_per_s";
  }
  return "scenarios_per_s";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string expected = "perfbench/expected.txt";
  bool sabotage = false;
  std::string record;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--sabotage") {
      a.sabotage = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = std::stoi(v);
    } else if (flag == "--expected") {
      a.expected = v;
    } else if (flag == "--record") {
      a.record = v;
    } else {
      return false;
    }
  }
  return !a.record.empty() || (!a.workload.empty() && a.seconds > 0);
}

// The process's resident high-water mark (VmHWM). Unlike getrusage's
// ru_maxrss it starts afresh at exec, so the launcher's memory is not in it.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void Add(const UnitOutcome& u) {
    attempted += u.ops;
    failed += u.failed;
  }
};

// Builds the workload once, with its warm-up unit; appends the seconds that
// took to |times|.
std::unique_ptr<Workload> SetUp(const std::string& name, const RunOptions& opts,
                                std::vector<double>& times, Totals& totals) {
  const std::uint64_t t0 = NowNs();
  auto w = MakeWorkload(name, opts);
  w->Setup();
  totals.Add(w->RunUnit(0));
  times.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  return w;
}

void PrintResult(const Totals& t, const std::map<std::string, double>& values,
                 const MetricSpec* specs, std::size_t n) {
  std::string out = "{\"correct\": ";
  out += t.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(t.attempted);
  out += ", \"failed\": " + std::to_string(t.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = values.find(specs[i].name);
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", it == values.end() ? 0.0 : it->second);
    out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// A fresh set-up is timed every kSetupEveryNs of the run, and setup_s is the
// median of them all. A shared host can run 1.5-1.7x slower for anything
// from a fraction of a second to several seconds. Set-ups made back to back
// all land in one such state; spread over the run, they sample the same mix
// of states as the timed units.
constexpr std::uint64_t kSetupEveryNs = 400'000'000;

int RunUntraced(const Args& a, const RunOptions& opts) {
  Totals totals;
  std::map<std::string, double> m;
  std::vector<double> setups;
  auto w = SetUp(a.workload, opts, setups, totals);

  // Closed loop. Throughput is operations over the program's own time for
  // the whole run. When the host flips between fast and slow states, it
  // moves in proportion to the time spent in each, where a median over short
  // windows jumps from one state's value to the other's. The extra set-ups
  // between units are not counted in it.
  std::vector<double> latencies;
  std::uint64_t ops = 0;
  std::uint64_t busy_ns = 0;
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(a.seconds * 1e9);
  std::uint64_t next_setup = NowNs() + kSetupEveryNs;
  for (std::uint64_t i = 0; i == 0 || NowNs() < deadline; ++i) {
    if (NowNs() >= next_setup) {
      SetUp(a.workload, opts, setups, totals);
      next_setup = NowNs() + kSetupEveryNs;
    }
    const UnitOutcome u = w->RunUnit(i);
    totals.Add(u);
    latencies.insert(latencies.end(), u.latencies_ns.begin(), u.latencies_ns.end());
    ops += u.ops;
    busy_ns += u.busy_ns;
  }
  if (!w->VerifyAfterRun()) {
    totals.failed = totals.attempted;
  }
  m["setup_s"] = Median(setups);
  m["ops_per_s"] = static_cast<double>(ops) / (static_cast<double>(busy_ns) * 1e-9);
  m["latency_p50_ms"] = Quantile(latencies, 0.5) * 1e-6;
  m["peak_rss_mb"] = PeakRssMiB();

  std::fprintf(stderr,
               "%s seed=%llu: %s=%.1f setup_s=%.4f (%zu set-ups) latency_p50_ms=%.3f "
               "latency_p90_ms=%.3f (%zu samples) peak_rss_mb=%.1f error_rate=%.4f (%llu/%llu)\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               OpsName(a.workload), m["ops_per_s"], m["setup_s"], setups.size(), m["latency_p50_ms"],
               Quantile(latencies, 0.9) * 1e-6, latencies.size(), m["peak_rss_mb"],
               totals.attempted == 0 ? 1.0
                                     : static_cast<double>(totals.failed) /
                                           static_cast<double>(totals.attempted),
               static_cast<unsigned long long>(totals.failed),
               static_cast<unsigned long long>(totals.attempted));
  PrintResult(totals, m, kEndToEnd, std::size(kEndToEnd));
  return 0;
}

double Ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : static_cast<double>(a) / static_cast<double>(b);
}

// Exact per-seed counts over the replay of the workload's first units.
void ReplayCounts(Workload& w, Totals& totals, std::map<std::string, double>& m) {
  const std::uint64_t steps0 = w.runner_steps();
  const RegistryWindow window;
  for (std::uint64_t i = 0; i < w.ReplayUnits(); ++i) {
    totals.Add(w.RunUnit(i));
  }
  const pmk::obs::MetricsSnapshot s = window.Read();
  const auto c = [&s](const char* name) { return s.CounterValue(name); };
  m["kernel.audit_calls"] = static_cast<double>(c("fault.invariant.checks"));
  m["kir.blocks_charged"] = static_cast<double>(c("sim.exec.blocks_charged"));
  m["engine.forks"] = static_cast<double>(c("engine.checkpoint.forks"));
  m["load.frames_processed"] = static_cast<double>(c("load.frames.processed"));
  m["load.requests_served"] = static_cast<double>(c("load.requests.served"));
  m["sim.runner_steps"] = static_cast<double>(w.runner_steps() - steps0);
  m["fault.runs"] = static_cast<double>(c("fault.runs.executed"));
  m["wcet.simplex_pivots"] = static_cast<double>(c("wcet.simplex.pivots"));
  m["wcet.refactorisations"] = static_cast<double>(c("wcet.simplex.refactorisations"));
  m["wcet.bb_nodes"] = static_cast<double>(c("wcet.bb.nodes"));
  m["wcet.memo_hit_ratio"] = Ratio(c("wcet.memo.hit"), c("wcet.memo.hit") + c("wcet.memo.miss"));
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  for (const char* stage : {"graph", "loopbound", "cost", "ipet"}) {
    const std::string base = std::string("wcet.inc.") + stage;
    hits += c((base + ".hit").c_str());
    lookups += c((base + ".hit").c_str()) + c((base + ".miss").c_str());
  }
  m["wcet.inc.hit_ratio"] = Ratio(hits, lookups);
  m["wcet.inc.warm_ratio"] = Ratio(c("wcet.inc.simplex.warm"),
                                   c("wcet.inc.simplex.warm") + c("wcet.inc.simplex.cold"));
  m["wcet.inc.rows_patched"] = static_cast<double>(c("wcet.inc.rows_patched"));
}

// Alternating blocks of identical units in three modes: plain (the default:
// registry on, no spans), traced (spans on) and registry off. Per block the
// overheads are traced/plain - 1 and plain/off - 1; medians and IQRs.
void Overheads(Workload& w, double seconds, Totals& totals, std::map<std::string, double>& m) {
  std::vector<double> trace_ov;
  std::vector<double> registry_ov;
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t n = w.BlockUnits();
  for (std::uint64_t b = 0; NowNs() < deadline || trace_ov.size() < 3; ++b) {
    double busy[3] = {};
    for (std::uint64_t k = 0; k < 3; ++k) {
      const std::uint64_t mode = (b + k) % 3;
      Tracer::Get().set_enabled(mode == 1);
      pmk::obs::MetricsRegistry::SetEnabled(mode != 2);
      // Units past the replayed prefix, so every block runs fresh inputs.
      for (std::uint64_t i = b * n; i < (b + 1) * n; ++i) {
        const UnitOutcome u = w.RunUnit(1000 + i);
        totals.Add(u);
        busy[mode] += static_cast<double>(u.busy_ns);
      }
    }
    trace_ov.push_back(busy[1] / busy[0] - 1);
    registry_ov.push_back(busy[0] / busy[2] - 1);
  }
  pmk::obs::MetricsRegistry::SetEnabled(true);
  Tracer::Get().set_enabled(false);
  Tracer::Get().Clear();
  m["bench.trace_overhead"] = Median(trace_ov);
  m["bench.trace_overhead_iqr"] = Iqr(trace_ov);
  m["obs.registry_overhead"] = Median(registry_ov);
  m["obs.registry_overhead_iqr"] = Iqr(registry_ov);
}

int RunTraced(const Args& a, const RunOptions& opts) {
  Totals totals;
  std::map<std::string, double> m;
  std::vector<double> setups;
  auto w = SetUp(a.workload, opts, setups, totals);

  Tracer::Get().set_enabled(true);
  ReplayCounts(*w, totals, m);
  const std::vector<Span> replay = Tracer::Get().spans();
  Tracer::Get().set_enabled(false);
  Tracer::Get().Clear();

  Overheads(*w, a.seconds * 0.7, totals, m);
  if (!w->VerifyAfterRun()) {
    totals.failed = totals.attempted;
  }

  Tracer::Get().set_enabled(true);
  Tracer::Get().Append(replay);
  RunLayerProbes(m);
  for (const auto& [layer, self_s] : Tracer::Get().SelfSeconds()) {
    m[layer + ".self_s"] = self_s;
  }
  std::fprintf(stderr, "%s seed=%llu traced: %zu spans, trace overhead %.4f, registry %.4f\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               Tracer::Get().spans().size(), m["bench.trace_overhead"],
               m["obs.registry_overhead"]);
  PrintResult(totals, m, kPerLayer, std::size(kPerLayer));
  return 0;
}

int Record(const std::string& path) {
  ExpectedTable table;
  RunOptions opts;
  opts.record = true;
  for (const char* name : {"campaign", "traffic", "wcet_cold", "wcet_edit"}) {
    const auto w = MakeWorkload(name, opts);
    w->Setup();
    w->Record(table);
    std::fprintf(stderr, "recorded %s\n", name);
  }
  return table.Save(path) ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "[--expected FILE] [--sabotage] | --record FILE\n");
    return 2;
  }
  if (!a.record.empty()) {
    return Record(a.record);
  }
  ExpectedTable expected;
  if (!expected.Load(a.expected)) {
    std::fprintf(stderr, "perfbench: cannot read recorded digests %s\n", a.expected.c_str());
    return 2;
  }
  RunOptions opts;
  opts.seed = a.seed;
  opts.sabotage = a.sabotage;
  opts.expected = &expected;
  if (MakeWorkload(a.workload, opts) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  return a.trace != 0 ? RunTraced(a, opts) : RunUntraced(a, opts);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
