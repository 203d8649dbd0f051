#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/engine/job_pool.h"
#include "src/obs/metrics.h"
#include "src/sim/report.h"

namespace pmk::bench {

CommonFlags ParseCommonFlags(int argc, char** argv) {
  CommonFlags f;
  f.csv = HasFlag(argc, argv, "--csv");
  f.quick = HasFlag(argc, argv, "--quick");
  f.progress = HasFlag(argc, argv, "--progress");
  f.no_telemetry = HasFlag(argc, argv, "--no-telemetry");
  f.jobs = UnsignedFlag(argc, argv, "--jobs=", f.jobs);
  if (f.jobs == 0) {
    f.jobs = 1;
  }
  f.trace_json = FlagValue(argc, argv, "--trace-json=");
  f.metrics_json = FlagValue(argc, argv, "--metrics-json=");

  obs::MetricsRegistry::SetEnabled(!f.no_telemetry);
  engine::SetProgress(f.progress);
  return f;
}

std::uint64_t ParseUnsignedFlag(const std::string& flag, const std::string& value,
                                std::uint64_t max) {
  std::uint64_t v = 0;
  bool ok = !value.empty();
  for (const char c : value) {
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (c < '0' || c > '9' || v > (max - digit) / 10) {
      ok = false;
      break;
    }
    v = v * 10 + digit;
  }
  if (!ok) {
    std::fprintf(stderr, "%s%s: expected an unsigned decimal no larger than %llu\n",
                 flag.c_str(), value.c_str(), static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return v;
}

bool IsCommonFlag(const std::string& arg) {
  if (arg == "--csv" || arg == "--quick" || arg == "--progress" ||
      arg == "--no-telemetry") {
    return true;
  }
  for (const char* prefix : {"--jobs=", "--trace-json=", "--metrics-json="}) {
    if (arg.rfind(prefix, 0) == 0) {
      return true;
    }
  }
  return false;
}

void ExportMetricsJson(const std::string& path) {
  if (path.empty()) {
    return;
  }
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "failed to open %s\n", path.c_str());
    return;
  }
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Get().Snapshot();
  snap.WriteJsonl(os);
  std::fprintf(stderr, "wrote %s (%zu metrics)\n", path.c_str(), snap.rows.size());
}

ChromeTraceWriter& GlobalTrace() {
  static ChromeTraceWriter writer{ClockSpec{}};
  return writer;
}

void WriteTraceJson(const ChromeTraceWriter& writer, const std::string& path) {
  if (path.empty()) {
    return;
  }
  if (writer.WriteFile(path)) {
    std::fprintf(stderr, "wrote %s (%zu events)\n", path.c_str(), writer.events().size());
  } else {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  }
}

}  // namespace pmk::bench
