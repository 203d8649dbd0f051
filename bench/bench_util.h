// Shared driver plumbing for the bench/ and examples/ binaries.
//
// Every driver historically grew its own ad-hoc flag parsing; --trace-json=
// in particular was supported by only two of twelve binaries. This helper
// centralises the common flag family:
//
//   --csv            machine-readable stdout (driver-specific meaning)
//   --quick          reduced iteration counts for CI smoke runs
//   --jobs=N         worker threads for engine fan-outs
//   --progress       decile progress lines on stderr (stdout untouched)
//   --no-telemetry   disable the obs metrics registry for this process
//   --trace-json=F   Chrome trace of a representative modelled run
//   --metrics-json=F JSONL snapshot of every metric at driver exit
//
// ParseCommonFlags also APPLIES the side-effecting flags (telemetry on/off,
// engine progress), so a driver's main starts with one call. All notes about
// exported files go to stderr: stdout stays byte-identical for goldens.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <limits>
#include <string>

#include "src/obs/chrome_trace.h"
#include "src/sim/report.h"

namespace pmk::bench {

struct CommonFlags {
  bool csv = false;
  bool quick = false;
  bool progress = false;
  bool no_telemetry = false;
  unsigned jobs = 1;
  std::string trace_json;    // empty = no trace export
  std::string metrics_json;  // empty = no metrics export
};

// Parses the common flag family and applies the side-effecting ones
// (MetricsRegistry::SetEnabled, engine::SetProgress). Unknown arguments are
// ignored — drivers keep parsing their own flags from the same argv.
CommonFlags ParseCommonFlags(int argc, char** argv);

// Parses |value|, the text after |flag| (e.g. "--seed="), as a plain unsigned
// decimal no larger than |max|. Anything else — empty, signed, a non-digit, or
// too large — is a usage error: names the flag on stderr and exits with
// status 2.
std::uint64_t ParseUnsignedFlag(const std::string& flag, const std::string& value,
                                std::uint64_t max);

// The value of |flag| parsed by ParseUnsignedFlag into a T, or |fallback|
// when the flag is absent or empty.
template <typename T>
T UnsignedFlag(int argc, char** argv, const std::string& flag, T fallback) {
  const std::string value = FlagValue(argc, argv, flag);
  if (value.empty()) {
    return fallback;
  }
  return static_cast<T>(
      ParseUnsignedFlag(flag, value, static_cast<std::uint64_t>(std::numeric_limits<T>::max())));
}

// True if |arg| belongs to the common family. wcet_tool, the only caller,
// uses it to reject every other unknown flag.
bool IsCommonFlag(const std::string& arg);

// Writes the process-wide metrics snapshot as JSONL to |path| (no-op when
// empty); logs the outcome to stderr. Call once, at driver exit.
void ExportMetricsJson(const std::string& path);

// Writes |writer|'s buffered events to |path| (no-op when empty); logs the
// outcome to stderr.
void WriteTraceJson(const ChromeTraceWriter& writer, const std::string& path);

// Process-wide trace buffer for drivers whose representative System lives
// deep inside a helper: attach it with sys.AttachTraceSink(&GlobalTrace())
// at the run worth inspecting, then WriteTraceJson(GlobalTrace(), path) at
// exit. Drivers with no modelled execution write a valid empty trace.
ChromeTraceWriter& GlobalTrace();

}  // namespace pmk::bench

#endif  // BENCH_BENCH_UTIL_H_
