// Shared pieces of the perfbench binary: the span tracer, the recorded-digest
// table, the workload interface and small statistics helpers.
//
// Spans are recorded only around the benchmark's own calls into the pmk
// modules (hw, kir, kernel, sim, fault, engine, load, wcet, obs); nothing
// inside the program is instrumented. A layer's self time is its spans'
// duration minus the part covered by their child spans.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/digest.h"
#include "src/load/traffic.h"
#include "src/obs/metrics.h"

namespace perfbench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// The modules under src/, in dependency order. Span layers use these names.
inline const std::vector<std::string>& Layers() {
  static const std::vector<std::string> layers = {"hw",    "kir",    "kernel", "sim", "fault",
                                                  "engine", "load", "wcet",   "obs"};
  return layers;
}

// ------------------------------------------------------------------ tracing

struct Span {
  const char* layer = "";
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;
};

// In-memory span recorder for the main thread. Disabled, a Scope reads no
// clock and records nothing.
class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_ = on; }
  void Clear() { spans_.clear(); }
  // Re-adds spans taken from spans() earlier (parents stay within |spans|).
  void Append(const std::vector<Span>& spans);
  const std::vector<Span>& spans() const { return spans_; }

  class Scope {
   public:
    Scope(const char* layer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Duration so far (valid whether or not tracing is on).
    std::uint64_t elapsed_ns() const { return NowNs() - start_; }

   private:
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
    std::uint64_t start_ = 0;
  };

  // Self time per layer over every recorded span, in seconds.
  std::map<std::string, double> SelfSeconds() const;
  // Durations (ns) of the spans named |name| recorded at index |from| or later.
  std::vector<double> Durations(const std::string& name, std::size_t from = 0) const;

 private:
  bool enabled_ = false;
  std::int32_t current_ = -1;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------------ stats

double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);  // linear interpolation, q in [0,1]
double Iqr(const std::vector<double>& v);          // Q3 - Q1

// ------------------------------------------------------------------ digests

// Chained FNV-1a (src/base/digest.h) over byte strings and values.
class Digest {
 public:
  void Add(const void* data, std::size_t n) { h_ = pmk::Fnv1a64(data, n, h_); }
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  void Add(std::uint64_t v) { Add(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = pmk::kFnv64Offset;
};

// Recorded digests, one "<table> <key> <hex>" line each (perfbench/expected.txt).
class ExpectedTable {
 public:
  bool Load(const std::string& path);
  // Absent keys return false and leave |out| alone.
  bool Lookup(const std::string& table, const std::string& key, std::uint64_t* out) const;
  void Set(const std::string& table, const std::string& key, std::uint64_t v);
  bool Save(const std::string& path) const;

 private:
  std::map<std::string, std::uint64_t> rows_;  // "<table> <key>" -> digest
};

// ------------------------------------------------------------------ registry

// The program's own metrics registry (obs::MetricsRegistry) over an interval:
// constructing a window zeroes every metric, Read() snapshots it.
class RegistryWindow {
 public:
  RegistryWindow();
  pmk::obs::MetricsSnapshot Read() const;
};

// Sum / count / percentile of a timer or histogram row (0 when absent).
double HistSum(const pmk::obs::MetricsSnapshot& s, const std::string& name);
double HistCount(const pmk::obs::MetricsSnapshot& s, const std::string& name);
double HistPercentile(const pmk::obs::MetricsSnapshot& s, const std::string& name, double p);

// ------------------------------------------------------------------ workloads

struct UnitOutcome {
  std::uint64_t ops = 0;             // operations attempted in the unit
  std::uint64_t failed = 0;          // operations that failed a check
  std::uint64_t busy_ns = 0;         // host time inside the program's calls
  std::vector<double> latencies_ns;  // latency samples the unit contributes
};

struct RunOptions {
  std::uint64_t seed = 1;
  bool sabotage = false;  // self-test: make the campaign's own checks fail
  const ExpectedTable* expected = nullptr;
  bool record = false;  // --record: compute digests instead of checking them
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds everything up to the first timed unit (timed as setup_s).
  virtual void Setup() = 0;
  // Runs unit |i| of the seed's deterministic unit sequence.
  virtual UnitOutcome RunUnit(std::uint64_t i) = 0;
  // Checks made once after the timed loop; false fails the whole run.
  virtual bool VerifyAfterRun() { return true; }
  // Units replayed for the exact counts of the traced run.
  virtual std::uint64_t ReplayUnits() const = 0;
  // Units per block of the traced run's overhead measurement.
  virtual std::uint64_t BlockUnits() const = 0;
  // Runner steps the workload's units completed so far (traffic only).
  virtual std::uint64_t runner_steps() const { return 0; }
  // Sets every digest of the recorded table this workload checks (--record).
  virtual void Record(ExpectedTable& table) = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const RunOptions& opts);

// The traffic workload's sweep shape (traffic_workload's full shape, jobs=2).
pmk::load::TrafficOptions TrafficSweepOptions(std::uint64_t seed);

// ------------------------------------------------------------------ probes

// Fixed-input probes of each layer, run in every traced run. Adds the
// per-layer time metrics and the hw/kir probe counts to |out|.
void RunLayerProbes(std::map<std::string, double>& out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
