// Process-wide telemetry: a thread-safe metrics registry.
//
// Every subsystem (engine, wcet, fault, sim, bench drivers) records named
// counters, gauges and LatencyHistogram-backed timers/value distributions
// through cheap handles. The design goals, in order:
//
//  1. OBSERVER, NEVER INPUT. Nothing in this header reads back into modelled
//     state: recording a metric cannot change a campaign CSV, a WCET bound or
//     a golden report byte. The digest harness and the telemetry-on/off CI
//     diff enforce this.
//  2. Lock-cheap recording. Counters and histograms land in per-thread
//     shards guarded by a per-shard mutex that only the owning thread and a
//     snapshotting reader ever touch — uncontended in steady state, so a
//     record is a relaxed enabled-check, one lock-free CAS-acquired mutex and
//     an array write. Gauges are single process-wide atomics (writes are
//     rare: queue depths, shard progress).
//  3. Deterministic snapshots. Snapshot() merges shards commutatively
//     (counter sums, histogram bucket adds) and sorts rows by name, so the
//     merged result is independent of thread interleaving and shard count.
//
// Naming scheme: dot-separated "<subsystem>.<object>.<measure>[_unit]",
// e.g. "engine.checkpoint.fork_nanos", "wcet.memo.hit",
// "sim.irq.response_cycles". Wall-clock measures end in _nanos; modelled
// quantities in _cycles. Labels are folded into the name with
// ObsLabeled("fault.runs", "mode", "storm") -> "fault.runs{mode=storm}".
//
// Telemetry is ON by default (the instrumentation sits at run/solve
// granularity, not per modelled cycle — perfbench's obs.registry_overhead
// measures what leaving it on costs, per workload);
// MetricsRegistry::SetEnabled(false) turns every record site into a single
// relaxed load.

#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/obs/histogram.h"

namespace pmk::obs {

enum class MetricKind : std::uint8_t {
  kCounter,    // monotonically increasing count
  kGauge,      // last-written signed level (queue depth, progress)
  kTimer,      // LatencyHistogram of wall-clock nanoseconds
  kHistogram,  // LatencyHistogram of modelled values (cycles, sizes)
};
const char* MetricKindName(MetricKind kind);

// One merged metric in a snapshot.
struct MetricRow {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  std::uint64_t counter = 0;  // kCounter
  std::int64_t gauge = 0;     // kGauge
  LatencyHistogram hist;      // kTimer / kHistogram
};

// A point-in-time merge of every shard, rows sorted by name.
struct MetricsSnapshot {
  std::vector<MetricRow> rows;

  const MetricRow* Find(const std::string& name) const;
  std::uint64_t CounterValue(const std::string& name) const;  // 0 if absent

  // One JSON object per line ("{\"metric\":...,\"kind\":...,...}"), the
  // machine-readable export behind --metrics-json=.
  void WriteJsonl(std::ostream& os) const;
  // metric,kind,count,value,min,p50,p90,p99,max,mean
  void WriteCsv(std::ostream& os) const;
};

class MetricsRegistry {
 public:
  // Implementation types, public only so metrics.cc's thread-exit handle can
  // name them; not part of the API surface.
  struct Shard;
  struct Impl;

  // The process-wide registry. Intentionally leaked: instrumentation handles
  // live in function-local statics and thread shards retire from
  // thread_local destructors, so the registry must outlive both.
  static MetricsRegistry& Get();

  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }
  static void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  // Idempotent: one stable dense id per name; the kind of the first
  // registration wins. Thread-safe.
  std::uint32_t Register(MetricKind kind, const std::string& name);

  void Add(std::uint32_t id, std::uint64_t delta);
  void RecordValue(std::uint32_t id, std::uint64_t value);
  void MergeHistogram(std::uint32_t id, const LatencyHistogram& hist);
  void GaugeSet(std::uint32_t id, std::int64_t value);
  void GaugeAdd(std::uint32_t id, std::int64_t delta);

  MetricsSnapshot Snapshot();
  // Zeroes every counter, gauge and histogram (registrations survive).
  void Reset();

 private:
  MetricsRegistry();
  ~MetricsRegistry() = delete;

  Shard& LocalShard();

  static std::atomic<bool> enabled_;
  Impl* impl_;
};

// ---------------------------------------------------------------- handles
//
// Construct once (function-local static at the instrumentation site) and
// record through; recording with telemetry disabled is one relaxed load.

class Counter {
 public:
  explicit Counter(const char* name)
      : id_(MetricsRegistry::Get().Register(MetricKind::kCounter, name)) {}
  void Inc(std::uint64_t n = 1) const {
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().Add(id_, n);
    }
  }

 private:
  std::uint32_t id_;
};

class Gauge {
 public:
  explicit Gauge(const char* name)
      : id_(MetricsRegistry::Get().Register(MetricKind::kGauge, name)) {}
  void Set(std::int64_t v) const {
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().GaugeSet(id_, v);
    }
  }
  void Add(std::int64_t d) const {
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().GaugeAdd(id_, d);
    }
  }

 private:
  std::uint32_t id_;
};

// Distribution of modelled values (cycles, counts); unit is in the name.
class ValueHistogram {
 public:
  explicit ValueHistogram(const char* name)
      : id_(MetricsRegistry::Get().Register(MetricKind::kHistogram, name)) {}
  void Record(std::uint64_t v) const {
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().RecordValue(id_, v);
    }
  }
  void Merge(const LatencyHistogram& h) const {
    if (MetricsRegistry::Enabled() && !h.empty()) {
      MetricsRegistry::Get().MergeHistogram(id_, h);
    }
  }

 private:
  std::uint32_t id_;
};

// Wall-clock timer; Scope records steady_clock nanoseconds on destruction.
// When telemetry is disabled a Scope never reads the clock.
class Timer {
 public:
  explicit Timer(const char* name)
      : id_(MetricsRegistry::Get().Register(MetricKind::kTimer, name)) {}
  void RecordNanos(std::uint64_t ns) const {
    if (MetricsRegistry::Enabled()) {
      MetricsRegistry::Get().RecordValue(id_, ns);
    }
  }

  class Scope {
   public:
    explicit Scope(const Timer& t) : timer_(&t), armed_(MetricsRegistry::Enabled()) {
      if (armed_) {
        start_ = std::chrono::steady_clock::now();
      }
    }
    ~Scope() {
      if (armed_) {
        const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - start_)
                            .count();
        timer_->RecordNanos(static_cast<std::uint64_t>(ns));
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    const Timer* timer_;
    bool armed_;
    std::chrono::steady_clock::time_point start_;
  };
  Scope Measure() const { return Scope(*this); }

 private:
  std::uint32_t id_;
};

// "name{key=value}" — the label folding used throughout the registry.
std::string ObsLabeled(const std::string& name, const std::string& key,
                       const std::string& value);

}  // namespace pmk::obs

#endif  // SRC_OBS_METRICS_H_
