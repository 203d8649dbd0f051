// The interrupt-response tail observatory.
//
// The paper proves a *worst-case* interrupt-response bound; the observatory
// tells the throughput-vs-tail story around it. Every modelled IRQ
// assert->deliver span observed by a sweep, a campaign mode or a TraceSink is
// accumulated into a LatencyHistogram keyed by (kernel config, scenario), and
// each config carries the statically analyzed
// WcetAnalyzer::InterruptResponseBound() for that kernel. The report then
// shows observed p50/p90/p99/max against the bound with a headroom ratio
// (bound / observed max), and AnyExceedance() drives a loud nonzero process
// exit when an *enforced* scenario ever beats the bound — soundness of the
// analysis, checked continuously instead of once per paper figure.
//
// Enforcement is per-scenario: canonical sweep and campaign latencies are
// kernel-induced and must stay under the bound; storm-mode latencies include
// device-side masking windows the kernel analysis deliberately excludes, so
// those rows are recorded and reported but not enforced.
//
// Like the rest of src/obs, the observatory is an observer, never an input:
// it is fed copies of histograms already collected on the deterministic
// path, so attaching it cannot perturb a campaign CSV or golden report.

#ifndef SRC_OBS_TAIL_OBSERVATORY_H_
#define SRC_OBS_TAIL_OBSERVATORY_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/hw/cycles.h"
#include "src/obs/histogram.h"
#include "src/obs/trace_sink.h"

namespace pmk::obs {

class TailObservatory {
 public:
  struct Row {
    std::string config;    // kernel-config label ("after", "after-pinned", ...)
    std::string scenario;  // scenario label ("sweep/retype", "campaign/storm", ...)
    LatencyHistogram hist;
    Cycles bound = 0;      // InterruptResponseBound for |config|; 0 = unknown
    bool enforced = true;  // exceedance counts toward AnyExceedance()

    // Controller-side robustness counters for the scenario (see
    // InterruptController): acks absorbed with no pending line, and asserts
    // coalesced into an already-pending one. Saturating device rings drive
    // the coalesce count; both are exported to CSV (not the table).
    std::uint64_t spurious_acks = 0;
    std::uint64_t coalesced_asserts = 0;

    bool exceeded() const { return bound != 0 && hist.max() > bound; }
    // bound / observed-max; 0 when either side is missing.
    double headroom() const;
  };

  // Associates the analyzed bound with every present and future row of
  // |config|. Thread-safe, idempotent.
  void SetBound(const std::string& config, Cycles bound);

  // Marks rows of |scenario| (any config) as informational: recorded and
  // reported, but exceedance does not fail the run.
  void SetUnenforced(const std::string& scenario);

  // Ensures the (config, scenario) row exists even if no IRQ ever fires, so
  // reports show an explicit n=0 row instead of silently omitting it.
  void Touch(const std::string& config, const std::string& scenario);

  void Record(const std::string& config, const std::string& scenario, Cycles latency);
  void RecordHistogram(const std::string& config, const std::string& scenario,
                       const LatencyHistogram& hist);

  // Accumulates interrupt-controller robustness counters into the row (the
  // caller harvests InterruptController::spurious_acks()/coalesced_asserts()
  // deltas on the deterministic path, like the histograms).
  void RecordIrqCounters(const std::string& config, const std::string& scenario,
                         std::uint64_t spurious_acks, std::uint64_t coalesced_asserts);

  // Rows sorted by (config, scenario). Thread-safe snapshot.
  std::vector<Row> Rows() const;

  bool AnyExceedance() const;

  // Aligned bound-vs-observed table; modelled cycles only, so output is
  // golden-able. Returns the rendered text.
  std::string RenderTable() const;
  // config,scenario,count,min,p50,p90,p99,max,bound,headroom,enforced,
  // exceeded,spurious_acks,coalesced_asserts
  void WriteCsv(std::ostream& os) const;

 private:
  struct Key {
    std::string config;
    std::string scenario;
    bool operator<(const Key& o) const {
      return config != o.config ? config < o.config : scenario < o.scenario;
    }
  };
  struct Cell {
    LatencyHistogram hist;
    std::uint64_t spurious_acks = 0;
    std::uint64_t coalesced_asserts = 0;
  };

  mutable std::mutex mu_;
  std::map<Key, Cell> cells_;
  std::map<std::string, Cycles> bounds_;        // by config
  std::map<std::string, bool> unenforced_;      // by scenario
};

// TraceSink adapter: harvests kIrqDeliver response latencies (arg1) from a
// live Runner/System trace stream into an observatory cell. Zero modelled
// cycle cost, like every sink.
class TailSink : public TraceSink {
 public:
  TailSink(TailObservatory* observatory, std::string config, std::string scenario)
      : observatory_(observatory), config_(std::move(config)),
        scenario_(std::move(scenario)) {}

  void OnEvent(const TraceEvent& event) override {
    if (event.kind == TraceEventKind::kIrqDeliver) {
      hist_.Record(static_cast<Cycles>(event.arg1));
    }
  }

  const LatencyHistogram& hist() const { return hist_; }

  // Merges everything seen so far into the observatory (call after the run;
  // also invoked by the destructor).
  void Flush();
  ~TailSink() override;

 private:
  TailObservatory* observatory_;
  std::string config_;
  std::string scenario_;
  LatencyHistogram hist_;
  bool flushed_ = false;
};

}  // namespace pmk::obs

#endif  // SRC_OBS_TAIL_OBSERVATORY_H_
