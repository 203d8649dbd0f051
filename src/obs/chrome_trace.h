// Chrome trace_event JSON exporter.
//
// Buffers TraceEvents and writes them in the Chrome tracing JSON Array /
// Object format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
//  - kernel entry/exit become duration ("B"/"E") events on the kernel track;
//  - block costs become complete ("X") events nested inside the kernel span;
//  - IRQ assert -> deliver pairs become async ("b"/"e") spans, one per
//    assertion, whose length is exactly the interrupt response time;
//  - syscall ops and preemption points become instant ("i") events;
//  - user compute bursts become "X" events on per-thread tracks.
// Timestamps are modelled cycles converted to microseconds at the machine's
// clock (the "ts" unit Perfetto expects).

#ifndef SRC_OBS_CHROME_TRACE_H_
#define SRC_OBS_CHROME_TRACE_H_

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/hw/cycles.h"
#include "src/obs/trace_sink.h"

namespace pmk {

class ChromeTraceWriter : public TraceSink {
 public:
  explicit ChromeTraceWriter(const ClockSpec& clock) : clock_(clock) {}

  // Event names are interned into writer-owned storage: producers (the kir
  // executor) point them at block-name strings owned by the running System,
  // and a process-wide writer (bench::GlobalTrace) outlives those Systems.
  void OnEvent(const TraceEvent& event) override {
    TraceEvent copy = event;
    if (copy.name != nullptr) {
      copy.name = names_.insert(copy.name).first->c_str();
    }
    events_.push_back(copy);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() {
    events_.clear();
    names_.clear();
  }

  // Serializes the buffered events as {"traceEvents":[...]}.
  void Write(std::ostream& os) const;

  // Convenience: Write() to |path|; returns false if the file cannot be
  // opened.
  bool WriteFile(const std::string& path) const;

 private:
  ClockSpec clock_;
  std::vector<TraceEvent> events_;
  std::set<std::string> names_;  // stable addresses backing events_[i].name
};

}  // namespace pmk

#endif  // SRC_OBS_CHROME_TRACE_H_
