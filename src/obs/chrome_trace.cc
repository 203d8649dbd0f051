#include "src/obs/chrome_trace.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <set>

namespace pmk {

namespace {

constexpr int kKernelTid = 0;
constexpr int kUserTidBase = 100;

std::string JsonEscape(const char* s) {
  std::string out;
  if (s == nullptr) {
    return out;
  }
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class EventPrinter {
 public:
  explicit EventPrinter(std::ostream& os) : os_(os) {}

  // Starts one event object and emits the common fields.
  void Begin(const char* ph, const std::string& name, const char* cat, double ts, int pid,
             int tid) {
    os_ << (first_ ? "" : ",\n") << "  {\"name\":\"" << name << "\",\"cat\":\"" << cat
        << "\",\"ph\":\"" << ph << "\",\"ts\":" << Num(ts) << ",\"pid\":" << pid
        << ",\"tid\":" << tid;
    first_ = false;
  }
  void Field(const char* key, const std::string& raw_value) {
    os_ << ",\"" << key << "\":" << raw_value;
  }
  void End() { os_ << "}"; }

  static std::string Num(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
  }

 private:
  std::ostream& os_;
  bool first_ = true;
};

}  // namespace

void ChromeTraceWriter::Write(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  EventPrinter p(os);

  const auto us = [this](Cycles c) {
    return clock_.ToMicros(c);
  };

  // Track metadata.
  p.Begin("M", "process_name", "__metadata", 0, 0, kKernelTid);
  p.Field("args", "{\"name\":\"pmk (modelled ARM1136)\"}");
  p.End();
  p.Begin("M", "thread_name", "__metadata", 0, 0, kKernelTid);
  p.Field("args", "{\"name\":\"kernel\"}");
  p.End();
  std::set<std::uint32_t> named_threads;
  for (const TraceEvent& e : events_) {
    if (e.kind == TraceEventKind::kUserCompute && named_threads.insert(e.id).second) {
      char name[48];
      std::snprintf(name, sizeof(name), "{\"name\":\"thread %u\"}", e.id);
      p.Begin("M", "thread_name", "__metadata", 0, 0, kUserTidBase + static_cast<int>(e.id));
      p.Field("args", name);
      p.End();
    }
  }

  // Async-span ids: one fresh id per IRQ assertion, matched per line.
  std::map<std::uint32_t, std::uint64_t> open_irq;  // line -> span id
  std::uint64_t next_irq_id = 1;
  char buf[160];

  for (const TraceEvent& e : events_) {
    const std::string name = JsonEscape(e.name);
    switch (e.kind) {
      case TraceEventKind::kKernelEntry:
        p.Begin("B", name, "kernel", us(e.cycle), 0, kKernelTid);
        p.End();
        break;
      case TraceEventKind::kKernelExit:
        p.Begin("E", name, "kernel", us(e.cycle), 0, kKernelTid);
        p.End();
        break;
      case TraceEventKind::kSyscallOp:
        p.Begin("i", name, "syscall", us(e.cycle), 0, kKernelTid);
        p.Field("s", "\"t\"");
        std::snprintf(buf, sizeof(buf), "{\"cptr\":%llu}",
                      static_cast<unsigned long long>(e.arg0));
        p.Field("args", buf);
        p.End();
        break;
      case TraceEventKind::kBlockCost:
        p.Begin("X", name, "block", us(e.cycle - e.arg0), 0, kKernelTid);
        p.Field("dur", EventPrinter::Num(us(e.arg0)));
        std::snprintf(buf, sizeof(buf),
                      "{\"cycles\":%llu,\"l1i_miss\":%llu,\"l1d_miss\":%llu}",
                      static_cast<unsigned long long>(e.arg0),
                      static_cast<unsigned long long>(e.arg1),
                      static_cast<unsigned long long>(e.arg2));
        p.Field("args", buf);
        p.End();
        break;
      case TraceEventKind::kPreemptPointHit:
      case TraceEventKind::kPreemptPointTaken:
        p.Begin("i", name, "preempt", us(e.cycle), 0, kKernelTid);
        p.Field("s", "\"t\"");
        p.Field("args", e.kind == TraceEventKind::kPreemptPointTaken
                            ? "{\"taken\":true}"
                            : "{\"taken\":false}");
        p.End();
        break;
      case TraceEventKind::kIrqAssert: {
        const std::uint64_t id = next_irq_id++;
        open_irq[e.id] = id;
        std::snprintf(buf, sizeof(buf), "irq%u", e.id);
        p.Begin("b", buf, "irq", us(e.cycle), 0, kKernelTid);
        std::snprintf(buf, sizeof(buf), "\"%llu\"", static_cast<unsigned long long>(id));
        p.Field("id", buf);
        p.End();
        break;
      }
      case TraceEventKind::kIrqDeliver: {
        const auto it = open_irq.find(e.id);
        std::uint64_t id;
        if (it != open_irq.end()) {
          id = it->second;
          open_irq.erase(it);
        } else {
          // The assertion predates sink attachment: synthesize the begin
          // from the recorded assert cycle so the span still appears.
          id = next_irq_id++;
          std::snprintf(buf, sizeof(buf), "irq%u", e.id);
          p.Begin("b", buf, "irq", us(e.arg0), 0, kKernelTid);
          std::snprintf(buf, sizeof(buf), "\"%llu\"", static_cast<unsigned long long>(id));
          p.Field("id", buf);
          p.End();
        }
        std::snprintf(buf, sizeof(buf), "irq%u", e.id);
        p.Begin("e", buf, "irq", us(e.cycle), 0, kKernelTid);
        std::snprintf(buf, sizeof(buf), "\"%llu\"", static_cast<unsigned long long>(id));
        p.Field("id", buf);
        std::snprintf(buf, sizeof(buf), "{\"latency_cycles\":%llu}",
                      static_cast<unsigned long long>(e.arg1));
        p.Field("args", buf);
        p.End();
        break;
      }
      case TraceEventKind::kUserCompute:
        p.Begin("X", "compute", "user", us(e.cycle - e.arg0), 0,
                kUserTidBase + static_cast<int>(e.id));
        p.Field("dur", EventPrinter::Num(us(e.arg0)));
        p.End();
        break;
      case TraceEventKind::kThreadSwitch:
        p.Begin("i", "switch", "sched", us(e.cycle), 0, kKernelTid);
        p.Field("s", "\"t\"");
        std::snprintf(buf, sizeof(buf), "{\"thread\":%u}", e.id);
        p.Field("args", buf);
        p.End();
        break;
      case TraceEventKind::kIrqSpuriousAck:
        p.Begin("i", "spurious-ack", "irq", us(e.cycle), 0, kKernelTid);
        p.Field("s", "\"t\"");
        std::snprintf(buf, sizeof(buf), "{\"line\":%u}", e.id);
        p.Field("args", buf);
        p.End();
        break;
      case TraceEventKind::kIrqCoalesced:
        p.Begin("i", "coalesced", "irq", us(e.cycle), 0, kKernelTid);
        p.Field("s", "\"t\"");
        std::snprintf(buf, sizeof(buf), "{\"line\":%u,\"first_assert\":%llu}", e.id,
                      static_cast<unsigned long long>(e.arg0));
        p.Field("args", buf);
        p.End();
        break;
      case TraceEventKind::kFaultInject:
        p.Begin("i", "inject", "fault", us(e.cycle), 0, kKernelTid);
        p.Field("s", "\"t\"");
        std::snprintf(buf, sizeof(buf), "{\"line\":%u,\"ordinal\":%llu,\"burst\":%llu}", e.id,
                      static_cast<unsigned long long>(e.arg0),
                      static_cast<unsigned long long>(e.arg1));
        p.Field("args", buf);
        p.End();
        break;
    }
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

bool ChromeTraceWriter::WriteFile(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  Write(f);
  return static_cast<bool>(f);
}

}  // namespace pmk
