#include "src/fault/injector.h"

#include "src/hw/irq.h"
#include "src/obs/trace_sink.h"

namespace pmk {

std::string InjectionPlan::ToString() const {
  std::string s;
  for (const InjectionAction& a : actions) {
    if (!s.empty()) {
      s += ';';
    }
    s += a.trigger == InjectionAction::Trigger::kPreemptOrdinal ? "pp@" : "cyc@";
    s += std::to_string(a.at);
    s += ":l";
    s += std::to_string(a.line);
    if (a.burst != 1) {
      s += 'x';
      s += std::to_string(a.burst);
    }
  }
  return s.empty() ? "none" : s;
}

std::uint64_t InjectionPlan::TotalLines() const {
  std::uint64_t n = 0;
  for (const InjectionAction& a : actions) {
    n += a.burst;
  }
  return n;
}

void FaultInjector::SetPlan(InjectionPlan plan) {
  plan_ = std::move(plan);
  fired_.assign(plan_.actions.size(), false);
  preempt_points_seen_ = 0;
  actions_fired_ = 0;
  lines_asserted_ = 0;
}

void FaultInjector::OnBlock(BlockId b, bool is_preemption_point) {
  (void)b;
  const std::uint64_t pp_ordinal = preempt_points_seen_;
  if (is_preemption_point) {
    ++preempt_points_seen_;
  }
  for (std::size_t i = 0; i < plan_.actions.size(); ++i) {
    if (fired_[i]) {
      continue;
    }
    const InjectionAction& a = plan_.actions[i];
    const bool due =
        a.trigger == InjectionAction::Trigger::kPreemptOrdinal
            ? (is_preemption_point && pp_ordinal == a.at)
            : machine_->Now() >= a.at;
    if (due) {
      fired_[i] = true;
      Fire(a);
    }
  }
}

void FaultInjector::Fire(const InjectionAction& a) {
  const Cycles now = machine_->Now();
  for (std::uint32_t i = 0; i < a.burst; ++i) {
    machine_->irq().Assert((a.line + i) % InterruptController::kNumLines, now);
    ++lines_asserted_;
  }
  ++actions_fired_;
  if (sink_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kFaultInject;
    e.cycle = now;
    e.name = "inject";
    e.id = a.line;
    e.arg0 = a.at;
    e.arg1 = a.burst;
    sink_->OnEvent(e);
  }
  if (on_inject_) {
    on_inject_(a);
  }
}

}  // namespace pmk
