#include "src/fault/scenario.h"

#include <algorithm>
#include <stdexcept>

#include "src/engine/job_pool.h"
#include "src/kernel/error.h"
#include "src/obs/metrics.h"

namespace pmk {

namespace {

// Restarts a run may take beyond its injected lines before the progress
// audit fails it.
constexpr std::uint32_t kRestartSlack = 4;

// Fault-layer telemetry (observers only: recorded after the modelled run).
obs::Counter& RunCounter() {
  static obs::Counter c("fault.runs.executed");
  return c;
}
obs::Counter& ShrinkIterCounter() {
  static obs::Counter c("fault.shrink.iterations");
  return c;
}
obs::ValueHistogram& IrqResponseHist() {
  static obs::ValueHistogram h("fault.irq.response_cycles");
  return h;
}

// Root-CNode cap for CNode invocations (same idiom as the objops tests).
std::uint32_t CNodeCptrFor(System& sys) {
  Cap c;
  c.type = ObjType::kCNode;
  c.obj = sys.root()->base;
  return sys.AddCap(c);
}

void UnmaskPlanLines(System& sys, const InjectionPlan& plan) {
  for (const InjectionAction& a : plan.actions) {
    for (std::uint32_t i = 0; i < a.burst; ++i) {
      sys.machine().irq().Unmask((a.line + i) % InterruptController::kNumLines);
    }
  }
}

}  // namespace

ScenarioCheckpoint::ScenarioCheckpoint(const OpFactory& factory) : templ_(factory()) {
  if (templ_.actor != nullptr) {
    actor_base_ = templ_.actor->base;
  }
  ckpt_ = std::make_unique<engine::SystemCheckpoint>(*templ_.sys);
  templ_.sys.reset();       // the frozen image lives in ckpt_
  templ_.actor = nullptr;   // dangling once sys is gone; re-resolved per fork
}

OpInstance ScenarioCheckpoint::Fork() const {
  OpInstance inst;
  inst.sys = ckpt_->Fork();
  inst.op = templ_.op;
  inst.cptr = templ_.cptr;
  inst.args = templ_.args;
  if (actor_base_ != 0) {
    inst.actor = inst.sys->kernel().objects().Get<TcbObj>(actor_base_);
    if (inst.actor == nullptr) {
      throw std::logic_error("ScenarioCheckpoint::Fork: actor missing from forked heap");
    }
  }
  inst.on_preempted = templ_.on_preempted;
  inst.check_done = templ_.check_done;
  return inst;
}

RunRecord RunWithPlan(const OpFactory& factory, const InjectionPlan& plan,
                      const SweepOptions& /*opts*/,
                      const std::function<void(System&)>& sabotage) {
  return RunWithInstance(factory(), plan, sabotage);
}

RunRecord RunWithInstance(OpInstance inst, const InjectionPlan& plan,
                          const std::function<void(System&)>& sabotage) {
  System& sys = *inst.sys;

  FaultInjector inj(&sys.machine());
  inj.SetPlan(plan);
  if (sabotage) {
    inj.set_on_inject([&sys, &sabotage](const InjectionAction&) { sabotage(sys); });
  }
  sys.kernel().exec().set_fault_hook(&inj);

  RunRecord rec;
  rec.plan = plan.ToString();
  const std::uint64_t restart_bound = plan.TotalLines() + kRestartSlack;

  for (;;) {
    KernelExit e;
    try {
      e = sys.kernel().Syscall(inst.op, inst.cptr, inst.args);
    } catch (const ExecError& ex) {
      rec.exec_error = true;
      rec.detail = ex.what();
      break;
    } catch (const KernelError& ex) {
      rec.kernel_error = true;
      rec.detail = ex.what();
      break;
    }
    try {
      sys.kernel().CheckInvariants();
    } catch (const std::logic_error& ex) {
      rec.invariant_violation = true;
      rec.detail = ex.what();
      break;
    }
    if (e != KernelExit::kPreempted) {
      rec.completed = true;
      break;
    }
    ++rec.restarts;
    if (rec.restarts > restart_bound) {
      // Progress audit: each injected line can preempt the operation at most
      // once (the kernel masks an unbound line when it services it), so more
      // restarts than injected lines plus slack means no forward progress.
      rec.restart_overrun = true;
      rec.detail = "restart bound exceeded (" + std::to_string(rec.restarts) + " restarts for " +
                   std::to_string(plan.TotalLines()) + " injectable lines)";
      break;
    }
    UnmaskPlanLines(sys, plan);
    if (inst.on_preempted) {
      inst.on_preempted(sys);
    }
    // The scenario actor outranks every other thread, so it is still current
    // and re-issues the restartable call — mirroring the hardware sequence
    // where the preempted thread traps straight back in.
  }

  if (rec.completed) {
    // Drain injected lines the operation outlived (on a non-preemptible
    // kernel that is all of them): the interrupt is finally taken here, so
    // its recorded latency spans the whole un-preempted operation.
    try {
      while (sys.machine().irq().AnyPending()) {
        sys.kernel().HandleIrqEntry();
      }
      sys.kernel().CheckInvariants();
    } catch (const ExecError& ex) {
      rec.exec_error = true;
      rec.detail = ex.what();
    } catch (const std::logic_error& ex) {
      rec.invariant_violation = true;
      rec.detail = ex.what();
    }
  }

  rec.actions_fired = inj.actions_fired();
  rec.lines_asserted = inj.lines_asserted();
  rec.preempt_points = inj.preempt_points_seen();
  for (const Cycles lat : sys.kernel().irq_latencies()) {
    rec.max_irq_latency = std::max(rec.max_irq_latency, lat);
    rec.irq_hist.Record(lat);
  }

  if (rec.completed && inst.check_done) {
    try {
      inst.check_done(sys);
    } catch (const std::logic_error& ex) {
      rec.invariant_violation = true;
      rec.detail = ex.what();
    }
  }
  sys.kernel().exec().set_fault_hook(nullptr);
  RunCounter().Inc();
  IrqResponseHist().Merge(rec.irq_hist);
  return rec;
}

bool SweepResult::AllOk() const {
  if (!dry_run.ok()) {
    return false;
  }
  for (const RunRecord& r : runs) {
    if (!r.ok()) {
      return false;
    }
  }
  return true;
}

std::uint32_t SweepResult::MaxRestarts() const {
  std::uint32_t m = dry_run.restarts;
  for (const RunRecord& r : runs) {
    m = std::max(m, r.restarts);
  }
  return m;
}

InjectionPlan BoundaryPlan(std::uint64_t k) {
  InjectionPlan plan;
  InjectionAction a;
  a.trigger = InjectionAction::Trigger::kPreemptOrdinal;
  a.at = k;
  a.line = SweepOptions::kIrqLine;
  plan.actions.push_back(a);
  return plan;
}

SweepResult ExhaustiveIrqSweep(const OpFactory& factory, const SweepOptions& opts) {
  SweepResult res;
  res.dry_run = RunWithInstance(factory(), InjectionPlan{});
  res.preempt_points = res.dry_run.preempt_points;
  res.runs.resize(res.preempt_points);
  engine::RunJobs(res.preempt_points, opts.jobs, [&](std::size_t k) {
    res.runs[k] = RunWithInstance(factory(), BoundaryPlan(k));
  });
  return res;
}

InjectionPlan ShrinkPlan(const OpFactory& factory, const InjectionPlan& failing,
                         const SweepOptions& opts,
                         const std::function<void(System&)>& sabotage) {
  InjectionPlan cur = failing;
  bool shrunk = true;
  while (shrunk && cur.actions.size() > 1) {
    shrunk = false;
    for (std::size_t i = 0; i < cur.actions.size(); ++i) {
      ShrinkIterCounter().Inc();
      InjectionPlan candidate = cur;
      candidate.actions.erase(candidate.actions.begin() + static_cast<std::ptrdiff_t>(i));
      if (!RunWithPlan(factory, candidate, opts, sabotage).ok()) {
        cur = candidate;
        shrunk = true;
        break;  // restart the scan over the smaller plan
      }
    }
  }
  return cur;
}

// ---------- Canonical long-running operations ----------

OpFactory MakeRetypeCase(const KernelConfig& kc) {
  return [kc] {
    OpInstance inst;
    inst.sys = std::make_unique<System>(kc, EvalMachine(false));
    System& sys = *inst.sys;
    const std::uint32_t ut_cptr = sys.AddUntyped(19, nullptr);
    inst.actor = sys.AddThread(50);
    sys.kernel().DirectSetCurrent(inst.actor);

    inst.op = SysOp::kCall;
    inst.cptr = ut_cptr;
    inst.args.label = InvLabel::kUntypedRetype;
    inst.args.obj_type = ObjType::kFrame;
    inst.args.obj_bits = 18;  // 256 KiB -> 256 preemptible 1 KiB chunks
    inst.args.dest_index = 70;

    inst.check_done = [](System& s) {
      TcbObj* actor = s.kernel().current();
      if (actor->last_error != KError::kOk) {
        throw std::logic_error("retype: completed with error");
      }
      if (s.root()->slots[70].IsNull()) {
        throw std::logic_error("retype: destination slot still empty");
      }
    };
    return inst;
  };
}

OpFactory MakeEpDeleteCase(const KernelConfig& kc) {
  return [kc] {
    OpInstance inst;
    inst.sys = std::make_unique<System>(kc, EvalMachine(false));
    System& sys = *inst.sys;
    EndpointObj* ep = nullptr;
    const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
    sys.QueueSenders(ep, 40, {3, 5});
    inst.actor = sys.AddThread(50);
    sys.kernel().DirectSetCurrent(inst.actor);

    inst.op = SysOp::kCall;
    inst.cptr = CNodeCptrFor(sys);
    inst.args.label = InvLabel::kCNodeDelete;
    inst.args.arg0 = ep_cptr & 0xFF;

    const Addr ep_base = ep->base;
    inst.check_done = [ep_base](System& s) {
      if (s.kernel().objects().Get<EndpointObj>(ep_base) != nullptr) {
        throw std::logic_error("ep-delete: endpoint survived deletion");
      }
    };
    return inst;
  };
}

OpFactory MakeBadgedAbortCase(const KernelConfig& kc) {
  return [kc] {
    OpInstance inst;
    inst.sys = std::make_unique<System>(kc, EvalMachine(false));
    System& sys = *inst.sys;
    EndpointObj* ep = nullptr;
    const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
    Cap badged = sys.SlotOf(ep_cptr)->cap;
    badged.badge = 9;
    const std::uint32_t badged_cptr = sys.AddCap(badged, sys.SlotOf(ep_cptr));
    sys.QueueSenders(ep, 32, {9, 4});
    inst.actor = sys.AddThread(50);
    sys.kernel().DirectSetCurrent(inst.actor);

    inst.op = SysOp::kCall;
    inst.cptr = CNodeCptrFor(sys);
    inst.args.label = InvLabel::kCNodeRevoke;
    inst.args.arg0 = badged_cptr & 0xFF;

    const Addr ep_base = ep->base;
    inst.check_done = [ep_base](System& s) {
      EndpointObj* e = s.kernel().objects().Get<EndpointObj>(ep_base);
      if (e == nullptr) {
        throw std::logic_error("badged-abort: endpoint vanished");
      }
      if (e->abort.valid) {
        throw std::logic_error("badged-abort: resume state not cleared");
      }
    };
    return inst;
  };
}

}  // namespace pmk
