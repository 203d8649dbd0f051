#include "src/sim/runner.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <stdexcept>

#include "src/obs/trace_sink.h"

namespace pmk {

namespace {

using ProgramIndex = std::vector<std::pair<const TcbObj*, std::uint32_t>>;

ProgramIndex::const_iterator Lookup(const ProgramIndex& index, const TcbObj* t) {
  return std::lower_bound(index.begin(), index.end(), t,
                          [](const auto& e, const TcbObj* key) {
                            return std::less<const TcbObj*>()(e.first, key);
                          });
}

}  // namespace

void Runner::SetProgram(TcbObj* t, std::vector<UserStep> program, bool loop) {
  if (program.empty()) {
    throw std::invalid_argument("Runner::SetProgram: a program needs at least one step");
  }
  ThreadProgram p;
  p.first = steps_.size();
  p.count = program.size();
  p.loop = loop;
  steps_.insert(steps_.end(), std::make_move_iterator(program.begin()),
                std::make_move_iterator(program.end()));
  const auto it = index_.empty() || std::less<const TcbObj*>()(index_.back().first, t)
                      ? index_.end()
                      : Lookup(index_, t);
  if (it != index_.end() && it->first == t) {
    programs_[it->second] = std::move(p);
    return;
  }
  index_.insert(it, {t, static_cast<std::uint32_t>(programs_.size())});
  programs_.push_back(std::move(p));
}

void Runner::Reserve(std::size_t programs, std::size_t steps) {
  programs_.reserve(programs);
  index_.reserve(programs);
  steps_.reserve(steps);
}

Runner::ThreadProgram* Runner::Find(const TcbObj* t) {
  const auto it = Lookup(index_, t);
  return it != index_.end() && it->first == t ? &programs_[it->second] : nullptr;
}

std::uint64_t Runner::StepsCompleted(const TcbObj* t) const {
  const auto it = Lookup(index_, t);
  return it != index_.end() && it->first == t ? programs_[it->second].completed : 0;
}

void Runner::DeliverIrq() {
  // Interrupts are taken immediately while userland runs.
  sys_->kernel().HandleIrqEntry();
  ReenableUnboundLines();
}

std::uint32_t Runner::ThreadOrdinal(const TcbObj* t) {
  const auto [it, inserted] = ordinals_.emplace(t, static_cast<std::uint32_t>(ordinals_.size()));
  (void)inserted;
  return it->second;
}

void Runner::NoteCurrentThread() {
  if (sink_ == nullptr) {
    return;
  }
  const TcbObj* cur = sys_->kernel().current();
  if (cur == last_traced_) {
    return;
  }
  last_traced_ = cur;
  TraceEvent ev;
  ev.kind = TraceEventKind::kThreadSwitch;
  ev.cycle = sys_->machine().Now();
  ev.name = cur == sys_->kernel().idle() ? "idle" : "thread";
  ev.id = ThreadOrdinal(cur);
  ev.arg1 = cur == sys_->kernel().idle() ? 0 : cur->base;
  sink_->OnEvent(ev);
}

void Runner::ReenableUnboundLines() {
  // The kernel masks a line when it services it; a bound line is re-enabled
  // by its handler's IRQAck. For unbound lines the runner plays the driver
  // and re-enables immediately, so periodic sources keep firing.
  for (std::uint32_t line = 0; line < InterruptController::kNumLines; ++line) {
    if (sys_->kernel().irq_binding(line) == nullptr) {
      sys_->machine().irq().Unmask(line);
    }
  }
}

std::uint64_t Runner::Run(Cycles duration) {
  Machine& m = sys_->machine();
  Kernel& k = sys_->kernel();
  const Cycles end = m.Now() + duration;
  std::uint64_t total_steps = 0;

  while (m.Now() < end) {
    if (disturbance_) {
      disturbance_(m.Now());
    }
    NoteCurrentThread();
    if (m.irq().AnyPending() && k.current() != k.idle()) {
      DeliverIrq();
      continue;
    }
    TcbObj* cur = k.current();
    if (cur == k.idle()) {
      // Fast-forward: nothing to run until the next timer firing (if any).
      if (m.timer().period() == 0) {
        break;  // nothing will ever wake the system
      }
      m.RawCycles(m.timer().period() / 4 + 1);
      if (m.irq().AnyPending()) {
        DeliverIrq();
      }
      continue;
    }
    ThreadProgram* const prog = Find(cur);
    if (prog == nullptr) {
      // No program: the thread just burns cycles (best-effort background).
      m.RawCycles(500);
      continue;
    }
    ThreadProgram& p = *prog;
    if (p.pc >= p.count) {
      if (!p.loop) {
        // Program finished: the thread yields forever.
        k.Syscall(SysOp::kYield, 0, SyscallArgs{});
        if (k.current() == cur) {
          m.RawCycles(200);  // nothing else runnable; idle-spin
        }
        continue;
      }
      p.pc = 0;
    }
    const UserStep* step = &steps_[p.first + p.pc];
    bool dynamic = false;
    if (step->kind == UserStep::Kind::kDynamic) {
      dynamic = true;
      if (!p.dyn_active.has_value()) {
        std::optional<UserStep> next = step->gen ? step->gen(*sys_) : std::nullopt;
        if (!next.has_value()) {
          // Generator exhausted: the dynamic step completes like any other.
          p.pc++;
          p.completed++;
          total_steps++;
          if (hook_) {
            hook_(cur, p.pc - 1);
          }
          continue;
        }
        p.dyn_active = std::move(next);
      }
      step = &*p.dyn_active;
    }
    bool step_done = false;
    switch (step->kind) {
      case UserStep::Kind::kCompute: {
        const Cycles left = p.compute_left > 0 ? p.compute_left : step->compute;
        if (compute_slice_ > 0 && left > compute_slice_) {
          // Partial burst: burn one slice, then loop back so devices and
          // pending interrupts are re-checked before the next slice.
          m.RawCycles(compute_slice_);
          p.compute_left = left - compute_slice_;
          continue;
        }
        m.RawCycles(left);
        p.compute_left = 0;
        if (sink_ != nullptr) {
          TraceEvent ev;
          ev.kind = TraceEventKind::kUserCompute;
          ev.cycle = m.Now();
          ev.name = "compute";
          ev.id = ThreadOrdinal(cur);
          ev.arg0 = step->compute;
          ev.arg1 = cur->base;
          sink_->OnEvent(ev);
        }
        step_done = true;
        break;
      }
      case UserStep::Kind::kSyscall: {
        const KernelExit e = k.Syscall(step->op, step->cptr, step->args);
        if (e == KernelExit::kPreempted) {
          // Restartable system call: keep the program counter (and any
          // in-flight dynamic sub-step) in place; the thread re-issues the
          // same syscall when it next runs. The interrupt was serviced (and
          // its line masked) inside the entry.
          ReenableUnboundLines();
          break;
        }
        step_done = true;
        break;
      }
      case UserStep::Kind::kDynamic:
        // A generator must yield concrete sub-steps; a nested dynamic step
        // completes as a no-op rather than recursing.
        step_done = true;
        break;
    }
    if (!step_done) {
      continue;
    }
    if (dynamic) {
      p.dyn_active.reset();  // next visit consults the generator again
    } else {
      p.pc++;
    }
    p.completed++;
    total_steps++;
    if (hook_) {
      hook_(cur, dynamic ? p.pc : (p.pc == 0 ? p.count - 1 : p.pc - 1));
    }
  }
  return total_steps;
}

}  // namespace pmk
