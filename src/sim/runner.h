// User-program runner: scripted userland on top of the kernel.
//
// Each thread gets a program — a sequence of compute bursts and system calls
// — and the runner drives the whole system the way hardware would: the
// current thread executes its next step, pending interrupts preempt userland
// immediately, preempted (restartable) system calls are re-issued when the
// thread runs again, and idle time fast-forwards to the next timer firing.
// This is the substrate for the mixed-criticality example and for
// integration tests that need realistic multi-threaded schedules.

#ifndef SRC_SIM_RUNNER_H_
#define SRC_SIM_RUNNER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/sim/workload.h"

namespace pmk {

class TraceSink;

struct UserStep {
  enum class Kind : std::uint8_t { kCompute, kSyscall, kDynamic };
  Kind kind = Kind::kCompute;
  Cycles compute = 0;  // kCompute: cycles of user-mode work

  // kSyscall:
  SysOp op = SysOp::kYield;
  std::uint32_t cptr = 0;
  SyscallArgs args;

  // kDynamic: a generator consulted each time the thread is scheduled at this
  // step. It returns the next concrete sub-step (kCompute or kSyscall) to
  // execute in place, or nullopt to complete the dynamic step and advance.
  // This is how event-driven threads (e.g. the two-phase NIC driver in
  // src/load) script themselves against live system state: the generator may
  // inspect — but not enter — the kernel. A preempted sub-syscall is
  // re-issued without re-consulting the generator, preserving the
  // restartable-syscall contract.
  using Generator = std::function<std::optional<UserStep>(System&)>;
  Generator gen;

  static UserStep Compute(Cycles c) {
    UserStep s;
    s.kind = Kind::kCompute;
    s.compute = c;
    return s;
  }
  static UserStep Syscall(SysOp op, std::uint32_t cptr, SyscallArgs args = {}) {
    UserStep s;
    s.kind = Kind::kSyscall;
    s.op = op;
    s.cptr = cptr;
    s.args = args;
    return s;
  }
  static UserStep Dynamic(Generator g) {
    UserStep s;
    s.kind = Kind::kDynamic;
    s.gen = std::move(g);
    return s;
  }
};

class Runner {
 public:
  explicit Runner(System* sys) : sys_(sys) {}

  // Installs |program| for |t|, replacing any program |t| had. When |loop| is
  // set the program restarts from the beginning after its last step.
  void SetProgram(TcbObj* t, std::vector<UserStep> program, bool loop = true);

  // Optional per-step hook, called after each completed step with the thread
  // and its step index (before advancing).
  void SetStepHook(std::function<void(TcbObj*, std::size_t)> hook) { hook_ = std::move(hook); }

  // Attaches a sink for user-side events: compute bursts (kUserCompute) and
  // thread switches (kThreadSwitch). Kernel-side events come from
  // System::AttachTraceSink; attach the same sink to both for a full trace.
  void set_trace_sink(TraceSink* sink) { sink_ = sink; }

  // Optional device-side disturbance, called with the current cycle at the
  // top of every scheduling iteration — i.e. at every point where hardware
  // could act while userland runs. Fault campaigns use this to assert IRQ
  // storms and spurious acks against the controller; the hook must not enter
  // the kernel itself (the runner delivers any pending interrupt right after).
  void SetDisturbance(std::function<void(Cycles)> hook) { disturbance_ = std::move(hook); }

  // Opt-in compute slicing: a kCompute burst longer than |slice| advances the
  // machine in |slice|-cycle chunks, re-checking devices and pending
  // interrupts between chunks, instead of as one atomic block. This bounds
  // the latency a user-mode think burst can add to modelled IRQ delivery —
  // the saturation workloads need it so client compute never dominates the
  // measured response tail. 0 (the default) keeps the historical atomic
  // behaviour; traces and hooks still fire once, at burst completion.
  void SetComputeSliceCycles(Cycles slice) { compute_slice_ = slice; }

  // Runs the system for |duration| modelled cycles (approximately: the last
  // step may overshoot). Returns the number of steps completed.
  std::uint64_t Run(Cycles duration);

  // Steps completed by |t| so far.
  std::uint64_t StepsCompleted(const TcbObj* t) const;

 private:
  struct ThreadProgram {
    std::vector<UserStep> steps;
    bool loop = true;
    std::size_t pc = 0;           // next step
    std::uint64_t completed = 0;
    Cycles compute_left = 0;      // sliced kCompute: cycles still to burn
    std::optional<UserStep> dyn_active;  // in-flight sub-step of a kDynamic step
  };

  // |t|'s program, or null.
  ThreadProgram* Find(const TcbObj* t);

  // Delivers a pending interrupt from userland.
  void DeliverIrq();
  // Re-enables serviced lines that have no handler endpoint bound.
  void ReenableUnboundLines();

  // Stable small ordinal per TCB for trace track ids (assigned on first use).
  std::uint32_t ThreadOrdinal(const TcbObj* t);
  // Emits kThreadSwitch when the scheduled thread changed since last noted.
  void NoteCurrentThread();

  System* sys_;
  Cycles compute_slice_ = 0;  // 0 = atomic compute bursts (historical)
  // One flat table: the programs in binding order, and an index sorted by
  // thread pointer into them. The pointer order is only ever searched, never
  // walked, so no modelled result depends on host addresses.
  std::vector<ThreadProgram> programs_;
  std::vector<std::pair<const TcbObj*, std::uint32_t>> index_;
  std::function<void(TcbObj*, std::size_t)> hook_;
  std::function<void(Cycles)> disturbance_;
  TraceSink* sink_ = nullptr;
  std::map<const TcbObj*, std::uint32_t> ordinals_;
  const TcbObj* last_traced_ = nullptr;
};

}  // namespace pmk

#endif  // SRC_SIM_RUNNER_H_
