#include "src/sim/latency.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace pmk {

namespace {

// Modelled IRQ assert->deliver spans, process-wide. Recorded after the
// modelled run from latencies the kernel already logged — zero modelled
// cycles, no feedback into any measurement.
obs::ValueHistogram& IrqResponseHist() {
  static obs::ValueHistogram h("sim.irq.response_cycles");
  return h;
}

}  // namespace

EntryScenario::EntryScenario(System& sys, EntryPoint entry) : sys_(sys), entry_(entry) {
  switch (entry) {
    case EntryPoint::kSyscall:
      ipc_ = sys.BuildWorstCaseIpc();
      break;
    case EntryPoint::kUndefined:
    case EntryPoint::kPageFault:
      fault_ = sys.BuildFaultHandlerScenario();
      break;
    case EntryPoint::kInterrupt:
      irq_ = sys.BuildIrqHandlerScenario();
      break;
  }
}

EntryScenario::Observation EntryScenario::Run() {
  Machine& m = sys_.machine();
  Kernel& k = sys_.kernel();
  m.PolluteCaches();
  if (entry_ == EntryPoint::kInterrupt) {
    // A previous delivery acknowledged and masked the line.
    m.irq().Unmask(0);
    m.irq().Assert(0, m.Now());
  }
  k.exec().StartRecording();
  const Cycles t0 = m.Now();
  switch (entry_) {
    case EntryPoint::kSyscall:
      k.Syscall(SysOp::kCall, ipc_.ep_cptr, ipc_.args);
      break;
    case EntryPoint::kUndefined:
      k.RaiseUndefined();
      break;
    case EntryPoint::kPageFault:
      k.RaisePageFault();
      break;
    case EntryPoint::kInterrupt:
      k.HandleIrqEntry();
      break;
  }
  Observation out;
  out.cycles = m.Now() - t0;
  out.path = k.exec().StopRecording();
  return out;
}

void EntryScenario::Restore() {
  Kernel& k = sys_.kernel();
  switch (entry_) {
    case EntryPoint::kSyscall:
      // The receiver replies and waits again.
      k.Syscall(SysOp::kReplyRecv, ipc_.reply_cptr, SyscallArgs{});
      break;
    case EntryPoint::kUndefined:
    case EntryPoint::kPageFault:
      // The pager handles the fault and waits again; the task resumes.
      k.Syscall(SysOp::kReplyRecv, fault_.ep_cptr, SyscallArgs{});
      k.DirectSetCurrent(fault_.task);
      break;
    case EntryPoint::kInterrupt:
      k.DirectBlockOnRecv(irq_.handler, irq_.ep);
      k.DirectSetCurrent(irq_.task);
      break;
  }
}

LongOpResult RunLongOpWithTimer(System& sys, SysOp op, std::uint32_t cptr,
                                const SyscallArgs& args, Cycles timer_period) {
  LongOpResult res;
  sys.kernel().ClearIrqLatencies();
  sys.machine().timer().set_period(timer_period);
  sys.machine().timer().Restart(sys.machine().Now());
  const Cycles t0 = sys.machine().Now();
  for (;;) {
    const KernelExit e = sys.kernel().Syscall(op, cptr, args);
    if (e == KernelExit::kPreempted) {
      res.preemptions++;
      // The preempted entry already serviced (acked + masked) the interrupt;
      // model the handler finishing and re-enabling the line.
      sys.machine().irq().Unmask(InterruptController::kTimerLine);
      continue;
    }
    break;
  }
  // An interrupt that arrived during a non-preemptible stretch is still
  // pending at kernel exit; the user is interrupted immediately, and the
  // response time includes the whole blackout.
  if (sys.machine().irq().AnyPending()) {
    sys.kernel().HandleIrqEntry();
    sys.machine().irq().Unmask(InterruptController::kTimerLine);
  }
  sys.machine().timer().set_period(0);
  res.total_cycles = sys.machine().Now() - t0;
  for (Cycles c : sys.kernel().irq_latencies()) {
    res.max_irq_latency = std::max(res.max_irq_latency, c);
    res.irq_hist.Record(c);
  }
  IrqResponseHist().Merge(res.irq_hist);
  return res;
}

void RecordIrqControllerMetrics(std::uint64_t spurious_acks,
                                std::uint64_t coalesced_asserts) {
  static obs::Counter spurious("sim.irq.spurious_acks");
  static obs::Counter coalesced("sim.irq.coalesced_asserts");
  if (spurious_acks > 0) {
    spurious.Inc(spurious_acks);
  }
  if (coalesced_asserts > 0) {
    coalesced.Inc(coalesced_asserts);
  }
}

}  // namespace pmk
