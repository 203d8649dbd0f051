// Workload and scenario builders for tests, examples and benchmarks.
//
// A System couples one modelled machine with one kernel instance and offers
// helpers that construct the scenarios of the paper's evaluation: pathological
// capability spaces (Figure 7), deep endpoint queues (Sections 3.3/3.4),
// stale lazy-scheduling run queues (Section 3.1), and the worst-case IPC
// (Section 6.1).

#ifndef SRC_SIM_WORKLOAD_H_
#define SRC_SIM_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/kernel/kernel.h"

namespace pmk {

class TraceSink;

class System {
 public:
  System(const KernelConfig& kernel_config, const MachineConfig& machine_config);

  // Deep-copies the whole simulation state — machine (caches, branch
  // predictor, IRQ controller, timer, cycle/PMU counters) and kernel (object
  // heap with remapped pointers, scheduler, bindings) — sharing only the
  // immutable kernel image. The clone replays cycle-for-cycle identically to
  // the original; src/engine checkpoints are built on this. Trace sinks and
  // fault hooks are not carried over. Must be called between kernel entries.
  std::unique_ptr<System> Clone() const;

  Machine& machine() { return *machine_; }
  Kernel& kernel() { return *kernel_; }

  // Attaches |sink| to every kernel-side event producer: the kir executor
  // (entry/exit, block costs, preemption points) and the interrupt controller
  // (IRQ assertions). Pass nullptr to detach. User-side events additionally
  // need Runner::set_trace_sink.
  void AttachTraceSink(TraceSink* sink);

  // Root CNode: one level consuming all 32 bits (guard 24 bits of zero +
  // 8-bit radix), so plain cptrs are slot indices and the fastpath applies.
  CNodeObj* root() { return root_; }

  // Installs |cap| in the next free root slot; returns its cptr.
  std::uint32_t AddCap(Cap cap, CapSlot* parent = nullptr);
  CapSlot* SlotOf(std::uint32_t cptr) { return &root_->slots[cptr & 0xFF]; }

  // Creates a thread whose cspace is the shared root CNode.
  TcbObj* AddThread(std::uint8_t prio);
  // Creates an endpoint and a root cap for it; returns the cptr.
  std::uint32_t AddEndpoint(EndpointObj** out = nullptr);

  // Figure 7: a chain of |levels| one-bit CNodes ending at |target| (placed
  // in a fresh deep cspace assigned to |t|). Returns the cptr whose decode
  // traverses all |levels| levels. levels in [1, 32].
  std::uint32_t BuildDeepCapSpace(TcbObj* t, Cap target, std::uint32_t levels);

  // Queues |n| threads blocked sending to |ep| with the given badge cycle
  // (badges[i % badges.size()]).
  std::vector<TcbObj*> QueueSenders(EndpointObj* ep, std::uint32_t n,
                                    const std::vector<std::uint64_t>& badges,
                                    std::uint8_t prio = 10);

  // Lazy-scheduling pathology: |n| threads that blocked while remaining in
  // the run queue (only meaningful under SchedulerKind::kLazy).
  std::vector<TcbObj*> MakeStaleRunQueue(EndpointObj* ep, std::uint32_t n,
                                         std::uint8_t prio);

  // The paper's worst-case system call (Section 6.1): a Call through a
  // 32-level cspace, full-length message, three granted caps each decoded
  // through 32 levels, to a receiver that is already waiting.
  struct WorstIpc {
    TcbObj* caller = nullptr;
    TcbObj* receiver = nullptr;
    std::uint32_t ep_cptr = 0;     // caller side: 32-level decode
    std::uint32_t reply_cptr = 0;  // receiver side: root-CNode cptr for ReplyRecv
    SyscallArgs args;
  };
  WorstIpc BuildWorstCaseIpc();

  // The fault measurement scenario (Table 2, Figures 8 and 9): a pager at
  // priority 150 waiting on an endpoint, and the current task at priority 10
  // whose fault-handler cap decodes through a 32-level cspace. A page fault
  // or undefined instruction raised now takes the worst-case fault IPC.
  struct FaultHandler {
    TcbObj* task = nullptr;
    std::uint32_t ep_cptr = 0;  // root-CNode cptr, for the pager's ReplyRecv
  };
  FaultHandler BuildFaultHandlerScenario();

  // The interrupt measurement scenario (Table 2, Figures 8 and 9): IRQ 0
  // bound to an endpoint that a handler at priority 200 waits on, with a task
  // at priority 10 current. Asserting IRQ 0 now delivers to the handler.
  struct IrqHandler {
    EndpointObj* ep = nullptr;
    TcbObj* handler = nullptr;
    TcbObj* task = nullptr;
  };
  IrqHandler BuildIrqHandlerScenario();

  // A large untyped region plus a root cap for it; returns the cptr.
  std::uint32_t AddUntyped(std::uint8_t size_bits, UntypedObj** out = nullptr);

  KernelConfig kernel_config;
  MachineConfig machine_config;

 private:
  System() = default;  // Clone() assembles the members

  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Kernel> kernel_;
  CNodeObj* root_ = nullptr;
  std::uint32_t next_slot_ = 1;  // slot 0 reserved
};

// Machine configuration used throughout the evaluation: i.MX31 defaults with
// the branch predictor and L2 switched per experiment.
MachineConfig EvalMachine(bool l2_enabled, bool bpred_enabled = false);

}  // namespace pmk

#endif  // SRC_SIM_WORKLOAD_H_
