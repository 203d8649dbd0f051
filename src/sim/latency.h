// Measurement helpers: one observed kernel entry (paper Section 5.4) and
// interrupt response under a periodic timer.

#ifndef SRC_SIM_LATENCY_H_
#define SRC_SIM_LATENCY_H_

#include <cstdint>

#include "src/kernel/image.h"
#include "src/kir/trace.h"
#include "src/obs/histogram.h"
#include "src/sim/workload.h"

namespace pmk {

// One observed kernel entry, the paper's measurement (Section 5.4): the
// entry's worst-case scenario, caches polluted, one timed entry. Table 2,
// Figures 7-9 and the soundness tests observe every entry through this.
//
// The constructor stages |entry|'s scenario on |sys|: BuildWorstCaseIpc for
// the system call, BuildFaultHandlerScenario for the undefined instruction
// and the page fault, BuildIrqHandlerScenario for the interrupt (IRQ 0
// asserted at Run). Run() pollutes the caches, raises the entry once and
// returns its cycles and the block path it took. Restore() undoes the entry
// (the receiver or pager replies and waits again, the handler waits again)
// so the next Run() repeats it in place.
class EntryScenario {
 public:
  struct Observation {
    Cycles cycles = 0;  // kernel entry to kernel exit
    Trace path;         // the entry's recorded block sequence
  };

  EntryScenario(System& sys, EntryPoint entry);

  Observation Run();
  void Restore();

 private:
  System& sys_;
  EntryPoint entry_;
  System::WorstIpc ipc_;
  System::FaultHandler fault_;
  System::IrqHandler irq_;
};

// Runs a (possibly preempted and restarted) long operation to completion:
// re-issues the syscall while it keeps returning kPreempted, servicing the
// pending interrupt after each preemption. Returns the number of preemptions
// and, via |max_latency|, the worst interrupt response observed.
struct LongOpResult {
  std::uint32_t preemptions = 0;
  Cycles max_irq_latency = 0;
  Cycles total_cycles = 0;
  LatencyHistogram irq_hist;  // every observed interrupt response latency
};
LongOpResult RunLongOpWithTimer(System& sys, SysOp op, std::uint32_t cptr,
                                const SyscallArgs& args, Cycles timer_period);

// Surfaces interrupt-controller robustness counters into the process-wide
// telemetry registry as "sim.irq.spurious_acks" / "sim.irq.coalesced_asserts"
// counter rows. Call with per-run DELTAS after a modelled run completes —
// observer only, zero modelled cycles.
void RecordIrqControllerMetrics(std::uint64_t spurious_acks, std::uint64_t coalesced_asserts);

}  // namespace pmk

#endif  // SRC_SIM_LATENCY_H_
