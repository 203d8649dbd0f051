// Two-phase NIC driver: minimal ISR at IRQ delivery, heavy per-frame work
// deferred to a driver-loop thread.
//
// The picokernel irq_ring idiom, on top of the modelled kernel's IRQ
// machinery: the kernel masks the NIC line at delivery and notifies the
// handler endpoint; the driver thread — typically the highest-priority
// thread in the system — wakes from Recv and runs a strict state machine:
//
//   Recv returns -> ACK (IrqAck: unmask, so new frames interrupt again)
//               -> ISR tail (tiny compute: "mark work pending")
//               -> drain up to kBatchBudget frames (per-frame deferred cost)
//               -> ring still non-empty? re-ACK and drain another batch
//               -> ring empty? block in Recv
//
// The ordering is load-bearing twice over. Acking FIRST after every wake
// bounds the masked window (assert -> kernel mask -> driver ack) to the
// scheduling latency of the highest-priority thread plus one small syscall —
// that keeps observed interrupt response under the analyzed bound even at
// saturation. And the drain loop re-checks the ring before ever blocking, so
// the driver blocks in Recv only when the ring is empty AND the line is
// unmasked — a frame arriving in any interleaving either finds the line
// enabled (fresh interrupt) or a pending notification (Recv returns
// immediately): no lost wakeup, no starvation.
//
// The driver runs as a Runner kDynamic step: each scheduling turn consults
// Next() for the following concrete action, so the script adapts to live
// ring state while staying deterministic (no RNG, no wall clock).

#ifndef SRC_LOAD_DRIVER_H_
#define SRC_LOAD_DRIVER_H_

#include <cstdint>

#include "src/load/ring.h"
#include "src/obs/histogram.h"
#include "src/sim/runner.h"

namespace pmk::load {

class TwoPhaseDriver {
 public:
  struct Config {
    std::uint32_t ack_cptr = 0;   // IrqHandler cap (driver's cspace)
    std::uint32_t recv_cptr = 0;  // notification endpoint cap
  };

  TwoPhaseDriver(DeviceRing* ring, const Config& cfg) : ring_(ring), cfg_(cfg) {}

  // The driver program; install with UserStep::Dynamic(driver.Program()).
  // The TwoPhaseDriver must outlive the Runner run.
  UserStep::Generator Program();

  // Deferred-path queueing delay: frame arrival to the cycle the driver-loop
  // popped it. This is NOT the enforced interrupt-response latency (the
  // kernel measures that at ack time); it is the end-to-end device story.
  const LatencyHistogram& frame_delay() const { return frame_delay_; }
  std::uint64_t frames_processed() const { return frames_processed_; }
  std::uint64_t acks_issued() const { return acks_issued_; }

 private:
  enum class State : std::uint8_t { kAck, kIsrTail, kDrain, kRecv };

  std::optional<UserStep> Next(System& sys);

  DeviceRing* ring_;
  Config cfg_;
  State state_ = State::kDrain;  // boot: ring empty -> falls through to Recv
  std::uint32_t batch_left_ = 0;
  LatencyHistogram frame_delay_;
  std::uint64_t frames_processed_ = 0;
  std::uint64_t acks_issued_ = 0;
};

}  // namespace pmk::load

#endif  // SRC_LOAD_DRIVER_H_
