// Interrupt controller and interval timer.
//
// Models an AVIC-style interrupt controller: lines can be asserted by devices
// (or the test harness), masked, acknowledged. The controller records the
// cycle at which each line was asserted so that the harness can measure
// interrupt response time: cycles from assertion to the kernel's interrupt
// handler entry.

#ifndef SRC_HW_IRQ_H_
#define SRC_HW_IRQ_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/hw/cycles.h"

namespace pmk {

class TraceSink;

class InterruptController {
 public:
  static constexpr std::uint32_t kNumLines = 32;
  static constexpr std::uint32_t kTimerLine = 0;

  // Asserts |line| at time |now|. Re-asserting a pending line coalesces: the
  // original assertion time is kept (response time is measured from the first
  // unserviced assertion) and coalesced_asserts() is bumped. Hardware with an
  // edge-triggered pending latch behaves the same way — the second edge is
  // absorbed into the already-pending state.
  void Assert(std::uint32_t line, Cycles now);

  // True if any unmasked line is pending. Inline: the kernel polls this at
  // every preemption point, so it must stay one mask-and-test.
  bool AnyPending() const { return (pending_bits_ & ~masked_bits_) != 0; }

  // Highest-priority (lowest-numbered) pending unmasked line, if any.
  std::optional<std::uint32_t> PendingLine() const;

  // Acknowledges |line|. If the line is pending, clears it and returns the
  // cycle it was asserted. Acknowledging a line that is NOT pending is a
  // *spurious ack*: the controller absorbs it (no state change), returns
  // std::nullopt, bumps spurious_acks() and emits a kIrqSpuriousAck trace
  // event. Real controllers see these from races between a device de-assert
  // and the handler's EOI write; drivers must tolerate them.
  std::optional<Cycles> Acknowledge(std::uint32_t line);

  void Mask(std::uint32_t line);
  void Unmask(std::uint32_t line);
  bool IsPending(std::uint32_t line) const;
  Cycles AssertTime(std::uint32_t line) const;

  void Reset();

  // Storm/robustness accounting (monotonic since construction or Reset()).
  std::uint64_t spurious_acks() const { return spurious_acks_; }
  std::uint64_t coalesced_asserts() const { return coalesced_asserts_; }

  // Optional observability sink: a fresh assertion emits kIrqAssert, a
  // re-assert of a pending line emits kIrqCoalesced, a spurious ack emits
  // kIrqSpuriousAck. Purely observational.
  void set_trace_sink(TraceSink* sink) { sink_ = sink; }
  TraceSink* trace_sink() const { return sink_; }

 private:
  // Pending and mask state as 32-bit registers (bit i = line i), mirroring
  // the AVIC's INTSRCH/INTMSKH register layout; AnyPending()/PendingLine()
  // reduce to one mask-and-test / count-trailing-zeros.
  std::uint32_t pending_bits_ = 0;
  std::uint32_t masked_bits_ = 0;
  std::array<Cycles, kNumLines> assert_time_{};
  std::uint64_t spurious_acks_ = 0;
  std::uint64_t coalesced_asserts_ = 0;
  TraceSink* sink_ = nullptr;
};

// Periodic timer that asserts kTimerLine on the interrupt controller.
//
// The timer maintains a cached next-deadline so the machine's hot path only
// consults it (one load + compare, inline) instead of calling Tick() on every
// single Advance. Every mutation of the firing schedule — set_period(),
// Restart(), Tick() itself — recomputes the deadline, so direct pokes at
// machine.timer() can never leave a stale deadline behind. Assertion cycles
// are exactly those of the tick-every-advance scheme: between deadline
// crossings Tick() was a no-op anyway.
class IntervalTimer {
 public:
  // Deadline value when the timer can never fire (period 0).
  static constexpr Cycles kNever = ~Cycles{0};

  IntervalTimer(InterruptController* ic, Cycles period) : ic_(ic), period_(period) {
    RecomputeDeadline();
  }

  // Advances device time to |now|, asserting the timer line for every period
  // boundary crossed.
  void Tick(Cycles now);

  // The earliest cycle at which Tick() would assert a line; kNever when the
  // timer is disabled. Callers may skip Tick() entirely while now < this.
  Cycles next_deadline() const { return deadline_; }

  Cycles period() const { return period_; }
  void set_period(Cycles period) {
    period_ = period;
    RecomputeDeadline();
  }

  // Re-arms the timer so its next firing is at |now| + period.
  void Restart(Cycles now) {
    next_fire_ = now + period_;
    RecomputeDeadline();
  }

  // Re-targets the timer at |ic|. Machine's copy constructor uses this to
  // point a copied timer at the copy's own controller instead of the
  // original's (the one pointer a memberwise Machine copy would get wrong).
  void RebindController(InterruptController* ic) { ic_ = ic; }

 private:
  void RecomputeDeadline() { deadline_ = period_ == 0 ? kNever : next_fire_; }

  InterruptController* ic_;
  Cycles period_;
  Cycles next_fire_ = 0;
  Cycles deadline_ = 0;
};

}  // namespace pmk

#endif  // SRC_HW_IRQ_H_
