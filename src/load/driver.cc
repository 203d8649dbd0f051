#include "src/load/driver.h"

namespace pmk::load {

namespace {

constexpr Cycles kIsrCost = 120;            // phase 1: ack bookkeeping ("mark pending")
constexpr Cycles kPerFrameCost = 800;       // phase 2: deferred per-frame processing
constexpr std::uint32_t kLenCostShift = 4;  // plus len >> shift cycles per frame
constexpr std::uint32_t kBatchBudget = 4;   // frames drained between re-acks

}  // namespace

UserStep::Generator TwoPhaseDriver::Program() {
  return [this](System& sys) { return Next(sys); };
}

std::optional<UserStep> TwoPhaseDriver::Next(System& sys) {
  for (;;) {
    switch (state_) {
      case State::kAck: {
        // Phase 1, first action after every wake (and between batches):
        // re-enable the line so the device can interrupt again.
        state_ = State::kIsrTail;
        acks_issued_++;
        SyscallArgs ack;
        ack.label = InvLabel::kIrqAck;
        return UserStep::Syscall(SysOp::kCall, cfg_.ack_cptr, ack);
      }
      case State::kIsrTail:
        // The rest of the minimal ISR: note work pending, hand off to the
        // deferred loop. Kept tiny — everything heavy belongs to phase 2.
        state_ = State::kDrain;
        batch_left_ = kBatchBudget;
        return UserStep::Compute(kIsrCost);
      case State::kDrain: {
        if (ring_->Empty()) {
          state_ = State::kRecv;
          continue;
        }
        if (batch_left_ == 0) {
          // Batch exhausted with frames left: re-ack before the next batch
          // so a frame asserted while we processed is re-delivered promptly.
          state_ = State::kAck;
          continue;
        }
        const FrameDesc d = *ring_->Pop();
        batch_left_--;
        frames_processed_++;
        const Cycles now = sys.machine().Now();
        frame_delay_.Record(now >= d.enqueued ? now - d.enqueued : 0);
        return UserStep::Compute(kPerFrameCost + (d.len >> kLenCostShift));
      }
      case State::kRecv:
        // Ring empty and line unmasked: safe to block. A notification that
        // raced this decision is already pending on the endpoint, so Recv
        // returns immediately instead of blocking.
        state_ = State::kAck;
        return UserStep::Syscall(SysOp::kRecv, cfg_.recv_cptr);
    }
  }
}

}  // namespace pmk::load
