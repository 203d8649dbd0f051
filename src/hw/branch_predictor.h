// Branch predictor model for the ARM1136.
//
// The paper (Section 5.1) notes: with branch prediction disabled, all branches
// on the ARM1136 execute in a constant 5 cycles; with prediction enabled they
// vary between 0 and 7 cycles depending on branch kind and prediction outcome.
// The static analysis of the paper does not model the predictor, so
// measurements are taken with it disabled by default; Figure 9 quantifies the
// effect of enabling it.

#ifndef SRC_HW_BRANCH_PREDICTOR_H_
#define SRC_HW_BRANCH_PREDICTOR_H_

#include <cstdint>
#include <vector>

#include "src/hw/cache.h"
#include "src/hw/cycles.h"

namespace pmk {

enum class BranchKind : std::uint8_t {
  kNone,         // fall-through, no branch at block end
  kConditional,  // conditional direct branch
  kDirect,       // unconditional direct branch / call
  kReturn,       // indirect branch via LR (function return)
};

struct BranchPredictorConfig {
  bool enabled = false;
  std::uint32_t btb_entries = 128;
  // Costs, in cycles.
  Cycles disabled_cost = 5;       // constant when the predictor is off
  Cycles correct_taken = 1;       // predicted-taken branch, folded
  Cycles correct_not_taken = 0;   // correctly predicted fall-through
  Cycles mispredict = 7;          // flush of the 8-stage pipeline
};

class BranchPredictor {
 public:
  // Throws std::invalid_argument when |config| has no BTB entries: every
  // lookup indexes the BTB modulo its size.
  explicit BranchPredictor(const BranchPredictorConfig& config);

  // Records the outcome of the branch terminating the block at |pc| and
  // returns its cost in cycles. |taken| reports the actual direction; a
  // mispredict is reported by incrementing |mispredicts| (the machine's PMU
  // counter). Inline: charged on every block transition, and the common
  // predictor-disabled configuration reduces to two compares.
  Cycles OnBranch(Addr pc, BranchKind kind, bool taken, std::uint64_t& mispredicts) {
    if (kind == BranchKind::kNone) {
      return 0;
    }
    if (!config_.enabled) {
      return config_.disabled_cost;
    }
    return OnBranchEnabled(pc, kind, taken, mispredicts);
  }

  // Slot-folded variant for the compiled executor backend: |slot| must equal
  // pc % btb_entries (the compiled stream precomputes it per block at
  // Program::CompiledFor time, removing the modulo from the hot path).
  // Identical outcome and state transitions to OnBranch().
  Cycles OnBranchSlot(std::uint32_t slot, Addr pc, BranchKind kind, bool taken,
                      std::uint64_t& mispredicts) {
    if (kind == BranchKind::kNone) {
      return 0;
    }
    if (!config_.enabled) {
      return config_.disabled_cost;
    }
    return OnBranchEnabledAt(slot, pc, kind, taken, mispredicts);
  }

  void Reset();

  const BranchPredictorConfig& config() const { return config_; }

 private:
  // BTB/counter update for the predictor-enabled configuration.
  Cycles OnBranchEnabled(Addr pc, BranchKind kind, bool taken, std::uint64_t& mispredicts);

  // Body of the update with the BTB slot already computed. Inline: the
  // compiled executor charges one of these per block transition.
  Cycles OnBranchEnabledAt(std::uint32_t slot, Addr pc, BranchKind kind, bool taken,
                           std::uint64_t& mispredicts) {
    // Unconditional branches and returns hit the BTB / return stack; model
    // them as predicted correctly after first sight.
    Entry& e = btb_[slot];
    const bool seen = e.valid && e.pc == pc;
    if (kind == BranchKind::kDirect || kind == BranchKind::kReturn) {
      e.pc = pc;
      e.valid = true;
      if (seen) {
        return config_.correct_taken;
      }
      mispredicts++;
      return config_.mispredict;
    }
    // Conditional: 2-bit saturating counter.
    bool predicted_taken = false;
    if (seen) {
      predicted_taken = e.counter >= 2;
    } else {
      e.pc = pc;
      e.valid = true;
      e.counter = 1;
    }
    Cycles cost;
    if (seen && predicted_taken == taken) {
      cost = taken ? config_.correct_taken : config_.correct_not_taken;
    } else {
      mispredicts++;
      cost = config_.mispredict;
    }
    if (taken && e.counter < 3) {
      e.counter++;
    } else if (!taken && e.counter > 0) {
      e.counter--;
    }
    return cost;
  }

  struct Entry {
    Addr pc = 0;
    std::uint8_t counter = 1;  // 2-bit saturating counter, weakly not-taken
    bool valid = false;
  };

  BranchPredictorConfig config_;
  std::vector<Entry> btb_;
};

}  // namespace pmk

#endif  // SRC_HW_BRANCH_PREDICTOR_H_
