#include "src/hw/branch_predictor.h"

#include <stdexcept>

namespace pmk {

BranchPredictor::BranchPredictor(const BranchPredictorConfig& config)
    : config_(config), btb_(config.btb_entries) {
  if (config_.btb_entries == 0) {
    throw std::invalid_argument("BranchPredictorConfig: btb_entries must be >= 1");
  }
}

void BranchPredictor::Reset() {
  for (Entry& e : btb_) {
    e = Entry{};
  }
}

Cycles BranchPredictor::OnBranchEnabled(Addr pc, BranchKind kind, bool taken,
                                        std::uint64_t& mispredicts) {
  return OnBranchEnabledAt(static_cast<std::uint32_t>(pc % btb_.size()), pc, kind, taken,
                           mispredicts);
}

}  // namespace pmk
