// Machine-state checkpointing: boot once, fork many.
//
// A SystemCheckpoint freezes a fully-built System (machine + kernel heap) by
// deep-cloning it, then stamps out independent copies on demand. Forking
// skips everything a fresh boot would repeat — BuildKernelImage, direct
// object construction, queue setup — which is what makes an exhaustive sweep
// of P preemption points cost one boot plus P cheap forks instead of P+1
// boots.
//
// Checkpoints capture state between kernel entries only (System::Clone
// throws if the executor is mid-path). The frozen image is immutable after
// construction, so Fork() may be called concurrently from worker threads.

#ifndef SRC_ENGINE_CHECKPOINT_H_
#define SRC_ENGINE_CHECKPOINT_H_

#include <memory>

#include "src/obs/metrics.h"
#include "src/sim/workload.h"

namespace pmk::engine {

class SystemCheckpoint {
 public:
  // Freezes a deep copy of |sys|; the original remains usable and later
  // mutations to it do not affect the checkpoint.
  explicit SystemCheckpoint(const System& sys) : frozen_(sys.Clone()) {
    static obs::Counter freezes("engine.checkpoint.freezes");
    freezes.Inc();
  }

  // An independent System that replays cycle-for-cycle identically to the
  // frozen state. Thread-safe: only const reads of the frozen image.
  std::unique_ptr<System> Fork() const {
    static obs::Counter forks("engine.checkpoint.forks");
    static obs::Timer fork_nanos("engine.checkpoint.fork_nanos");
    forks.Inc();
    const auto scope = fork_nanos.Measure();
    return frozen_->Clone();
  }

  const System& frozen() const { return *frozen_; }

 private:
  std::unique_ptr<System> frozen_;
};

}  // namespace pmk::engine

#endif  // SRC_ENGINE_CHECKPOINT_H_
