// Device-side frame source: the modelled NIC's DMA engine.
//
// Runs on the Runner's disturbance seam — Tick(now) is called at the top of
// every scheduling iteration, i.e. at every point where hardware could act
// while userland runs — and posts every frame whose scheduled arrival cycle
// has passed: descriptor pushed onto the ring, interrupt line asserted with
// the ARRIVAL cycle (not the tick cycle), so measured response latency
// includes the model-granularity delay between device action and the next
// point the core could notice, exactly as on hardware.
//
// Arrival processes are integer-only SplitMix64 draws (no libm, no floats)
// so a given (seed, config) produces the same frame schedule on every host —
// the byte-identity contract of the traffic harness rests on this.
//
//   - steady (burst == 1): jittered open-loop arrivals around mean_gap, with
//     an occasional 4x long-tail gap (1 in 16) so queues drain and refill;
//   - storm (burst > 1): back-to-back bursts of |burst| frames, separated by
//     burst_silence plus jitter — the adversarial shape whose latencies
//     include device-side masking windows.
//
// Value type: copyable alongside the ring, so a forked checkpoint replays
// the identical remaining schedule (the fork-safety test relies on it).

#ifndef SRC_LOAD_SOURCE_H_
#define SRC_LOAD_SOURCE_H_

#include <cstdint>

#include "src/hw/irq.h"
#include "src/load/ring.h"
#include "src/sim/rng.h"

namespace pmk::load {

class FrameSource {
 public:
  struct Config {
    std::uint32_t line = 1;        // NIC interrupt line (0 is the timer)
    Cycles mean_gap = 4096;        // mean inter-arrival gap (cycles)
    std::uint32_t burst = 1;       // frames per arrival event (>1 = storm)
    Cycles burst_silence = 0;      // storm: extra silence between bursts
  };

  FrameSource(const Config& cfg, SplitMix64 rng) : cfg_(cfg), rng_(rng) {
    if (cfg_.mean_gap == 0) {
      cfg_.mean_gap = 1;
    }
    if (cfg_.burst == 0) {
      cfg_.burst = 1;
    }
    next_arrival_ = cfg_.mean_gap;  // first frame one mean gap into the run
  }

  // Posts every frame due at or before |now|: descriptor onto |ring|
  // (drop-newest when full), line asserted on |ic| at the arrival cycle.
  // The line is asserted even for dropped frames — hardware raises RX-overrun
  // interrupts too, and the driver must cope.
  void Tick(Cycles now, DeviceRing& ring, InterruptController& ic) {
    while (next_arrival_ <= now) {
      FrameDesc d;
      d.seq = seq_++;
      d.enqueued = next_arrival_;
      d.len = kLenMin + static_cast<std::uint32_t>(rng_.Below(kLenMax - kLenMin + 1));
      ring.Push(d);
      ic.Assert(cfg_.line, next_arrival_);
      offered_++;
      next_arrival_ += NextGap();
    }
  }

  std::uint64_t offered() const { return offered_; }
  Cycles next_arrival() const { return next_arrival_; }

 private:
  // Frame length range (bytes).
  static constexpr std::uint32_t kLenMin = 64;
  static constexpr std::uint32_t kLenMax = 1500;

  Cycles NextGap() {
    if (cfg_.burst > 1) {
      // Storm: |burst| frames back-to-back, then silence.
      if (++in_burst_ < cfg_.burst) {
        return 1;
      }
      in_burst_ = 0;
      return cfg_.burst_silence + cfg_.mean_gap / 2 + rng_.Below(cfg_.mean_gap);
    }
    // Steady: jitter around the mean, occasional 4x long-tail gap.
    Cycles gap = cfg_.mean_gap / 2 + rng_.Below(cfg_.mean_gap);
    if (rng_.Below(16) == 0) {
      gap *= 4;
    }
    return gap;
  }

  Config cfg_;
  SplitMix64 rng_;
  Cycles next_arrival_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t offered_ = 0;
  std::uint32_t in_burst_ = 0;
};

}  // namespace pmk::load

#endif  // SRC_LOAD_SOURCE_H_
