#include "src/hw/machine.h"

namespace pmk {

namespace {
// Garbage address bases far above the 128 MiB of modelled RAM.
constexpr Addr kPolluteBaseI = 0x4000'0000;
constexpr Addr kPolluteBaseD = 0x5000'0000;
constexpr Addr kPolluteBaseL2 = 0x6000'0000;
}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      bpred_(config.bpred),
      timer_(&irq_, config.timer_period) {}

Machine::Machine(const Machine& other)
    : config_(other.config_),
      l1i_(other.l1i_),
      l1d_(other.l1d_),
      l2_(other.l2_),
      bpred_(other.bpred_),
      irq_(other.irq_),
      timer_(other.timer_),
      now_(other.now_),
      counters_(other.counters_) {
  timer_.RebindController(&irq_);
  irq_.set_trace_sink(nullptr);
}

void Machine::DataAccessRun(Addr base, std::uint32_t count, std::uint32_t stride, bool write) {
  (void)write;  // write-allocate: same penalty either way
  Cycles cost = config_.memory.load_use_stall * count;
  std::uint32_t misses = 0;
  std::uint32_t l2_acc = 0;
  std::uint32_t l2_miss = 0;
  std::uint64_t stall = 0;
  const bool l2on = config_.l2_enabled;
  // Phase-split probing: sweep the whole tile through the L1D first,
  // collecting the missing addresses, then sweep the misses through the L2.
  // The two caches share no state and each still sees its accesses in the
  // same relative order as the interleaved per-access loop, so line contents,
  // replacement state, counters and charged cycles are all identical — but
  // each sweep walks one tag array with a regular stride. The L1 tag array
  // (8 KiB at the modelled 16 KiB/4-way geometry) lives in the host L1 and
  // needs no prefetching; the L2 sweep prefetches the next set's tag group.
  constexpr std::uint32_t kTile = 64;
  Addr missed[kTile];
  Addr addr = base;
  // One access per consecutive line — the object-clearing shape — probes the
  // L1D through the linear-walk sweep (Cache::SweepLines) when the geometry
  // allows; outcomes are identical to the generic per-access loop below.
  const bool sweep = stride == config_.l1d.line_bytes && l1d_.SweepEligible();
  for (std::uint32_t remaining = count; remaining != 0;) {
    const std::uint32_t tile = remaining < kTile ? remaining : kTile;
    std::uint32_t n_missed = 0;
    if (sweep) {
      n_missed = l1d_.SweepLines(addr, tile, missed);
      addr += static_cast<Addr>(tile) * stride;
    } else {
      for (std::uint32_t i = 0; i < tile; ++i) {
        if (!l1d_.AccessLine(l1d_.SetIndexOf(addr), l1d_.TagOf(addr))) {
          missed[n_missed++] = addr;
        }
        addr += stride;
      }
    }
    misses += n_missed;
    if (n_missed != 0) {
      if (!l2on) {
        const Cycles penalty =
            config_.memory.mem_latency_l2_off * static_cast<Cycles>(n_missed);
        stall += penalty;
        cost += penalty;
      } else {
        l2_acc += n_missed;
        for (std::uint32_t i = 0; i < n_missed; ++i) {
          if (i + 1 < n_missed) {
            l2_.PrefetchSet(l2_.SetIndexOf(missed[i + 1]));
          }
          Cycles penalty;
          if (l2_.AccessLine(l2_.SetIndexOf(missed[i]), l2_.TagOf(missed[i]))) {
            penalty = config_.memory.l2_hit_latency;
          } else {
            ++l2_miss;
            penalty = config_.memory.mem_latency_l2_on;
          }
          stall += penalty;
          cost += penalty;
        }
      }
    }
    remaining -= tile;
  }
  counters_.l1d_accesses += count;
  counters_.l1d_misses += misses;
  counters_.l2_accesses += l2_acc;
  counters_.l2_misses += l2_miss;
  counters_.mem_stall_cycles += stall;
  Advance(cost);
}

void Machine::PolluteCaches() {
  l1i_.Pollute(kPolluteBaseI);
  l1d_.Pollute(kPolluteBaseD);
  // A realistic polluting test program dirties the 16 KiB L1s completely but
  // only displaces part of the 128 KiB L2 between runs (paper Section 5.4).
  l2_.Pollute(kPolluteBaseL2, 0.5);
  bpred_.Reset();
}

}  // namespace pmk
