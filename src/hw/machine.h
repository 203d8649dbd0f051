// The modelled ARM1136-class machine.
//
// Composes split L1 instruction/data caches (way-lockable), an optional
// unified L2, a branch predictor, the main-memory latency model, an interrupt
// controller and an interval timer. All kernel execution costs are charged
// through this class; it is the single source of truth for the cycle counter
// (the analogue of the ARM1136 PMU cycle counter the paper measures with).
//
// The cost-charging entries (InstrFetch/DataAccess/Branch/RawCycles and the
// batched twins the compiled executor uses) are defined inline: they are the
// simulator's innermost loop and every modelled cycle of every experiment
// passes through them. Advance() only consults the interval timer when the
// cycle counter actually crosses its cached deadline — assertion cycles are
// identical to ticking on every advance (docs/performance.md).

#ifndef SRC_HW_MACHINE_H_
#define SRC_HW_MACHINE_H_

#include <cstdint>

#include "src/hw/branch_predictor.h"
#include "src/hw/cache.h"
#include "src/hw/cycles.h"
#include "src/hw/irq.h"
#include "src/hw/memory.h"

namespace pmk {

struct MachineConfig {
  CacheConfig l1i{.name = "L1I", .size_bytes = 16 * 1024, .ways = 4, .line_bytes = 32};
  CacheConfig l1d{.name = "L1D", .size_bytes = 16 * 1024, .ways = 4, .line_bytes = 32};
  CacheConfig l2{.name = "L2", .size_bytes = 128 * 1024, .ways = 8, .line_bytes = 32};
  bool l2_enabled = false;
  BranchPredictorConfig bpred;
  MemoryConfig memory;
  Cycles timer_period = 0;  // 0 = no periodic timer
};

// Monotonic PMU-style event counters. Unlike the per-cache CacheStats these
// are never reset (PolluteCaches and ResetStats leave them counting), so
// snapshot/delta measurement (src/obs/pmu.h) stays valid across the
// cache-polluting runs of Section 5.4.
struct HwCounters {
  std::uint64_t instructions = 0;
  std::uint64_t l1i_accesses = 0;  // I-cache line lookups
  std::uint64_t l1i_misses = 0;
  std::uint64_t l1d_accesses = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l2_accesses = 0;  // L1-miss refills reaching the L2
  std::uint64_t l2_misses = 0;
  std::uint64_t branches = 0;  // charged branch events
  std::uint64_t branch_mispredicts = 0;
  std::uint64_t mem_stall_cycles = 0;  // cycles stalled on cache refills
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  // Value-semantic snapshot support (src/engine checkpointing): copying a
  // Machine clones the full microarchitectural state — cache contents and
  // round-robin/LFSR replacement state, branch predictor tables, pending
  // interrupt lines and their assertion times, timer phase, cycle counter and
  // PMU counters — so a copy replays cycle-for-cycle identically to the
  // original. The trace sink attachment is deliberately dropped: sinks are
  // external observers, and forked copies run on worker threads where a
  // shared sink would race.
  Machine(const Machine& other);
  Machine& operator=(const Machine&) = delete;

  // --- Cost-charging interface (used by the kernel IR executor) ---

  // Fetches and executes |n_instr| sequential 4-byte instructions starting at
  // |addr|: 1 cycle per instruction plus I-cache refill penalties.
  void InstrFetch(Addr addr, std::uint32_t n_instr) {
    const Addr line = config_.l1i.line_bytes;
    const Addr last_line = (addr + static_cast<Addr>(n_instr) * 4 - 1) / line;
    Cycles cost = n_instr;  // 1 cycle per instruction, pipelined.
    counters_.instructions += n_instr;
    for (Addr l = addr / line; l <= last_line; ++l) {
      counters_.l1i_accesses++;
      if (!l1i_.Access(l * line)) {
        counters_.l1i_misses++;
        cost += MissPenalty(l * line);
      }
    }
    Advance(cost);
  }

  // One data access (load or store). The access cycle itself is accounted as
  // part of the instruction; this charges only refill penalties.
  void DataAccess(Addr addr, bool write) {
    (void)write;  // write-allocate: same penalty either way
    Cycles cost = config_.memory.load_use_stall;  // pipeline result latency
    counters_.l1d_accesses++;
    if (!l1d_.Access(addr)) {
      counters_.l1d_misses++;
      cost += MissPenalty(addr);
    }
    Advance(cost);
  }

  // Branch terminating the block at |pc| with actual direction |taken|.
  // Inline: one per block transition, and with the predictor disabled (the
  // paper's measurement configuration) the cost is a constant.
  void Branch(Addr pc, BranchKind kind, bool taken) {
    if (kind != BranchKind::kNone) {
      counters_.branches++;
    }
    const std::uint64_t mp_before = bpred_.mispredicts();
    const Cycles cost = bpred_.OnBranch(pc, kind, taken);
    counters_.branch_mispredicts += bpred_.mispredicts() - mp_before;
    Advance(cost);
  }

  // Branch with the BTB slot precomputed (slot == pc % btb_entries); the
  // compiled executor backend folds the modulo at Program::CompiledFor time.
  // Identical charging and state transitions to Branch().
  void BranchSlot(std::uint32_t slot, Addr pc, BranchKind kind, bool taken) {
    if (kind != BranchKind::kNone) {
      counters_.branches++;
    }
    const std::uint64_t mp_before = bpred_.mispredicts();
    const Cycles cost = bpred_.OnBranchSlot(slot, pc, kind, taken);
    counters_.branch_mispredicts += bpred_.mispredicts() - mp_before;
    Advance(cost);
  }

  // Charges |n| raw cycles (e.g. coprocessor operations, TLB maintenance).
  void RawCycles(Cycles n) { Advance(n); }

  // --- Batched charging (compiled executor backend, src/kir/compiled) ---

  // Accumulated PMU-counter deltas and cycle cost of one charge batch (a
  // compiled block's stream, or one DataAccessRun). Equivalent, summed, to
  // the per-access counter updates and Advance() calls of the incremental
  // entries above: counter totals are order-independent sums, and fusing the
  // intra-batch Advance() calls is observable nowhere — the interval timer
  // asserts at its scheduled deadline (IntervalTimer::Tick), not at the
  // cycle count that crossed it, and all observers (fault hooks, trace
  // windows, preemption polls) run at batch boundaries.
  struct ChargeDelta {
    Cycles cost = 0;
    std::uint32_t instructions = 0;
    std::uint32_t l1i_accesses = 0;
    std::uint32_t l1i_misses = 0;
    std::uint32_t l1d_accesses = 0;
    std::uint32_t l1d_misses = 0;
    std::uint32_t l2_accesses = 0;
    std::uint32_t l2_misses = 0;
    std::uint64_t mem_stall = 0;
  };

  // Applies one batch: counter flush plus a single Advance(). The caller is
  // responsible for the matching Cache::AddStats() flushes.
  void ApplyChargeDelta(const ChargeDelta& d) {
    counters_.instructions += d.instructions;
    counters_.l1i_accesses += d.l1i_accesses;
    counters_.l1i_misses += d.l1i_misses;
    counters_.l1d_accesses += d.l1d_accesses;
    counters_.l1d_misses += d.l1d_misses;
    counters_.l2_accesses += d.l2_accesses;
    counters_.l2_misses += d.l2_misses;
    counters_.mem_stall_cycles += d.mem_stall;
    Advance(d.cost);
  }

  // Deferred path accounting (compiled executor backend): PMU-counter and
  // cache-statistics deltas accumulated across a whole kernel path and
  // flushed once at path end (Executor::End) instead of once per block.
  // Cycle advancement is NOT deferred — every charge entry still calls
  // Advance() immediately, so Now(), timer assertions and preemption
  // visibility are exact at every block boundary. Counters and stats are
  // order-independent sums with no mid-path reader (PMU snapshots are taken
  // between paths; trace-sink block windows force the eager path), so the
  // single flush is observationally identical.
  struct PathTally {
    std::uint64_t instructions = 0;
    std::uint64_t l1i_accesses = 0;
    std::uint64_t l1i_misses = 0;
    std::uint64_t l1d_accesses = 0;
    std::uint64_t l1d_misses = 0;
    std::uint64_t l2_accesses = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t branches = 0;
    std::uint64_t branch_mispredicts = 0;
    std::uint64_t mem_stall_cycles = 0;
  };

  // Flushes one path's accumulated deltas: PMU counters plus the matching
  // per-cache statistics (the tally's access/miss fields double as the
  // Cache::AddStats arguments — the charge entries count both from the same
  // probes).
  void ApplyPathTally(const PathTally& t) {
    counters_.instructions += t.instructions;
    counters_.l1i_accesses += t.l1i_accesses;
    counters_.l1i_misses += t.l1i_misses;
    counters_.l1d_accesses += t.l1d_accesses;
    counters_.l1d_misses += t.l1d_misses;
    counters_.l2_accesses += t.l2_accesses;
    counters_.l2_misses += t.l2_misses;
    counters_.branches += t.branches;
    counters_.branch_mispredicts += t.branch_mispredicts;
    counters_.mem_stall_cycles += t.mem_stall_cycles;
    if (t.l1i_accesses != 0) {
      l1i_.AddStats(t.l1i_accesses, t.l1i_misses);
    }
    if (t.l1d_accesses != 0) {
      l1d_.AddStats(t.l1d_accesses, t.l1d_misses);
    }
    if (t.l2_accesses != 0) {
      l2_.AddStats(t.l2_accesses, t.l2_misses);
    }
  }

  // BranchSlot twin that defers the two counter updates into |t|. Predictor
  // state (BTB, internal mispredict count) and Advance() stay immediate.
  void BranchSlotTallied(std::uint32_t slot, Addr pc, BranchKind kind, bool taken,
                         PathTally& t) {
    if (kind != BranchKind::kNone) {
      t.branches++;
    }
    const std::uint64_t mp_before = bpred_.mispredicts();
    const Cycles cost = bpred_.OnBranchSlot(slot, pc, kind, taken);
    t.branch_mispredicts += bpred_.mispredicts() - mp_before;
    Advance(cost);
  }

  // DataAccess twin with counters and cache stats deferred into |t|.
  void DataAccessTallied(Addr addr, bool write, PathTally& t) {
    (void)write;  // write-allocate: same penalty either way
    Cycles cost = config_.memory.load_use_stall;
    t.l1d_accesses++;
    if (!l1d_.AccessLineNoStats(l1d_.SetIndexOf(addr), l1d_.TagOf(addr))) {
      t.l1d_misses++;
      Cycles penalty;
      if (!config_.l2_enabled) {
        penalty = config_.memory.mem_latency_l2_off;
      } else {
        t.l2_accesses++;
        if (l2_.AccessLineNoStats(l2_.SetIndexOf(addr), l2_.TagOf(addr))) {
          penalty = config_.memory.l2_hit_latency;
        } else {
          t.l2_misses++;
          penalty = config_.memory.mem_latency_l2_on;
        }
      }
      t.mem_stall_cycles += penalty;
      cost += penalty;
    }
    Advance(cost);
  }

  // |count| data accesses at base, base+stride, ... — the object-clearing
  // loops of the kernel issue these as one call instead of one DataAccess
  // per modelled line. Identical modelled state to the per-access loop
  // (see ChargeDelta above for why the fused Advance is safe). With |tally|
  // set, counters and cache stats land in the tally instead of the machine
  // (deferred path accounting above).
  void DataAccessRun(Addr base, std::uint32_t count, std::uint32_t stride, bool write,
                     PathTally* tally = nullptr);

  // --- Worst-case measurement support (paper Section 5.4) ---

  // Fills all caches with garbage and resets the branch predictor, emulating
  // the cache-polluting test programs used before each measured run.
  void PolluteCaches();

  // --- State access ---

  Cycles Now() const { return now_; }
  const MachineConfig& config() const { return config_; }
  const HwCounters& counters() const { return counters_; }
  Cache& l1i() { return l1i_; }
  Cache& l1d() { return l1d_; }
  Cache& l2() { return l2_; }
  const Cache& l1i() const { return l1i_; }
  const Cache& l1d() const { return l1d_; }
  const Cache& l2() const { return l2_; }
  BranchPredictor& bpred() { return bpred_; }
  const BranchPredictor& bpred() const { return bpred_; }
  InterruptController& irq() { return irq_; }
  const InterruptController& irq() const { return irq_; }
  IntervalTimer& timer() { return timer_; }
  const IntervalTimer& timer() const { return timer_; }

  bool l2_enabled() const { return config_.l2_enabled; }

  void ResetStats();

 private:
  // Refill penalty for a line missing in an L1 cache. Inline: streaming
  // workloads (object clears, cache-polluted campaign runs) miss on nearly
  // every access, so this sits on the hot path alongside Access().
  Cycles MissPenalty(Addr addr) {
    Cycles penalty;
    if (!config_.l2_enabled) {
      penalty = config_.memory.mem_latency_l2_off;
    } else {
      counters_.l2_accesses++;
      if (l2_.Access(addr)) {
        penalty = config_.memory.l2_hit_latency;
      } else {
        counters_.l2_misses++;
        penalty = config_.memory.mem_latency_l2_on;
      }
    }
    counters_.mem_stall_cycles += penalty;
    return penalty;
  }

  // Advances the cycle counter. The timer is only consulted when the counter
  // crosses its cached deadline (IntervalTimer::next_deadline): in between,
  // Tick() would be a no-op, so assertion cycles are exactly those of ticking
  // on every advance.
  void Advance(Cycles n) {
    now_ += n;
    if (now_ >= timer_.next_deadline()) {
      timer_.Tick(now_);
    }
  }

  MachineConfig config_;
  Cache l1i_;
  Cache l1d_;
  Cache l2_;
  BranchPredictor bpred_;
  InterruptController irq_;
  IntervalTimer timer_;
  Cycles now_ = 0;
  HwCounters counters_;
};

}  // namespace pmk

#endif  // SRC_HW_MACHINE_H_
