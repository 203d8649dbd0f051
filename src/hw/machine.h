// The modelled ARM1136-class machine.
//
// Composes split L1 instruction/data caches (way-lockable), an optional
// unified L2, a branch predictor, the main-memory latency model, an interrupt
// controller and an interval timer. All kernel execution costs are charged
// through this class; it is the single source of truth for the cycle counter
// (the analogue of the ARM1136 PMU cycle counter the paper measures with).
//
// The cost-charging entries (InstrFetch/DataAccess/Branch/RawCycles and the
// shortcuts the compiled executor uses) are defined inline: they are the
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

// Monotonic PMU-style event counters: the machine's one record of charged
// events (caches count nothing themselves). Never reset — PolluteCaches
// leaves them counting — so snapshot/delta measurement (src/obs/pmu.h) stays
// valid across the cache-polluting runs of Section 5.4. Every charge entry
// counts its events here as it charges them, so a read between any two
// charges is exact, mid-path included.
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

  HwCounters& operator+=(const HwCounters& o) {
    instructions += o.instructions;
    l1i_accesses += o.l1i_accesses;
    l1i_misses += o.l1i_misses;
    l1d_accesses += o.l1d_accesses;
    l1d_misses += o.l1d_misses;
    l2_accesses += o.l2_accesses;
    l2_misses += o.l2_misses;
    branches += o.branches;
    branch_mispredicts += o.branch_mispredicts;
    mem_stall_cycles += o.mem_stall_cycles;
    return *this;
  }
  HwCounters& operator-=(const HwCounters& o) {
    instructions -= o.instructions;
    l1i_accesses -= o.l1i_accesses;
    l1i_misses -= o.l1i_misses;
    l1d_accesses -= o.l1d_accesses;
    l1d_misses -= o.l1d_misses;
    l2_accesses -= o.l2_accesses;
    l2_misses -= o.l2_misses;
    branches -= o.branches;
    branch_mispredicts -= o.branch_mispredicts;
    mem_stall_cycles -= o.mem_stall_cycles;
    return *this;
  }
  bool operator==(const HwCounters&) const = default;
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

  // --- Per-access charging (interpreter oracle, direct hardware probes) ---
  //
  // Each entry charges one event and counts it on counters() at once.

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
    Advance(bpred_.OnBranch(pc, kind, taken, counters_.branch_mispredicts));
  }

  // Charges |n| raw cycles (e.g. coprocessor operations, TLB maintenance).
  void RawCycles(Cycles n) { Advance(n); }

  // --- Compiled charging (executor backend, src/kir/compiled.h) ---
  //
  // Shortcuts for work the compiled backend has folded or batched. Each
  // leaves counters(), line state, predictor state and Now() exactly as the
  // per-access entries above would, and counts its events as it charges
  // them.

  // Branch with the BTB slot precomputed (slot == pc % btb_entries); the
  // compiled executor backend folds the modulo at Program::CompiledFor time.
  // Identical charging and state transitions to Branch().
  void BranchSlot(std::uint32_t slot, Addr pc, BranchKind kind, bool taken) {
    if (kind != BranchKind::kNone) {
      counters_.branches++;
    }
    Advance(bpred_.OnBranchSlot(slot, pc, kind, taken, counters_.branch_mispredicts));
  }

  // |count| data accesses at base, base+stride, ... — the object-clearing
  // loops of the kernel issue these as one call instead of one DataAccess
  // per modelled line. Identical modelled state to the per-access loop: the
  // fused Advance is observable nowhere, because the interval timer asserts
  // at its scheduled deadline (IntervalTimer::Tick), not at the cycle count
  // that crossed it, and every observer runs at block boundaries.
  void DataAccessRun(Addr base, std::uint32_t count, std::uint32_t stride, bool write);

  // Ends one compiled block (CompiledProgram::Run's kEnd): adds the events
  // its charge stream summed in locals and advances the block's |cycles| at
  // once. Nothing observes the machine inside a block, so this equals
  // charging the stream's events one by one.
  void ChargeBlock(HwCounters events, Cycles cycles) {
    counters_ += events;
    Advance(cycles);
  }

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

 private:
  // Refill penalty for a line missing in an L1 cache, counted on
  // counters(). Inline: streaming workloads (object clears, cache-polluted
  // campaign runs) miss on nearly every access, so this sits on the hot path
  // alongside Access().
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
