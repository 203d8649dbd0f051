// Differential tests for the simulator's fast paths. The SoA shift/mask
// cache is cross-checked against an independent reimplementation of the seed
// cache (SeedModelCache below), and the compiled executor backend against the
// interpreter oracle (Executor::ChargeMode::kInterpreted), under randomized
// op streams and whole-kernel workloads on 32- and 64-byte lines, traced,
// untraced and with the PMU read at every block. The oracle re-derives
// everything the compiler folds from the Block descriptors, so a
// deliberately mis-lowered access must make the comparison fail.

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/campaign.h"
#include "src/fault/scenario.h"
#include "src/hw/cache.h"
#include "src/hw/machine.h"
#include "src/kir/compiled.h"
#include "src/kir/executor.h"
#include "src/obs/pmu.h"
#include "src/obs/trace_sink.h"
#include "src/sim/workload.h"

namespace pmk {
namespace {

constexpr Executor::ChargeMode kCompiled = Executor::ChargeMode::kCompiled;
constexpr Executor::ChargeMode kInterpreted = Executor::ChargeMode::kInterpreted;

// Independent reimplementation of the pre-overhaul cache: array-of-structures
// line storage and division-based set/tag arithmetic. Kept deliberately naive
// — it is the differential-testing oracle, not a performance path.
class SeedModelCache {
 public:
  explicit SeedModelCache(const CacheConfig& config)
      : config_(config),
        num_sets_(config.NumSets()),
        lines_(static_cast<std::size_t>(config.NumSets()) * config.ways),
        rr_next_(config.NumSets(), 0) {}

  bool Access(Addr addr) {
    const std::uint32_t set = SetIndexOf(addr);
    const Addr tag = TagOf(addr);
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      Line& l = LineAt(set, w);
      if (l.valid && l.tag == tag) {
        return true;
      }
    }
    const std::uint32_t all = config_.ways >= 32 ? ~0u : ((1u << config_.ways) - 1);
    if ((locked_ways_ & all) == all) {
      return false;
    }
    const std::uint32_t victim = PickVictim(set);
    LineAt(set, victim) = {true, tag};
    return false;
  }

  bool Contains(Addr addr) const {
    const std::uint32_t set = SetIndexOf(addr);
    const Addr tag = TagOf(addr);
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      const Line& l = lines_[static_cast<std::size_t>(set) * config_.ways + w];
      if (l.valid && l.tag == tag) {
        return true;
      }
    }
    return false;
  }

  void InstallLine(Addr addr, std::uint32_t way) {
    LineAt(SetIndexOf(addr), way) = {true, TagOf(addr)};
  }

  void LockWay(std::uint32_t way) { locked_ways_ |= (1u << way); }
  void UnlockWay(std::uint32_t way) { locked_ways_ &= ~(1u << way); }

  void InvalidateAll() {
    for (Line& l : lines_) {
      l.valid = false;
    }
  }

  void Pollute(Addr garbage_base, double fraction = 1.0) {
    const std::uint32_t threshold = static_cast<std::uint32_t>(fraction * 1024.0 + 0.5);
    for (std::uint32_t set = 0; set < num_sets_; ++set) {
      if ((set * 2654435761u >> 6) % 1024 >= threshold) {
        continue;
      }
      for (std::uint32_t w = 0; w < config_.ways; ++w) {
        if (locked_ways_ & (1u << w)) {
          continue;
        }
        const Addr addr =
            garbage_base + (static_cast<Addr>(w) * num_sets_ + set) * config_.line_bytes;
        LineAt(set, w) = {true, TagOf(addr)};
      }
    }
  }


 private:
  struct Line {
    bool valid = false;
    Addr tag = 0;
  };

  std::uint32_t SetIndexOf(Addr addr) const {
    return static_cast<std::uint32_t>((addr / config_.line_bytes) & (num_sets_ - 1));
  }
  Addr TagOf(Addr addr) const { return addr / config_.line_bytes / num_sets_; }

  Line& LineAt(std::uint32_t set, std::uint32_t way) {
    return lines_[static_cast<std::size_t>(set) * config_.ways + way];
  }

  std::uint32_t PickVictim(std::uint32_t set) {
    if (config_.policy == ReplacementPolicy::kRoundRobin) {
      const std::uint32_t w = rr_next_[set];
      for (std::uint32_t tries = 0; tries < config_.ways; ++tries) {
        const std::uint32_t cand = (w + tries) % config_.ways;
        if (!(locked_ways_ & (1u << cand))) {
          rr_next_[set] = (cand + 1) % config_.ways;
          return cand;
        }
      }
    } else {
      for (std::uint32_t tries = 0; tries < 4 * config_.ways; ++tries) {
        lfsr_ = (lfsr_ >> 1) ^ (-(lfsr_ & 1u) & 0xB400u);
        const std::uint32_t cand = static_cast<std::uint32_t>(lfsr_) % config_.ways;
        if (!(locked_ways_ & (1u << cand))) {
          return cand;
        }
      }
      for (std::uint32_t cand = 0; cand < config_.ways; ++cand) {
        if (!(locked_ways_ & (1u << cand))) {
          return cand;
        }
      }
    }
    return 0;
  }

  CacheConfig config_;
  std::uint32_t num_sets_;
  std::vector<Line> lines_;
  std::vector<std::uint32_t> rr_next_;
  std::uint32_t locked_ways_ = 0;
  std::uint64_t lfsr_ = 0xACE1u;
};

// An address stream mixing tight loops (hits), strided sweeps (conflict
// misses) and uniform noise — roughly what kernel execution throws at the L1s.
std::vector<Addr> MakeAddressStream(std::mt19937_64& rng, std::size_t n) {
  std::vector<Addr> out;
  out.reserve(n);
  std::uniform_int_distribution<Addr> uniform(0, 1u << 22);
  Addr loop_base = 0x100000;
  while (out.size() < n) {
    switch (rng() % 3) {
      case 0:  // loop over a small working set
        loop_base = uniform(rng) & ~Addr{31};
        for (int rep = 0; rep < 8 && out.size() < n; ++rep) {
          for (Addr off = 0; off < 512 && out.size() < n; off += 32) {
            out.push_back(loop_base + off);
          }
        }
        break;
      case 1:  // page-strided sweep: same set, different tags
        for (Addr i = 0; i < 24 && out.size() < n; ++i) {
          out.push_back((uniform(rng) & 0xFFF) + i * 4096);
        }
        break;
      default:
        for (int i = 0; i < 16 && out.size() < n; ++i) {
          out.push_back(uniform(rng));
        }
        break;
    }
  }
  return out;
}

class CacheEquivalenceTest : public ::testing::TestWithParam<ReplacementPolicy> {};

// The SoA cache and the seed-model oracle must agree per access and in every
// derived observation across a randomized op stream that also exercises
// locking, installation, invalidation and pollution.
TEST_P(CacheEquivalenceTest, RandomStreamMatchesSeedModel) {
  CacheConfig cfg{.name = "eq", .size_bytes = 16 * 1024, .ways = 4, .line_bytes = 32,
                  .policy = GetParam()};
  Cache opt(cfg);
  SeedModelCache seed(cfg);

  std::mt19937_64 rng(42);
  const std::vector<Addr> stream = MakeAddressStream(rng, 30000);
  std::size_t pos = 0;
  while (pos < stream.size()) {
    // Occasionally mutate lock/valid state the same way on both models.
    switch (rng() % 16) {
      case 0: {
        const std::uint32_t way = static_cast<std::uint32_t>(rng() % cfg.ways);
        opt.LockWay(way);
        seed.LockWay(way);
        break;
      }
      case 1: {
        const std::uint32_t way = static_cast<std::uint32_t>(rng() % cfg.ways);
        opt.UnlockWay(way);
        seed.UnlockWay(way);
        break;
      }
      case 2: {
        const Addr a = stream[pos] & ~Addr{31};
        const std::uint32_t way = static_cast<std::uint32_t>(rng() % cfg.ways);
        opt.InstallLine(a, way);
        seed.InstallLine(a, way);
        break;
      }
      case 3:
        opt.InvalidateAll();
        seed.InvalidateAll();
        break;
      case 4: {
        const double fraction = (rng() % 2 != 0) ? 1.0 : 0.5;
        opt.Pollute(0x4000'0000, fraction);
        seed.Pollute(0x4000'0000, fraction);
        break;
      }
      default:
        break;
    }
    const std::size_t burst = std::min<std::size_t>(64, stream.size() - pos);
    for (std::size_t i = 0; i < burst; ++i) {
      const Addr a = stream[pos + i];
      ASSERT_EQ(opt.Access(a), seed.Access(a)) << "access #" << pos + i;
    }
    // Contains is a pure observation; spot-check it over the burst.
    for (std::size_t i = 0; i < burst; i += 7) {
      const Addr a = stream[pos + i];
      ASSERT_EQ(opt.Contains(a), seed.Contains(a));
    }
    pos += burst;
  }
}

// The split AccessLine(set, tag) entry must be exactly Access(addr) when fed
// the decomposed address, and the decomposition must match the seed's
// division arithmetic.
TEST_P(CacheEquivalenceTest, AccessLineMatchesAccess) {
  CacheConfig cfg{.name = "split", .size_bytes = 16 * 1024, .ways = 4, .line_bytes = 32,
                  .policy = GetParam()};
  Cache whole(cfg);
  Cache split(cfg);

  std::mt19937_64 rng(11);
  const std::vector<Addr> stream = MakeAddressStream(rng, 10000);
  for (const Addr a : stream) {
    EXPECT_EQ(split.SetIndexOf(a),
              static_cast<std::uint32_t>((a / cfg.line_bytes) & (cfg.NumSets() - 1)));
    EXPECT_EQ(split.TagOf(a), a / cfg.line_bytes / cfg.NumSets());
    ASSERT_EQ(whole.Access(a), split.AccessLine(split.SetIndexOf(a), split.TagOf(a)));
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheEquivalenceTest,
                         ::testing::Values(ReplacementPolicy::kRoundRobin,
                                           ReplacementPolicy::kPseudoRandom),
                         [](const auto& param_info) {
                           return param_info.param == ReplacementPolicy::kRoundRobin
                                      ? "RoundRobin"
                                      : "PseudoRandom";
                         });

// Pollute(fraction) must touch exactly the seed model's set selection at
// every fraction, including with locked ways held out.
TEST(CacheEquivalence, PolluteFractionMatchesSeedModel) {
  for (const double fraction : {0.0, 0.25, 0.5, 1.0}) {
    CacheConfig cfg{.name = "pollute", .size_bytes = 128 * 1024, .ways = 8, .line_bytes = 32};
    Cache opt(cfg);
    SeedModelCache seed(cfg);
    opt.LockWay(0);
    seed.LockWay(0);
    opt.Pollute(0x6000'0000, fraction);
    seed.Pollute(0x6000'0000, fraction);
    // Probe every garbage line address the full-pollution pass would install.
    for (std::uint32_t w = 0; w < cfg.ways; ++w) {
      for (std::uint32_t set = 0; set < cfg.NumSets(); set += 17) {
        const Addr a =
            0x6000'0000 + (static_cast<Addr>(w) * cfg.NumSets() + set) * cfg.line_bytes;
        ASSERT_EQ(opt.Contains(a), seed.Contains(a))
            << "fraction " << fraction << " way " << w << " set " << set;
      }
    }
  }
}

// Pinned lines must survive arbitrary conflict pressure under the SoA layout,
// and a fully-locked cache must bypass allocation entirely.
TEST(CacheEquivalence, WayLockingUnderSoaLayout) {
  CacheConfig cfg{.name = "lock", .size_bytes = 16 * 1024, .ways = 4, .line_bytes = 32};
  Cache c(cfg);
  const Addr pinned = 0x100040;
  c.InstallLine(pinned, 0);
  c.LockWay(0);

  // 64 tags mapping to the pinned line's set.
  const std::uint32_t set_span = cfg.NumSets() * cfg.line_bytes;
  for (int i = 1; i <= 64; ++i) {
    c.Access(pinned + static_cast<Addr>(i) * set_span);
  }
  EXPECT_TRUE(c.Contains(pinned));

  for (std::uint32_t w = 0; w < cfg.ways; ++w) {
    c.LockWay(w);
  }
  EXPECT_FALSE(c.Access(0x7777'0000));
  EXPECT_FALSE(c.Contains(0x7777'0000));  // bypassed, not allocated
}

// A copied Machine shares the original's LFSR state: identical access
// patterns on both must replay identically, including pseudo-random victim
// choices made after the copy.
TEST(CacheEquivalence, LfsrDeterminismAcrossMachineCopies) {
  MachineConfig mc;
  mc.l1i.policy = ReplacementPolicy::kPseudoRandom;
  mc.l1d.policy = ReplacementPolicy::kPseudoRandom;
  Machine a(mc);

  std::mt19937_64 rng(3);
  const std::vector<Addr> warmup = MakeAddressStream(rng, 4000);
  for (const Addr addr : warmup) {
    a.DataAccess(addr, false);
  }

  Machine b(a);
  const std::vector<Addr> tail = MakeAddressStream(rng, 4000);
  for (const Addr addr : tail) {
    a.DataAccess(addr, (addr & 64) != 0);
    b.DataAccess(addr, (addr & 64) != 0);
  }
  EXPECT_EQ(a.Now(), b.Now());
  EXPECT_EQ(a.counters(), b.counters());
  for (const Addr addr : tail) {
    ASSERT_EQ(a.l1d().Contains(addr), b.l1d().Contains(addr));
  }
}

// --- Whole-stack equivalence: compiled backend vs interpreter oracle ---

struct KernelRunOutcome {
  Cycles now = 0;
  HwCounters counters;
  std::vector<Cycles> irq_latencies;
  std::uint32_t preemptions = 0;
};

KernelRunOutcome Snapshot(const Machine& m) {
  KernelRunOutcome out;
  out.now = m.Now();
  out.counters = m.counters();
  return out;
}

// The comparison every compiled-vs-oracle test makes: final cycle, every PMU
// counter and the interrupt latencies. Names the first field that differs.
::testing::AssertionResult OutcomesMatch(const KernelRunOutcome& a, const KernelRunOutcome& b) {
  const std::pair<const char*, bool> fields[] = {
      {"now", a.now == b.now},
      {"preemptions", a.preemptions == b.preemptions},
      {"irq_latencies", a.irq_latencies == b.irq_latencies},
      {"instructions", a.counters.instructions == b.counters.instructions},
      {"l1i_accesses", a.counters.l1i_accesses == b.counters.l1i_accesses},
      {"l1i_misses", a.counters.l1i_misses == b.counters.l1i_misses},
      {"l1d_accesses", a.counters.l1d_accesses == b.counters.l1d_accesses},
      {"l1d_misses", a.counters.l1d_misses == b.counters.l1d_misses},
      {"l2_accesses", a.counters.l2_accesses == b.counters.l2_accesses},
      {"l2_misses", a.counters.l2_misses == b.counters.l2_misses},
      {"branches", a.counters.branches == b.counters.branches},
      {"branch_mispredicts", a.counters.branch_mispredicts == b.counters.branch_mispredicts},
      {"mem_stall_cycles", a.counters.mem_stall_cycles == b.counters.mem_stall_cycles},
  };
  for (const auto& [name, same] : fields) {
    if (!same) {
      return ::testing::AssertionFailure() << name << " differs (cycles " << a.now << " vs "
                                           << b.now << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// A campaign-shaped workload: the attacker retypes large frames under a
// periodic timer, the operation preempts, restarts and completes, and the
// real-time thread's interrupt latencies are recorded. Threads are named by
// TCB base address so the steps can run on a clone or a decoded copy.
struct PreemptWorld {
  std::uint32_t timer_cptr = 0;
  std::uint32_t ut_cptr = 0;
  Addr rt_task = 0;
  Addr attacker = 0;
};

PreemptWorld BootPreemptWorld(System& sys) {
  PreemptWorld w;
  EndpointObj* timer_ep = nullptr;
  w.timer_cptr = sys.AddEndpoint(&timer_ep);
  TcbObj* rt_task = sys.AddThread(250);
  sys.kernel().DirectBindIrq(InterruptController::kTimerLine, timer_ep);
  sys.kernel().DirectBlockOnRecv(rt_task, timer_ep);
  w.ut_cptr = sys.AddUntyped(21);
  TcbObj* attacker = sys.AddThread(20);
  sys.kernel().DirectSetCurrent(attacker);
  w.rt_task = rt_task->base;
  w.attacker = attacker->base;
  return w;
}

KernelRunOutcome RunPreemptSteps(System& sys, const PreemptWorld& w) {
  TcbObj* rt_task = sys.kernel().objects().Get<TcbObj>(w.rt_task);
  TcbObj* attacker = sys.kernel().objects().Get<TcbObj>(w.attacker);
  sys.machine().timer().set_period(20'000);
  sys.machine().timer().Restart(sys.machine().Now());

  std::uint32_t preemptions = 0;
  std::uint32_t dest = 40;
  for (int step = 0; step < 60; ++step) {
    if (sys.machine().irq().AnyPending() && sys.kernel().current() != rt_task) {
      sys.kernel().HandleIrqEntry();
    }
    if (sys.kernel().current() == rt_task) {
      sys.machine().RawCycles(200);
      sys.kernel().Syscall(SysOp::kRecv, w.timer_cptr, SyscallArgs{});
      sys.machine().irq().Unmask(InterruptController::kTimerLine);
      if (sys.kernel().current() == sys.kernel().idle()) {
        sys.kernel().DirectSetCurrent(attacker);
      }
      continue;
    }
    SyscallArgs args;
    args.label = InvLabel::kUntypedRetype;
    args.obj_type = ObjType::kFrame;
    args.obj_bits = 16;
    args.dest_index = dest;
    const KernelExit e = sys.kernel().Syscall(SysOp::kCall, w.ut_cptr, args);
    if (e == KernelExit::kPreempted) {
      preemptions++;
    } else if (attacker->last_error == KError::kOk) {
      dest++;
    }
    if (sys.kernel().current() == sys.kernel().idle()) {
      sys.kernel().DirectSetCurrent(attacker);
    }
    sys.machine().RawCycles(500);
  }
  sys.machine().timer().set_period(0);
  KernelRunOutcome out = Snapshot(sys.machine());
  out.irq_latencies = sys.kernel().irq_latencies();
  out.preemptions = preemptions;
  return out;
}

// A fault hook that reads the PMU at every block the executor enters: what
// an observer sampling the counters at each block boundary sees.
class PmuAtEveryBlock : public FaultHook {
 public:
  PmuAtEveryBlock(const Machine* machine, std::vector<PmuSnapshot>* reads)
      : machine_(machine), reads_(reads) {}

  void OnBlock(BlockId, bool) override { reads_->push_back(ReadPmu(*machine_)); }

 private:
  const Machine* machine_;
  std::vector<PmuSnapshot>* reads_;
};

// The measured steps' observers: |sink|, when set, is attached to the kernel
// and the interrupt controller, and |block_reads|, when set, receives a PMU
// read at every block boundary.
struct Observers {
  TraceSink* sink = nullptr;
  std::vector<PmuSnapshot>* block_reads = nullptr;
};

KernelRunOutcome RunTimerPreemptWorkload(const MachineConfig& mc, Executor::ChargeMode mode,
                                         Observers obs = {}) {
  System sys(KernelConfig::After(), mc);
  sys.kernel().exec().set_charge_mode(mode);
  const PreemptWorld w = BootPreemptWorld(sys);
  sys.AttachTraceSink(obs.sink);
  PmuAtEveryBlock hook(&sys.machine(), obs.block_reads);
  sys.kernel().exec().set_fault_hook(obs.block_reads != nullptr ? &hook : nullptr);
  return RunPreemptSteps(sys, w);
}

// The worst-case IPC: a long, fastpath-ineligible Call.
KernelRunOutcome RunWorstIpc(const MachineConfig& mc, Executor::ChargeMode mode,
                             Observers obs = {}) {
  System sys(KernelConfig::After(), mc);
  sys.kernel().exec().set_charge_mode(mode);
  System::WorstIpc w = sys.BuildWorstCaseIpc();
  sys.kernel().DirectSetCurrent(w.caller);
  sys.AttachTraceSink(obs.sink);
  PmuAtEveryBlock hook(&sys.machine(), obs.block_reads);
  sys.kernel().exec().set_fault_hook(obs.block_reads != nullptr ? &hook : nullptr);
  sys.kernel().Syscall(SysOp::kCall, w.ep_cptr, w.args);
  return Snapshot(sys.machine());
}

MachineConfig WideLines() {
  MachineConfig mc = EvalMachine(true);
  mc.l1i.line_bytes = 64;
  mc.l1d.line_bytes = 64;
  mc.l2.line_bytes = 64;
  return mc;
}

// The full preempting workload on the paper's 32-byte-line machine (L2 on)
// must be bit-identical between the compiled backend and the oracle: same
// final cycle, PMU counters, cache statistics and interrupt latencies.
TEST(ExecutorEquivalence, ReferenceModeIsBitIdentical) {
  const KernelRunOutcome compiled = RunTimerPreemptWorkload(EvalMachine(true), kCompiled);
  const KernelRunOutcome oracle = RunTimerPreemptWorkload(EvalMachine(true), kInterpreted);
  EXPECT_FALSE(compiled.irq_latencies.empty());
  EXPECT_GT(compiled.preemptions, 0u);
  EXPECT_TRUE(OutcomesMatch(compiled, oracle));
}

// The compiled backend is the default, and it matches the oracle on the
// geometries its folding specialises on: the branch predictor on (BTB slots
// folded per block) and pseudo-random replacement, at 32- and 64-byte lines.
TEST(ExecutorEquivalence, CompiledBackendMatchesInterpreter) {
  {
    System sys(KernelConfig::After(), EvalMachine(true));
    ASSERT_EQ(sys.kernel().exec().charge_mode(), kCompiled);
  }
  for (MachineConfig mc : {EvalMachine(true, true), WideLines()}) {
    mc.bpred.enabled = true;
    mc.l1i.policy = ReplacementPolicy::kPseudoRandom;
    mc.l1d.policy = ReplacementPolicy::kPseudoRandom;
    const KernelRunOutcome compiled = RunTimerPreemptWorkload(mc, kCompiled);
    EXPECT_GT(compiled.counters.branch_mispredicts, 0u);
    EXPECT_TRUE(OutcomesMatch(compiled, RunTimerPreemptWorkload(mc, kInterpreted)))
        << mc.l1i.line_bytes << "-byte lines";
  }
}

// The worst-case IPC (long fastpath-ineligible path, L2 off) must match too,
// at 32- and 64-byte lines.
TEST(ExecutorEquivalence, GenericChargeModeIsBitIdentical) {
  for (const MachineConfig& mc : {EvalMachine(false), WideLines()}) {
    const KernelRunOutcome compiled = RunWorstIpc(mc, kCompiled);
    EXPECT_GT(compiled.counters.l1d_misses, 0u);
    EXPECT_TRUE(OutcomesMatch(compiled, RunWorstIpc(mc, kInterpreted)))
        << mc.l1i.line_bytes << "-byte lines";
  }
}

// Every field of every event — kind, cycle, id and the three arguments —
// must agree between two traced runs. Names the first event that differs.
::testing::AssertionResult EventsMatch(const std::vector<TraceEvent>& a,
                                       const std::vector<TraceEvent>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << a.size() << " vs " << b.size() << " events";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const TraceEvent& x = a[i];
    const TraceEvent& y = b[i];
    if (x.kind != y.kind || x.cycle != y.cycle || x.id != y.id || x.arg0 != y.arg0 ||
        x.arg1 != y.arg1 || x.arg2 != y.arg2) {
      return ::testing::AssertionFailure()
             << "event " << i << " differs: kind " << static_cast<int>(x.kind) << "/"
             << static_cast<int>(y.kind) << ", cycle " << x.cycle << "/" << y.cycle
             << ", args " << x.arg0 << "," << x.arg1 << "," << x.arg2 << "/" << y.arg0 << ","
             << y.arg1 << "," << y.arg2;
    }
  }
  return ::testing::AssertionSuccess();
}

using Workload = KernelRunOutcome (*)(const MachineConfig&, Executor::ChargeMode, Observers);

// The two whole-kernel workloads, each with its paper-configuration machine:
// the timer-preempt workload with the L2 on, the worst-case IPC with it off.
struct NamedWorkload {
  const char* name;
  Workload run;
  MachineConfig narrow;
};
std::vector<NamedWorkload> KernelWorkloads() {
  return {{"timer-preempt", &RunTimerPreemptWorkload, EvalMachine(true)},
          {"worst-case IPC", &RunWorstIpc, EvalMachine(false)}};
}

// Each kBlockCost window's miss counts come from the machine's counters at
// block boundaries: the traced event stream and the final counters must
// match the oracle's, event for event, on both workloads at 32- and 64-byte
// lines.
TEST(ExecutorEquivalence, TracedRunMatchesOracle) {
  for (const auto& [name, run, narrow] : KernelWorkloads()) {
    for (const MachineConfig& mc : {narrow, WideLines()}) {
      EventLog compiled_log;
      EventLog oracle_log;
      const KernelRunOutcome compiled = run(mc, kCompiled, {.sink = &compiled_log});
      const KernelRunOutcome oracle = run(mc, kInterpreted, {.sink = &oracle_log});
      const std::string where = std::string(name) + ", " + std::to_string(mc.l1i.line_bytes) +
                                "-byte lines";
      std::uint64_t window_misses = 0;
      for (const TraceEvent& e : compiled_log.events()) {
        if (e.kind == TraceEventKind::kBlockCost) {
          window_misses += e.arg1 + e.arg2;
        }
      }
      EXPECT_GT(window_misses, 0u) << where;
      EXPECT_TRUE(EventsMatch(compiled_log.events(), oracle_log.events())) << where;
      EXPECT_TRUE(OutcomesMatch(compiled, oracle)) << where;
    }
  }
}

// The counters are exact at every block boundary with no sink attached: a
// fault hook reading the PMU as each block is entered must see the oracle's
// reads, read for read, on both workloads.
TEST(ExecutorEquivalence, FaultHookReadsExactCounters) {
  for (const auto& [name, run, mc] : KernelWorkloads()) {
    std::vector<PmuSnapshot> compiled;
    std::vector<PmuSnapshot> oracle;
    run(mc, kCompiled, {.block_reads = &compiled});
    run(mc, kInterpreted, {.block_reads = &oracle});
    ASSERT_FALSE(oracle.empty()) << name;
    ASSERT_EQ(compiled.size(), oracle.size()) << name;
    std::size_t differ = 0;
    std::size_t first = 0;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      if (compiled[i] != oracle[i] && differ++ == 0) {
        first = i;
      }
    }
    EXPECT_EQ(differ, 0u) << name << ": " << differ << " of " << oracle.size()
                          << " reads differ, the first at read " << first << " (l1i_accesses "
                          << compiled[first].l1i_accesses << " vs "
                          << oracle[first].l1i_accesses << ")";
  }
}

// A machine with 64-byte lines throughout must reproduce the oracle end to
// end on the full preempting workload.
TEST(ExecutorEquivalence, WideLineGeometryMatchesReferenceEndToEnd) {
  const KernelRunOutcome compiled = RunTimerPreemptWorkload(WideLines(), kCompiled);
  const KernelRunOutcome oracle = RunTimerPreemptWorkload(WideLines(), kInterpreted);
  EXPECT_FALSE(oracle.irq_latencies.empty());
  EXPECT_GT(oracle.preemptions, 0u);
  EXPECT_TRUE(OutcomesMatch(compiled, oracle));
}

// A clone keeps the source executor's charge mode, and replays the workload
// identically in both modes.
TEST(ExecutorEquivalence, CloneInheritsChargeMode) {
  KernelRunOutcome cloned[2];
  for (const Executor::ChargeMode mode : {kCompiled, kInterpreted}) {
    System sys(KernelConfig::After(), EvalMachine(true));
    sys.kernel().exec().set_charge_mode(mode);
    const PreemptWorld w = BootPreemptWorld(sys);
    const std::unique_ptr<System> clone = sys.Clone();
    ASSERT_EQ(clone->kernel().exec().charge_mode(), mode);
    const int i = mode == kCompiled ? 0 : 1;
    cloned[i] = RunPreemptSteps(*clone, w);
    EXPECT_TRUE(OutcomesMatch(cloned[i], RunPreemptSteps(sys, w)));
  }
  EXPECT_GT(cloned[0].preemptions, 0u);
  EXPECT_TRUE(OutcomesMatch(cloned[0], cloned[1]));
}

// An exhaustive IRQ sweep of every canonical operation — dry run plus one
// injected run per preemption boundary — must report identical results on
// systems switched to the oracle.
TEST(ExecutorEquivalence, IrqSweepIsBitIdentical) {
  const SweepOptions opts;
  for (const auto& [name, factory] : CanonicalOps()) {
    const OpFactory oracle = [factory = factory] {
      OpInstance inst = factory();
      inst.sys->kernel().exec().set_charge_mode(kInterpreted);
      return inst;
    };
    const SweepResult fast = ExhaustiveIrqSweep(factory, opts);
    const SweepResult ref = ExhaustiveIrqSweep(oracle, opts);
    ASSERT_GT(fast.preempt_points, 0u) << name;
    ASSERT_EQ(fast.preempt_points, ref.preempt_points) << name;
    ASSERT_EQ(fast.runs.size(), ref.runs.size()) << name;
    EXPECT_EQ(fast.dry_run.max_irq_latency, ref.dry_run.max_irq_latency) << name;
    for (std::size_t i = 0; i < fast.runs.size(); ++i) {
      const RunRecord& a = fast.runs[i];
      const RunRecord& b = ref.runs[i];
      EXPECT_TRUE(a.ok()) << name << " run " << i << ": " << a.detail;
      EXPECT_EQ(a.plan, b.plan) << name;
      EXPECT_EQ(a.ok(), b.ok()) << name << " run " << i;
      EXPECT_EQ(a.restarts, b.restarts) << name << " run " << i;
      EXPECT_EQ(a.preempt_points, b.preempt_points) << name << " run " << i;
      EXPECT_EQ(a.max_irq_latency, b.max_irq_latency) << name << " run " << i;
      EXPECT_EQ(a.irq_hist.Count(), b.irq_hist.Count()) << name << " run " << i;
      EXPECT_EQ(a.irq_hist.Sum(), b.irq_hist.Sum()) << name << " run " << i;
    }
  }
}

// A private two-block program whose blocks load the same global word: the
// second load hits the line the first one brought in.
std::unique_ptr<Program> MakeTwoLoadProgram() {
  auto p = std::make_unique<Program>();
  const SymId word = p->AddSymbol("word", 8);
  const FuncId f = p->AddFunction("entry");
  Block load;
  load.instr_count = 6;
  load.static_accesses = {{StaticAccess::Region::kGlobal, word, 0, false}};
  load.name = "first";
  const BlockId first = p->AddBlock(f, load);
  load.name = "second";
  load.is_return = true;
  const BlockId second = p->AddBlock(f, load);
  p->AddEdge(first, second);
  p->Layout();
  return p;
}

// Runs the two-block path, switching to |second| between the blocks.
KernelRunOutcome RunTwoLoads(const Program& p, Executor::ChargeMode first,
                             Executor::ChargeMode second) {
  Machine m(EvalMachine(true));
  Executor ex(&p, &m);
  ex.set_charge_mode(first);
  ex.Begin(0);
  ex.At(0);
  ex.set_charge_mode(second);
  ex.At(1);
  ex.End();
  return Snapshot(m);
}

// The oracle has teeth: mis-lower one static access by corrupting the
// Layout() data only the compiler reads (Block::prepared_accesses) before
// the first CompiledFor. The compiled stream then loads the wrong line while
// the oracle still resolves the declared access, and the comparison fails.
// The faithful program matches in every mode, switched mid-path too.
TEST(ExecutorEquivalence, OracleCatchesMisloweredAccess) {
  const std::unique_ptr<Program> faithful = MakeTwoLoadProgram();
  const KernelRunOutcome want = RunTwoLoads(*faithful, kInterpreted, kInterpreted);
  EXPECT_TRUE(OutcomesMatch(RunTwoLoads(*faithful, kCompiled, kCompiled), want));
  EXPECT_TRUE(OutcomesMatch(RunTwoLoads(*faithful, kCompiled, kInterpreted), want));
  EXPECT_TRUE(OutcomesMatch(RunTwoLoads(*faithful, kInterpreted, kCompiled), want));

  const std::unique_ptr<Program> mislowered = MakeTwoLoadProgram();
  mislowered->mutable_block(1).prepared_accesses[0].addr += 64;  // the next line
  const KernelRunOutcome compiled = RunTwoLoads(*mislowered, kCompiled, kCompiled);
  const KernelRunOutcome oracle = RunTwoLoads(*mislowered, kInterpreted, kInterpreted);
  EXPECT_FALSE(OutcomesMatch(compiled, oracle));
  EXPECT_EQ(compiled.counters.l1d_misses, 2u);
  EXPECT_EQ(oracle.counters.l1d_misses, 1u);
}

// --- Timer deadline regression ---

// The deadline-gated Advance must assert the timer line at exactly the same
// cycles as ticking on every advance — the oracle machine calls the public
// IntervalTimer::Tick(now) after every step — across irregular advance
// sizes, multi-period jumps, mid-run set_period/Restart pokes and period-0
// disablement.
TEST(TimerDeadline, AssertionCyclesMatchTickEveryAdvance) {
  MachineConfig mc;
  mc.timer_period = 1000;
  Machine fast(mc);
  Machine ref(mc);

  fast.timer().Restart(0);
  ref.timer().Restart(0);

  std::mt19937_64 rng(5);
  auto step = [&](Cycles n) {
    fast.RawCycles(n);
    ref.RawCycles(n);
    ref.timer().Tick(ref.Now());
    ASSERT_EQ(fast.irq().IsPending(InterruptController::kTimerLine),
              ref.irq().IsPending(InterruptController::kTimerLine));
    if (fast.irq().IsPending(InterruptController::kTimerLine)) {
      const auto t_fast = fast.irq().Acknowledge(InterruptController::kTimerLine);
      const auto t_ref = ref.irq().Acknowledge(InterruptController::kTimerLine);
      ASSERT_TRUE(t_fast.has_value());
      ASSERT_EQ(*t_fast, *t_ref);
    }
    ASSERT_EQ(fast.irq().coalesced_asserts(), ref.irq().coalesced_asserts());
  };

  for (int i = 0; i < 400; ++i) {
    step(1 + rng() % 300);
  }
  step(5'500);  // one advance crossing multiple periods: coalesces identically

  // Mid-run retargeting through the public timer accessors.
  fast.timer().set_period(350);
  ref.timer().set_period(350);
  fast.timer().Restart(fast.Now());
  ref.timer().Restart(ref.Now());
  for (int i = 0; i < 200; ++i) {
    step(1 + rng() % 120);
  }

  // Disable, run quietly, re-enable.
  fast.timer().set_period(0);
  ref.timer().set_period(0);
  EXPECT_EQ(fast.timer().next_deadline(), IntervalTimer::kNever);
  for (int i = 0; i < 50; ++i) {
    step(1 + rng() % 500);
  }
  fast.timer().set_period(777);
  ref.timer().set_period(777);
  fast.timer().Restart(fast.Now());
  ref.timer().Restart(ref.Now());
  for (int i = 0; i < 200; ++i) {
    step(1 + rng() % 250);
  }
  EXPECT_EQ(fast.Now(), ref.Now());
}

// A disabled timer's deadline is kNever: the hot loop must never call into
// Tick at all. (Deadline bookkeeping only; firing behaviour is covered above.)
TEST(TimerDeadline, DisabledTimerNeverDue) {
  MachineConfig mc;  // timer_period = 0
  Machine m(mc);
  EXPECT_EQ(m.timer().next_deadline(), IntervalTimer::kNever);
  m.RawCycles(1'000'000);
  EXPECT_FALSE(m.irq().IsPending(InterruptController::kTimerLine));
}

}  // namespace
}  // namespace pmk
