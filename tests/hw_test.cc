// Unit tests for the machine model: caches (associativity, replacement,
// way-locking, pollution), branch predictor, interrupt controller/timer and
// the cost-charging machine.

#include <stdexcept>

#include <gtest/gtest.h>

#include "src/hw/machine.h"
#include "src/obs/trace_sink.h"

namespace pmk {
namespace {

CacheConfig SmallCache(std::uint32_t ways, ReplacementPolicy pol = ReplacementPolicy::kRoundRobin) {
  CacheConfig c;
  c.size_bytes = 1024;
  c.ways = ways;
  c.line_bytes = 32;
  c.policy = pol;
  return c;
}

TEST(CacheConfigTest, ValidGeometriesConstruct) {
  EXPECT_NO_THROW(Cache(SmallCache(1)));
  EXPECT_NO_THROW(Cache(SmallCache(4)));
  CacheConfig l2{.name = "L2", .size_bytes = 128 * 1024, .ways = 8, .line_bytes = 32};
  EXPECT_NO_THROW(Cache{l2});
}

TEST(CacheConfigTest, InvalidGeometriesThrow) {
  CacheConfig c = SmallCache(4);
  c.ways = 0;
  EXPECT_THROW(Cache{c}, std::invalid_argument);  // ways < 1

  c = SmallCache(4);
  c.line_bytes = 24;
  EXPECT_THROW(Cache{c}, std::invalid_argument);  // non-power-of-two line

  c = SmallCache(4);
  c.size_bytes = 1024 + 32;
  EXPECT_THROW(Cache{c}, std::invalid_argument);  // not a multiple of ways*line

  c = SmallCache(4);
  c.size_bytes = 3 * 4 * 32;  // 3 sets
  EXPECT_THROW(Cache{c}, std::invalid_argument);  // non-power-of-two set count

  c = SmallCache(4);
  c.size_bytes = 0;
  EXPECT_THROW(Cache{c}, std::invalid_argument);
}

TEST(CacheTest, MissThenHit) {
  Cache c(SmallCache(4));
  EXPECT_FALSE(c.Access(0x1000));
  EXPECT_TRUE(c.Access(0x1000));
  EXPECT_TRUE(c.Access(0x101C));  // same 32-byte line
  EXPECT_FALSE(c.Access(0x1020));  // next line
}

TEST(CacheTest, AssociativityHoldsConflictingLines) {
  // 1024 B, 4 ways, 32 B lines -> 8 sets; stride 8*32=256 collides.
  Cache c(SmallCache(4));
  for (Addr i = 0; i < 4; ++i) {
    EXPECT_FALSE(c.Access(i * 256));
  }
  for (Addr i = 0; i < 4; ++i) {
    EXPECT_TRUE(c.Access(i * 256)) << i;
  }
}

TEST(CacheTest, RoundRobinEvictsOldest) {
  Cache c(SmallCache(2));  // 16 sets
  EXPECT_FALSE(c.Access(0 * 512));
  EXPECT_FALSE(c.Access(1 * 512));
  EXPECT_FALSE(c.Access(2 * 512));  // evicts way 0 (line 0)
  EXPECT_FALSE(c.Access(0 * 512));  // line 0 gone
  EXPECT_TRUE(c.Access(2 * 512));
}

TEST(CacheTest, DirectMappedAlwaysEvicts) {
  Cache c(SmallCache(1));  // 32 sets
  EXPECT_FALSE(c.Access(0));
  EXPECT_FALSE(c.Access(1024));
  EXPECT_FALSE(c.Access(0));
}

TEST(CacheTest, MostRecentLineAlwaysResident) {
  // The paper's soundness argument for the direct-mapped approximation: the
  // most recently accessed line in a set survives under round-robin.
  Cache c(SmallCache(4));
  for (int i = 0; i < 100; ++i) {
    const Addr a = static_cast<Addr>(i % 7) * 256;
    c.Access(a);
    EXPECT_TRUE(c.Contains(a));
  }
}

TEST(CacheTest, LockedWayIsNotEvicted) {
  Cache c(SmallCache(2));
  c.InstallLine(0x40, 0);
  c.LockWay(0);
  // Thrash the set with conflicting lines (stride 512 for 16 sets).
  for (Addr i = 1; i <= 8; ++i) {
    c.Access(0x40 + i * 512);
  }
  EXPECT_TRUE(c.Contains(0x40));
}

TEST(CacheTest, AllWaysLockedBypassesAllocation) {
  Cache c(SmallCache(2));
  c.LockWay(0);
  c.LockWay(1);
  EXPECT_FALSE(c.Access(0x2000));
  EXPECT_FALSE(c.Access(0x2000));  // still not cached
}

TEST(CacheTest, PolluteEvictsEverythingUnlocked) {
  Cache c(SmallCache(4));
  c.Access(0x100);
  c.Pollute(0x4000'0000);
  EXPECT_FALSE(c.Contains(0x100));
}

TEST(CacheTest, PolluteSparesLockedWays) {
  Cache c(SmallCache(4));
  c.InstallLine(0x100, 0);
  c.LockWay(0);
  c.Pollute(0x4000'0000);
  EXPECT_TRUE(c.Contains(0x100));
}

TEST(CacheTest, PinFillsASetsLockedWaysAndRefusesOverflow) {
  Cache c(SmallCache(4));
  const Addr two[] = {0x40, 0x140};  // one set: 8 sets of 32 B lines
  c.Pin(two, 2);
  c.Pollute(0x4000'0000);
  EXPECT_TRUE(c.Contains(0x40));
  EXPECT_TRUE(c.Contains(0x140));
  Cache d(SmallCache(4));
  const Addr three[] = {0x40, 0x140, 0x240};
  EXPECT_THROW(d.Pin(three, 2), std::invalid_argument);
}

TEST(CacheTest, InvalidateAllClearsEvenLocked) {
  Cache c(SmallCache(4));
  c.InstallLine(0x100, 0);
  c.LockWay(0);
  c.InvalidateAll();
  EXPECT_FALSE(c.Contains(0x100));
}

TEST(CacheTest, PseudoRandomStaysWithinUnlockedWays) {
  Cache c(SmallCache(4, ReplacementPolicy::kPseudoRandom));
  c.InstallLine(0x40, 0);
  c.LockWay(0);
  for (Addr i = 1; i <= 64; ++i) {
    c.Access(0x40 + i * 256);
  }
  EXPECT_TRUE(c.Contains(0x40));
}

TEST(BranchPredictorTest, DisabledIsConstantFiveCycles) {
  BranchPredictor bp(BranchPredictorConfig{});
  std::uint64_t mispredicts = 0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(bp.OnBranch(0x100, BranchKind::kConditional, i % 2 == 0, mispredicts), 5u);
  }
  EXPECT_EQ(bp.OnBranch(0x100, BranchKind::kNone, true, mispredicts), 0u);
  EXPECT_EQ(mispredicts, 0u);
}

TEST(BranchPredictorTest, EnabledLearnsBias) {
  BranchPredictorConfig cfg;
  cfg.enabled = true;
  BranchPredictor bp(cfg);
  std::uint64_t mispredicts = 0;
  bp.OnBranch(0x100, BranchKind::kConditional, true, mispredicts);  // first sight
  EXPECT_EQ(mispredicts, 1u);
  bp.OnBranch(0x100, BranchKind::kConditional, true, mispredicts);
  // Now strongly/weakly taken: predicted correctly.
  const Cycles c = bp.OnBranch(0x100, BranchKind::kConditional, true, mispredicts);
  EXPECT_EQ(c, cfg.correct_taken);
  // Surprise direction: mispredict, reported to the caller's counter.
  EXPECT_EQ(bp.OnBranch(0x100, BranchKind::kConditional, false, mispredicts), cfg.mispredict);
  EXPECT_EQ(mispredicts, 2u);
}

// An empty BTB is rejected at construction, enabled or not: every lookup
// indexes it modulo its size, and so does the compiled executor's folded
// BTB slot. A Machine built on such a config throws the same way.
TEST(BranchPredictorTest, ZeroBtbEntriesThrow) {
  BranchPredictorConfig cfg;
  cfg.btb_entries = 0;
  EXPECT_THROW(BranchPredictor{cfg}, std::invalid_argument);
  cfg.enabled = true;
  EXPECT_THROW(BranchPredictor{cfg}, std::invalid_argument);
  MachineConfig mc;
  mc.bpred = cfg;
  EXPECT_THROW(Machine{mc}, std::invalid_argument);
  cfg.btb_entries = 1;
  BranchPredictor one(cfg);
  std::uint64_t mispredicts = 0;
  EXPECT_EQ(one.OnBranch(0x104, BranchKind::kDirect, true, mispredicts), cfg.mispredict);
  EXPECT_EQ(one.OnBranch(0x104, BranchKind::kDirect, true, mispredicts), cfg.correct_taken);
}

TEST(BranchPredictorTest, DisabledCostCanBeBelowMispredict) {
  // Paper Section 5.1: disabling the predictor makes all branches a constant
  // 5 cycles, below the 7-cycle mispredict.
  BranchPredictorConfig cfg;
  EXPECT_LT(cfg.disabled_cost, cfg.mispredict);
}

TEST(IrqTest, AssertPendingAcknowledge) {
  InterruptController ic;
  EXPECT_FALSE(ic.AnyPending());
  ic.Assert(3, 100);
  EXPECT_TRUE(ic.AnyPending());
  EXPECT_EQ(ic.PendingLine().value(), 3u);
  EXPECT_EQ(ic.Acknowledge(3), 100u);
  EXPECT_FALSE(ic.AnyPending());
}

TEST(IrqTest, ReassertKeepsOriginalTimestamp) {
  InterruptController ic;
  ic.Assert(1, 100);
  ic.Assert(1, 200);
  EXPECT_EQ(ic.Acknowledge(1), 100u);
}

TEST(IrqTest, MaskedLineDoesNotShowPending) {
  InterruptController ic;
  ic.Mask(2);
  ic.Assert(2, 50);
  EXPECT_FALSE(ic.AnyPending());
  ic.Unmask(2);
  EXPECT_TRUE(ic.AnyPending());
}

TEST(IrqTest, LowestLineWins) {
  InterruptController ic;
  ic.Assert(5, 10);
  ic.Assert(2, 20);
  EXPECT_EQ(ic.PendingLine().value(), 2u);
}

TEST(IrqTest, TimerFiresEveryPeriod) {
  InterruptController ic;
  IntervalTimer t(&ic, 1000);
  t.Restart(0);
  t.Tick(500);
  EXPECT_FALSE(ic.IsPending(InterruptController::kTimerLine));
  t.Tick(1000);
  EXPECT_TRUE(ic.IsPending(InterruptController::kTimerLine));
  EXPECT_EQ(ic.Acknowledge(InterruptController::kTimerLine), 1000u);
  t.Tick(3000);
  EXPECT_EQ(ic.Acknowledge(InterruptController::kTimerLine), 2000u);
}

TEST(IrqTest, SpuriousAcknowledgeIsAbsorbed) {
  InterruptController ic;
  EXPECT_EQ(ic.Acknowledge(4), std::nullopt);
  EXPECT_EQ(ic.spurious_acks(), 1u);
  // A real assertion afterwards is unaffected by the earlier spurious ack.
  ic.Assert(4, 70);
  EXPECT_EQ(ic.Acknowledge(4), 70u);
  // Acking the same line twice: the second is spurious again.
  EXPECT_EQ(ic.Acknowledge(4), std::nullopt);
  EXPECT_EQ(ic.spurious_acks(), 2u);
  EXPECT_FALSE(ic.AnyPending());
}

TEST(IrqTest, CoalescedReassertCountsAndKeepsFirstTimestamp) {
  InterruptController ic;
  ic.Assert(6, 100);
  ic.Assert(6, 250);
  ic.Assert(6, 400);
  EXPECT_EQ(ic.coalesced_asserts(), 2u);
  EXPECT_EQ(ic.Acknowledge(6), 100u);  // latency measured from first edge
  ic.Reset();
  EXPECT_EQ(ic.coalesced_asserts(), 0u);
  EXPECT_EQ(ic.spurious_acks(), 0u);
}

TEST(IrqTest, SpuriousAndCoalescedEmitTraceEvents) {
  InterruptController ic;
  EventLog log;
  ic.set_trace_sink(&log);
  ic.Assert(7, 100);
  ic.Assert(7, 300);   // coalesced
  ic.Acknowledge(7);   // genuine
  ic.Acknowledge(7);   // spurious
  bool saw_coalesced = false;
  bool saw_spurious = false;
  for (const TraceEvent& ev : log.events()) {
    if (ev.kind == TraceEventKind::kIrqCoalesced) {
      saw_coalesced = true;
      EXPECT_EQ(ev.id, 7u);
      EXPECT_EQ(ev.arg0, 100u);  // the surviving first assert cycle
    }
    if (ev.kind == TraceEventKind::kIrqSpuriousAck) {
      saw_spurious = true;
      EXPECT_EQ(ev.id, 7u);
    }
  }
  EXPECT_TRUE(saw_coalesced);
  EXPECT_TRUE(saw_spurious);
}

TEST(MachineTest, InstrFetchChargesBasePlusMisses) {
  MachineConfig mc;
  Machine m(mc);
  // 8 instructions = 32 bytes = 1 line, cold: 8 + 60.
  m.InstrFetch(0x1000, 8);
  EXPECT_EQ(m.Now(), 8u + 60u);
  // Again: all hits.
  m.InstrFetch(0x1000, 8);
  EXPECT_EQ(m.Now(), 2 * 8u + 60u);
}

TEST(MachineTest, L2HitCostsLess) {
  MachineConfig mc;
  mc.l2_enabled = true;
  Machine m(mc);
  m.DataAccess(0x2000, false);  // L1 miss, L2 miss: 96 + 2-cycle load stall
  EXPECT_EQ(m.Now(), 96u + 2u);
  m.l1d().InvalidateAll();      // drop only L1
  m.DataAccess(0x2000, false);  // L1 miss, L2 hit: 26 + stall
  EXPECT_EQ(m.Now(), 96u + 26u + 4u);
}

TEST(MachineTest, L2DisabledUsesFasterMemory) {
  // Paper Section 5.1: 60 cycles with L2 off vs 96 with L2 on.
  Machine off{MachineConfig{}};
  off.DataAccess(0x2000, false);
  EXPECT_EQ(off.Now(), 60u + 2u);  // + load-use stall
  MachineConfig mc;
  mc.l2_enabled = true;
  Machine on{mc};
  on.DataAccess(0x2000, false);
  EXPECT_EQ(on.Now(), 96u + 2u);
}

TEST(MachineTest, DataAccessHitCostsOnlyTheLoadStall) {
  Machine m{MachineConfig{}};
  m.DataAccess(0x3000, false);                 // cold: 60 + 2
  const Cycles after_miss = m.Now();
  m.DataAccess(0x3000, false);                 // hit: just the 2-cycle stall
  EXPECT_EQ(m.Now() - after_miss, 2u);
}

TEST(MachineTest, PinL1MakesLinesFree) {
  MachineConfig mc;
  Machine m(mc);
  const Addr line = 0x3000;
  const Addr lines[] = {line};
  m.l1i().Pin(lines, 1);
  m.l1d().Pin(lines, 1);
  m.PolluteCaches();
  m.InstrFetch(line, 4);
  EXPECT_EQ(m.Now(), 4u);  // no miss penalty
  m.DataAccess(line, false);
  EXPECT_EQ(m.Now(), 4u + 2u);  // only the pipeline load stall remains
}

TEST(MachineTest, TimerTicksDuringExecution) {
  MachineConfig mc;
  mc.timer_period = 100;
  Machine m(mc);
  m.timer().Restart(0);
  m.RawCycles(250);
  EXPECT_TRUE(m.irq().IsPending(InterruptController::kTimerLine));
  EXPECT_EQ(m.irq().AssertTime(InterruptController::kTimerLine), 100u);
}

TEST(MachineTest, TimerAssertionCyclesUnchangedByDeadlineCache) {
  // Regression for the cached next-deadline scheme: assertion cycles must be
  // exactly those of ticking the timer on every Advance. Fine-grained
  // advances land the assertion on the period boundary, not on the advance
  // that crossed it.
  MachineConfig mc;
  mc.timer_period = 100;
  Machine m(mc);
  m.timer().Restart(0);
  EXPECT_EQ(m.timer().next_deadline(), 100u);
  for (int i = 0; i < 34; ++i) {
    m.RawCycles(3);  // crosses 100 at now=102
  }
  EXPECT_EQ(m.irq().AssertTime(InterruptController::kTimerLine), 100u);
  ASSERT_TRUE(m.irq().Acknowledge(InterruptController::kTimerLine).has_value());
  EXPECT_EQ(m.timer().next_deadline(), 200u);

  // One large advance over several periods coalesces onto the first boundary.
  m.RawCycles(350);  // now=449, periods at 200/300/400
  EXPECT_EQ(m.irq().AssertTime(InterruptController::kTimerLine), 200u);
  EXPECT_EQ(m.irq().coalesced_asserts(), 2u);
  EXPECT_EQ(m.timer().next_deadline(), 500u);

  // A direct set_period poke through the accessor refreshes the deadline.
  m.timer().set_period(0);
  EXPECT_EQ(m.timer().next_deadline(), IntervalTimer::kNever);
  m.timer().set_period(50);
  m.timer().Restart(m.Now());
  EXPECT_EQ(m.timer().next_deadline(), m.Now() + 50);
}

TEST(MachineTest, BranchCostsDependOnPredictorConfig) {
  Machine m{MachineConfig{}};
  m.Branch(0x100, BranchKind::kConditional, true);
  EXPECT_EQ(m.Now(), 5u);
  m.Branch(0x100, BranchKind::kNone, false);
  EXPECT_EQ(m.Now(), 5u);
}

TEST(ClockTest, MicrosecondsAt532MHz) {
  ClockSpec clk;
  EXPECT_NEAR(clk.ToMicros(532), 1.0, 1e-9);
  EXPECT_NEAR(clk.ToMicros(189'117), 355.5, 0.1);  // the paper's bound
}

}  // namespace
}  // namespace pmk
