// Snapshot fidelity: a checkpoint fork must be indistinguishable from a
// freshly booted system. Each canonical operation is driven twice — once on a
// factory-built system, once on a fork of a frozen checkpoint of the same
// factory — and the complete observable machine state is compared
// cycle-for-cycle: final cycle counter, every PMU counter, per-cache hit/miss
// statistics, the kernel's recorded IRQ latencies, and the full trace-event
// stream. Any unremapped pointer or uncopied state surfaces here.

#include <gtest/gtest.h>

#include <vector>

#include "src/fault/campaign.h"
#include "src/fault/injector.h"
#include "src/obs/trace_sink.h"

namespace pmk {
namespace {

// Everything observable about a completed run.
struct DriveResult {
  Cycles now = 0;
  HwCounters hw;
  std::vector<Cycles> irq_latencies;
  std::uint64_t fastpath_hits = 0;
  std::vector<TraceEvent> events;
};

// Drives |inst|'s operation to completion under |plan| with full tracing,
// mirroring the fault engine's restart loop, and captures the final state.
DriveResult Drive(OpInstance inst, const InjectionPlan& plan) {
  System& sys = *inst.sys;
  EventLog log;
  sys.AttachTraceSink(&log);
  FaultInjector inj(&sys.machine());
  inj.SetPlan(plan);
  sys.kernel().exec().set_fault_hook(&inj);

  for (;;) {
    const KernelExit e = sys.kernel().Syscall(inst.op, inst.cptr, inst.args);
    sys.kernel().CheckInvariants();
    if (e != KernelExit::kPreempted) {
      break;
    }
    for (const InjectionAction& a : plan.actions) {
      for (std::uint32_t i = 0; i < a.burst; ++i) {
        sys.machine().irq().Unmask((a.line + i) % InterruptController::kNumLines);
      }
    }
    if (inst.on_preempted) {
      inst.on_preempted(sys);
    }
  }
  while (sys.machine().irq().AnyPending()) {
    sys.kernel().HandleIrqEntry();
  }
  sys.kernel().CheckInvariants();
  if (inst.check_done) {
    inst.check_done(sys);
  }

  DriveResult r;
  r.now = sys.machine().Now();
  r.hw = sys.machine().counters();
  r.irq_latencies = sys.kernel().irq_latencies();
  r.fastpath_hits = sys.kernel().fastpath_hits();
  r.events = log.events();
  return r;
}

void ExpectIdentical(const DriveResult& fresh, const DriveResult& fork) {
  EXPECT_EQ(fresh.now, fork.now);

  EXPECT_EQ(fresh.hw.instructions, fork.hw.instructions);
  EXPECT_EQ(fresh.hw.l1i_accesses, fork.hw.l1i_accesses);
  EXPECT_EQ(fresh.hw.l1i_misses, fork.hw.l1i_misses);
  EXPECT_EQ(fresh.hw.l1d_accesses, fork.hw.l1d_accesses);
  EXPECT_EQ(fresh.hw.l1d_misses, fork.hw.l1d_misses);
  EXPECT_EQ(fresh.hw.l2_accesses, fork.hw.l2_accesses);
  EXPECT_EQ(fresh.hw.l2_misses, fork.hw.l2_misses);
  EXPECT_EQ(fresh.hw.branches, fork.hw.branches);
  EXPECT_EQ(fresh.hw.branch_mispredicts, fork.hw.branch_mispredicts);
  EXPECT_EQ(fresh.hw.mem_stall_cycles, fork.hw.mem_stall_cycles);

  EXPECT_EQ(fresh.irq_latencies, fork.irq_latencies);
  EXPECT_EQ(fresh.fastpath_hits, fork.fastpath_hits);

  ASSERT_EQ(fresh.events.size(), fork.events.size());
  for (std::size_t i = 0; i < fresh.events.size(); ++i) {
    const TraceEvent& a = fresh.events[i];
    const TraceEvent& b = fork.events[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.cycle, b.cycle) << "event " << i;
    EXPECT_STREQ(a.name, b.name) << "event " << i;
    EXPECT_EQ(a.id, b.id) << "event " << i;
    EXPECT_EQ(a.arg0, b.arg0) << "event " << i;
    EXPECT_EQ(a.arg1, b.arg1) << "event " << i;
    EXPECT_EQ(a.arg2, b.arg2) << "event " << i;
  }
}

InjectionPlan PlanAtOrdinal(std::uint64_t ordinal, std::uint32_t line = 5) {
  InjectionPlan plan;
  InjectionAction a;
  a.trigger = InjectionAction::Trigger::kPreemptOrdinal;
  a.at = ordinal;
  a.line = line;
  plan.actions.push_back(a);
  return plan;
}

TEST(SnapshotFidelityTest, ForkMatchesFreshBootOnUninjectedRun) {
  for (const auto& [name, factory] : CanonicalOps()) {
    SCOPED_TRACE(name);
    const ScenarioCheckpoint ckpt(factory);
    ExpectIdentical(Drive(factory(), InjectionPlan{}), Drive(ckpt.Fork(), InjectionPlan{}));
  }
}

TEST(SnapshotFidelityTest, ForkMatchesFreshBootUnderInjection) {
  // The preempt-restart path exercises scheduler queues, endpoint queues and
  // the abort four-tuple in the cloned heap, not just the straight-line op.
  for (const auto& [name, factory] : CanonicalOps()) {
    SCOPED_TRACE(name);
    const ScenarioCheckpoint ckpt(factory);
    const InjectionPlan plan = PlanAtOrdinal(2);
    ExpectIdentical(Drive(factory(), plan), Drive(ckpt.Fork(), plan));
  }
}

TEST(SnapshotFidelityTest, ForksAreIndependentOfSourceAndSiblings) {
  // Mutating one fork (an aggressive multi-line plan) must leave the frozen
  // image untouched: a later fork still matches a fresh boot exactly.
  const OpFactory factory = MakeEpDeleteCase();
  const ScenarioCheckpoint ckpt(factory);

  InjectionPlan aggressive = PlanAtOrdinal(0);
  aggressive.actions[0].burst = 4;
  Drive(ckpt.Fork(), aggressive);

  ExpectIdentical(Drive(factory(), InjectionPlan{}), Drive(ckpt.Fork(), InjectionPlan{}));
}

TEST(SnapshotFidelityTest, CloneAfterPreemptedExitContinuesIdentically) {
  // Clone mid-scenario — after the first preempted exit, with a serviced IRQ
  // in the latency log, masked lines in the controller and the actor in its
  // restart state — then finish both the original and the clone and compare.
  for (const auto& [name, factory] : CanonicalOps()) {
    SCOPED_TRACE(name);
    OpInstance inst = factory();
    System& sys = *inst.sys;

    FaultInjector inj(&sys.machine());
    inj.SetPlan(PlanAtOrdinal(0));
    sys.kernel().exec().set_fault_hook(&inj);
    const KernelExit e = sys.kernel().Syscall(inst.op, inst.cptr, inst.args);
    sys.kernel().exec().set_fault_hook(nullptr);
    ASSERT_EQ(e, KernelExit::kPreempted) << "op exposed no preemption point";
    if (inst.on_preempted) {
      inst.on_preempted(sys);
    }

    const std::unique_ptr<System> clone = sys.Clone();

    const auto finish = [&inst](System& s) {
      while (s.kernel().Syscall(inst.op, inst.cptr, inst.args) == KernelExit::kPreempted) {
      }
      while (s.machine().irq().AnyPending()) {
        s.kernel().HandleIrqEntry();
      }
      s.kernel().CheckInvariants();
      if (inst.check_done) {
        inst.check_done(s);
      }
      DriveResult r;
      r.now = s.machine().Now();
      r.hw = s.machine().counters();
      r.irq_latencies = s.kernel().irq_latencies();
      r.fastpath_hits = s.kernel().fastpath_hits();
      return r;
    };
    ExpectIdentical(finish(sys), finish(*clone));
  }
}

TEST(SnapshotFidelityTest, CloneRejectsUnknownHeapPointers) {
  // The remap is loud by design: a clone of a heap holding a pointer to an
  // object outside that heap must throw, not alias across heaps.
  OpInstance a = MakeEpDeleteCase()();
  OpInstance b = MakeEpDeleteCase()();
  TcbObj* foreign = b.sys->AddThread(10);
  a.sys->kernel().DirectSetCurrent(foreign);
  EXPECT_THROW(a.sys->Clone(), std::logic_error);

  // A removed object's bytes stay in the table's storage, but no live object
  // covers them: a run-queue link to a removed TCB is just as unknown.
  OpInstance c = MakeEpDeleteCase()();
  TcbObj* gone = c.sys->AddThread(10);
  c.sys->kernel().DirectResume(gone);
  c.sys->kernel().objects().Remove(gone->base);
  EXPECT_THROW(c.sys->Clone(), std::logic_error);
}

TEST(SnapshotFidelityTest, ForkOfAHeapOutOfAddressOrderOutlivesItsSource) {
  // The source's storage is not one address-ordered run: a removed object
  // leaves a hole, and TCBs retyped from an untyped sit in storage after a
  // higher-addressed endpoint. The fork must carry every link into its own
  // storage: with the source destroyed, it runs the operation and audits
  // clean (under ASan, a link left in the source's storage is a use after
  // free).
  OpInstance src = MakeEpDeleteCase()();
  System& sys = *src.sys;
  Kernel& k = sys.kernel();
  const Addr ep_base = sys.root()->slots[src.args.arg0].cap.obj;
  EndpointObj* ep = k.objects().Get<EndpointObj>(ep_base);
  ASSERT_NE(ep, nullptr);

  const std::uint32_t ut_cptr = sys.AddUntyped(14);
  const Addr hole = sys.AddThread(50)->base;
  const Addr highest = k.DirectEndpoint()->base;
  k.objects().Remove(hole);
  SyscallArgs mk;
  mk.label = InvLabel::kUntypedRetype;
  mk.obj_type = ObjType::kTcb;
  mk.obj_count = 4;
  mk.dest_index = 200;
  ASSERT_EQ(k.Syscall(SysOp::kCall, ut_cptr, mk), KernelExit::kDone);
  ASSERT_EQ(src.actor->last_error, KError::kOk);
  std::vector<Addr> retyped;
  for (std::uint32_t i = 0; i < mk.obj_count; ++i) {
    TcbObj* t = k.objects().Get<TcbObj>(sys.root()->slots[mk.dest_index + i].cap.obj);
    ASSERT_NE(t, nullptr);
    ASSERT_LT(t->base, highest);
    t->prio = 10;
    if (i % 2 == 0) {
      k.DirectBlockOnSend(t, ep, 3);  // the deleted endpoint's queue
    } else {
      k.DirectResume(t);  // the run queue
    }
    retyped.push_back(t->base);
  }
  k.CheckInvariants();

  const std::unique_ptr<System> fork = sys.Clone();
  src.sys.reset();
  Kernel& fk = fork->kernel();
  while (fk.Syscall(src.op, src.cptr, src.args) == KernelExit::kPreempted) {
  }
  fk.CheckInvariants();
  src.check_done(*fork);
  EXPECT_EQ(fk.objects().Find(hole), nullptr);
  for (const Addr base : retyped) {
    const TcbObj* t = fk.objects().Get<TcbObj>(base);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->blocked_on, 0u);  // the deletion cancelled the sends
    EXPECT_TRUE(t->in_run_queue);
  }
}

}  // namespace
}  // namespace pmk
