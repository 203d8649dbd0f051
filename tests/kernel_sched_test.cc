// Scheduler tests: lazy scheduling (Figure 2), Benno scheduling (Figure 3),
// the two-level priority bitmap (Section 3.2), direct switching, and
// property-style random-operation sweeps that check the proof invariants
// after every kernel entry.

#include <gtest/gtest.h>

#include <random>

#include "src/sim/workload.h"

namespace pmk {
namespace {

KernelConfig Benno() { return KernelConfig::After(); }

KernelConfig BennoNoBitmap() {
  KernelConfig c = KernelConfig::After();
  c.scheduler_bitmap = false;
  return c;
}

KernelConfig Lazy() { return KernelConfig::Before(); }

TEST(SchedBitmapTest, BitmapTracksQueues) {
  System sys(Benno(), EvalMachine(false));
  TcbObj* a = sys.AddThread(7);    // bucket 0, bit 7
  TcbObj* b = sys.AddThread(200);  // bucket 6, bit 8
  sys.kernel().DirectResume(a);
  sys.kernel().DirectResume(b);
  EXPECT_EQ(sys.kernel().bitmap_l1(), (1u << 0) | (1u << 6));
  EXPECT_EQ(sys.kernel().bitmap_l2(0), 1u << 7);
  EXPECT_EQ(sys.kernel().bitmap_l2(6), 1u << (200 % 32));
  sys.kernel().CheckInvariants();
}

TEST(SchedBitmapTest, HighestPriorityWinsAcrossBuckets) {
  System sys(Benno(), EvalMachine(false));
  TcbObj* low = sys.AddThread(3);
  TcbObj* high = sys.AddThread(250);
  TcbObj* cur = sys.AddThread(1);
  sys.kernel().DirectResume(low);
  sys.kernel().DirectResume(high);
  sys.kernel().DirectSetCurrent(cur);
  // Yield forces a full reschedule.
  sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{});
  EXPECT_EQ(sys.kernel().current(), high);
  sys.kernel().CheckInvariants();
}

TEST(SchedBitmapTest, BitmapVariantsAgreeOnChosenThread) {
  for (const KernelConfig& kc : {Benno(), BennoNoBitmap()}) {
    System sys(kc, EvalMachine(false));
    TcbObj* a = sys.AddThread(12);
    TcbObj* b = sys.AddThread(90);
    TcbObj* cur = sys.AddThread(5);
    sys.kernel().DirectResume(a);
    sys.kernel().DirectResume(b);
    sys.kernel().DirectSetCurrent(cur);
    sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{});
    EXPECT_EQ(sys.kernel().current(), b);
    sys.kernel().CheckInvariants();
  }
}

TEST(SchedBennoTest, DirectSwitchOnWakeSkipsRunQueue) {
  // Section 3.1: a thread woken by IPC that can run immediately is switched
  // to directly and never enters the run queue.
  System sys(Benno(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(50);
  TcbObj* client = sys.AddThread(50);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);

  SyscallArgs args;
  args.msg_len = 6;  // avoid the fastpath to exercise the slowpath switch
  sys.kernel().Syscall(SysOp::kCall, cptr, args);
  EXPECT_EQ(sys.kernel().current(), server);
  EXPECT_FALSE(server->in_run_queue);  // woken via direct switch
  sys.kernel().CheckInvariants();
}

TEST(SchedBennoTest, LowerPriorityWakeIsEnqueuedNotSwitched) {
  System sys(Benno(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(10);  // lower than client
  TcbObj* client = sys.AddThread(50);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);

  SyscallArgs args;
  args.msg_len = 1;
  sys.kernel().Syscall(SysOp::kSend, cptr, args);
  EXPECT_EQ(sys.kernel().current(), client);  // sender keeps running
  EXPECT_TRUE(server->in_run_queue);
  sys.kernel().CheckInvariants();
}

TEST(SchedBennoTest, PreemptedThreadReentersQueueLazily) {
  // The run queue's consistency is "re-established at preemption time":
  // the preempted current thread is enqueued when something else runs.
  System sys(Benno(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  sys.AddEndpoint(&ep);
  TcbObj* handler = sys.AddThread(200);
  TcbObj* task = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(handler, ep);
  sys.kernel().DirectBindIrq(0, ep);
  sys.kernel().DirectSetCurrent(task);
  EXPECT_FALSE(task->in_run_queue);

  sys.machine().irq().Assert(0, sys.machine().Now());
  sys.kernel().HandleIrqEntry();
  EXPECT_EQ(sys.kernel().current(), handler);
  EXPECT_TRUE(task->in_run_queue);  // re-entered on preemption
  sys.kernel().CheckInvariants();
}

TEST(SchedLazyTest, BlockedThreadStaysInQueue) {
  System sys(Lazy(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* t = sys.AddThread(10);
  TcbObj* other = sys.AddThread(10);
  sys.kernel().DirectResume(other);
  sys.kernel().DirectSetCurrent(t);
  ASSERT_TRUE(t->in_run_queue);  // lazy: current stays queued

  SyscallArgs args;
  sys.kernel().Syscall(SysOp::kSend, cptr, args);  // blocks (no receiver)
  EXPECT_EQ(t->state, ThreadState::kBlockedOnSend);
  // Lazy scheduling's signature: the blocked thread is STILL in the run
  // queue (chooseThread found `other` at the head and never reached it).
  EXPECT_TRUE(t->in_run_queue);
  EXPECT_EQ(sys.kernel().current(), other);
  sys.kernel().CheckInvariants();
}

TEST(SchedLazyTest, WakeSkipsEnqueueWhenStillQueued) {
  System sys(Lazy(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  // A stale receiver: blocked but still in the run queue.
  TcbObj* recv = sys.AddThread(10);
  sys.kernel().DirectResume(recv);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  // Manually leave it in the queue to model the lazy leftover.
  // (DirectBlockOnRecv removed it; emulate via a stale-queue builder.)
  System sys2(Lazy(), EvalMachine(false));
  EndpointObj* ep2 = nullptr;
  const std::uint32_t cptr2 = sys2.AddEndpoint(&ep2);
  auto stale = sys2.MakeStaleRunQueue(ep2, 1, 10);
  TcbObj* sender = sys2.AddThread(10);
  sys2.kernel().DirectSetCurrent(sender);
  ASSERT_TRUE(stale[0]->in_run_queue);

  SyscallArgs args;
  args.msg_len = 1;
  // Sender's send wakes the stale receiver... it is queued for RECV? It was
  // blocked on send in MakeStaleRunQueue; use the badge-free send queue as a
  // wake-via-recv instead.
  sys2.kernel().Syscall(SysOp::kRecv, cptr2, args);
  EXPECT_EQ(stale[0]->state, ThreadState::kRunning);
  EXPECT_TRUE(stale[0]->in_run_queue);  // was already there: no enqueue work
  sys2.kernel().CheckInvariants();
  (void)cptr;
}

TEST(SchedLazyTest, ChooseThreadDequeuesStaleEntries) {
  // Figure 2's pathological case: the scheduler must dequeue a pile of
  // blocked threads before finding a runnable one.
  System sys(Lazy(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  sys.AddEndpoint(&ep);
  auto stale = sys.MakeStaleRunQueue(ep, 50, 20);
  TcbObj* runnable = sys.AddThread(20);
  sys.kernel().DirectResume(runnable);
  TcbObj* cur = sys.AddThread(5);
  sys.kernel().DirectSetCurrent(cur);

  const Cycles before = sys.machine().Now();
  sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{});
  const Cycles storm_cost = sys.machine().Now() - before;
  EXPECT_EQ(sys.kernel().current(), runnable);
  for (TcbObj* s : stale) {
    EXPECT_FALSE(s->in_run_queue);  // all dequeued by chooseThread
  }

  // The same scenario under Benno has no stale entries to clean up.
  System sys2(Benno(), EvalMachine(false));
  TcbObj* r2 = sys2.AddThread(20);
  sys2.kernel().DirectResume(r2);
  TcbObj* c2 = sys2.AddThread(5);
  sys2.kernel().DirectSetCurrent(c2);
  const Cycles b2 = sys2.machine().Now();
  sys2.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{});
  EXPECT_LT(sys2.machine().Now() - b2, storm_cost / 4)
      << "Benno reschedule should be far cheaper than the lazy dequeue storm";
}

// ablation_scheduler's reschedule: |stale| threads blocked on an endpoint —
// still queued under lazy scheduling, off the queue under Benno — and one
// runnable thread, picked after a polluted-cache Yield.
Cycles RescheduleCost(const KernelConfig& kc, std::uint32_t stale) {
  System sys(kc, EvalMachine(false));
  EndpointObj* ep = nullptr;
  sys.AddEndpoint(&ep);
  if (kc.scheduler == SchedulerKind::kLazy) {
    sys.MakeStaleRunQueue(ep, stale, 20);
  } else {
    sys.QueueSenders(ep, stale, {kBadgeNone}, 20);
  }
  TcbObj* runnable = sys.AddThread(20);
  sys.kernel().DirectResume(runnable);
  TcbObj* cur = sys.AddThread(5);
  sys.kernel().DirectSetCurrent(cur);
  sys.machine().PolluteCaches();
  const Cycles t0 = sys.machine().Now();
  sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{});
  return sys.machine().Now() - t0;
}

TEST(SchedLazyTest, RescheduleCostGrowsWithStaleThreadsBennoIsFlat) {
  // Section 3.1: the lazy reschedule dequeues every stale thread, so its
  // cost grows with their number; Benno's is the same at 0 and 100. The
  // lazy kernel is ablation_scheduler's: the after kernel's address spaces
  // and preemption points, so only the scheduler differs.
  KernelConfig lazy = Lazy();
  lazy.vspace = VSpaceKind::kShadow;
  lazy.preemptible_clearing = true;
  lazy.preemptible_deletion = true;
  lazy.preemptible_badged_abort = true;
  Cycles prev = 0;
  for (const std::uint32_t n : {0u, 8u, 32u, 64u, 100u}) {
    const Cycles cost = RescheduleCost(lazy, n);
    EXPECT_GT(cost, prev) << n << " stale threads";
    prev = cost;
  }
  EXPECT_EQ(RescheduleCost(Benno(), 100), RescheduleCost(Benno(), 0));
}

TEST(SchedTest, YieldRoundRobinsEqualPriority) {
  System sys(Benno(), EvalMachine(false));
  TcbObj* a = sys.AddThread(10);
  TcbObj* b = sys.AddThread(10);
  TcbObj* c = sys.AddThread(10);
  sys.kernel().DirectResume(b);
  sys.kernel().DirectResume(c);
  sys.kernel().DirectSetCurrent(a);
  sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{});
  EXPECT_EQ(sys.kernel().current(), b);
  sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{});
  EXPECT_EQ(sys.kernel().current(), c);
  sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{});
  EXPECT_EQ(sys.kernel().current(), a);
  sys.kernel().CheckInvariants();
}

TEST(SchedTest, IdleWhenNothingRunnable) {
  System sys(Benno(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);
  sys.kernel().Syscall(SysOp::kRecv, cptr, SyscallArgs{});  // blocks
  EXPECT_EQ(sys.kernel().current(), sys.kernel().idle());
  sys.kernel().CheckInvariants();
}

TEST(SchedTest, SetPriorityRequeues) {
  System sys(Benno(), EvalMachine(false));
  TcbObj* worker = sys.AddThread(10);
  sys.kernel().DirectResume(worker);
  TcbObj* cur = sys.AddThread(100);
  sys.kernel().DirectSetCurrent(cur);

  Cap tcb_cap;
  tcb_cap.type = ObjType::kTcb;
  tcb_cap.obj = worker->base;
  const std::uint32_t cptr = sys.AddCap(tcb_cap);
  SyscallArgs args;
  args.label = InvLabel::kTcbSetPriority;
  args.arg0 = 42;
  sys.kernel().Syscall(SysOp::kCall, cptr, args);
  EXPECT_EQ(worker->prio, 42);
  EXPECT_EQ(sys.kernel().queue_head(42), worker);
  sys.kernel().CheckInvariants();
}

TEST(SchedTest, SuspendAndResumeViaInvocations) {
  System sys(Benno(), EvalMachine(false));
  TcbObj* worker = sys.AddThread(10);
  sys.kernel().DirectResume(worker);
  TcbObj* cur = sys.AddThread(100);
  sys.kernel().DirectSetCurrent(cur);

  Cap tcb_cap;
  tcb_cap.type = ObjType::kTcb;
  tcb_cap.obj = worker->base;
  const std::uint32_t cptr = sys.AddCap(tcb_cap);

  SyscallArgs sus;
  sus.label = InvLabel::kTcbSuspend;
  sys.kernel().Syscall(SysOp::kCall, cptr, sus);
  EXPECT_EQ(worker->state, ThreadState::kInactive);
  EXPECT_FALSE(worker->in_run_queue);
  sys.kernel().CheckInvariants();

  SyscallArgs res;
  res.label = InvLabel::kTcbResume;
  sys.kernel().Syscall(SysOp::kCall, cptr, res);
  EXPECT_EQ(worker->state, ThreadState::kRunning);
  EXPECT_TRUE(worker->in_run_queue);
  sys.kernel().CheckInvariants();
}

// Property sweep: random scheduler-affecting operations, invariants checked
// after every kernel entry, for both schedulers and both bitmap settings.
class SchedPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedPropertyTest, RandomOpsPreserveInvariants) {
  KernelConfig kc;
  switch (GetParam()) {
    case 0:
      kc = Benno();
      break;
    case 1:
      kc = BennoNoBitmap();
      break;
    default:
      kc = Lazy();
      break;
  }
  System sys(kc, EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);

  std::vector<TcbObj*> threads;
  std::vector<std::uint32_t> tcb_cptrs;
  for (int i = 0; i < 12; ++i) {
    TcbObj* t = sys.AddThread(static_cast<std::uint8_t>(1 + (i * 37) % 200));
    sys.kernel().DirectResume(t);
    threads.push_back(t);
    Cap c;
    c.type = ObjType::kTcb;
    c.obj = t->base;
    tcb_cptrs.push_back(sys.AddCap(c));
  }
  sys.kernel().DirectSetCurrent(threads[0]);

  std::mt19937 rng(12345 + GetParam());
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng() % 6);
    const std::size_t victim = rng() % threads.size();
    SyscallArgs args;
    switch (op) {
      case 0:
        sys.kernel().Syscall(SysOp::kYield, 0, args);
        break;
      case 1:
        args.msg_len = rng() % 8;
        sys.kernel().Syscall(SysOp::kSend, ep_cptr, args);
        break;
      case 2:
        sys.kernel().Syscall(SysOp::kRecv, ep_cptr, args);
        break;
      case 3:
        args.label = InvLabel::kTcbSuspend;
        sys.kernel().Syscall(SysOp::kCall, tcb_cptrs[victim], args);
        break;
      case 4:
        args.label = InvLabel::kTcbResume;
        sys.kernel().Syscall(SysOp::kCall, tcb_cptrs[victim], args);
        break;
      case 5:
        args.label = InvLabel::kTcbSetPriority;
        args.arg0 = 1 + rng() % 255;
        sys.kernel().Syscall(SysOp::kCall, tcb_cptrs[victim], args);
        break;
    }
    ASSERT_NO_THROW(sys.kernel().CheckInvariants()) << "step " << step << " op " << op;
    if (sys.kernel().current() == sys.kernel().idle()) {
      // Wake somebody so the sweep keeps making progress.
      TcbObj* t = threads[rng() % threads.size()];
      if (t->state == ThreadState::kInactive) {
        t->state = ThreadState::kRunning;
      }
      if (t->blocked_on == 0 &&
          (t->state == ThreadState::kRunning || t->state == ThreadState::kRestart)) {
        sys.kernel().DirectResume(t);
        sys.kernel().DirectSetCurrent(t);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedPropertyTest, ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           switch (param_info.param) {
                             case 0:
                               return "BennoBitmap";
                             case 1:
                               return "BennoNoBitmap";
                             default:
                               return "Lazy";
                           }
                         });

}  // namespace
}  // namespace pmk

namespace pmk {
namespace {

TEST(TimesliceTest, RoundRobinsEqualPriorityOnTimerTicks) {
  KernelConfig kc = KernelConfig::After();
  kc.kernel_timer_line = 7;
  kc.timeslice_ticks = 2;
  System sys(kc, EvalMachine(false));
  TcbObj* a = sys.AddThread(10);
  TcbObj* b = sys.AddThread(10);
  sys.kernel().DirectResume(b);
  sys.kernel().DirectSetCurrent(a);

  // Tick 1: timeslice 2 -> 1, no switch.
  sys.machine().irq().Assert(7, sys.machine().Now());
  sys.kernel().HandleIrqEntry();
  EXPECT_EQ(sys.kernel().current(), a);
  // Tick 2: timeslice exhausted -> round-robin to b; a requeued at tail.
  sys.machine().irq().Assert(7, sys.machine().Now());
  sys.kernel().HandleIrqEntry();
  EXPECT_EQ(sys.kernel().current(), b);
  EXPECT_TRUE(a->in_run_queue);
  EXPECT_EQ(a->timeslice, 2u);  // refilled
  sys.kernel().CheckInvariants();

  // Two more ticks: back to a.
  sys.machine().irq().Assert(7, sys.machine().Now());
  sys.kernel().HandleIrqEntry();
  sys.machine().irq().Assert(7, sys.machine().Now());
  sys.kernel().HandleIrqEntry();
  EXPECT_EQ(sys.kernel().current(), a);
  sys.kernel().CheckInvariants();
}

TEST(TimesliceTest, HigherPriorityThreadKeepsCpuAcrossTicks) {
  KernelConfig kc = KernelConfig::After();
  kc.kernel_timer_line = 7;
  kc.timeslice_ticks = 1;
  System sys(kc, EvalMachine(false));
  TcbObj* high = sys.AddThread(50);
  TcbObj* low = sys.AddThread(10);
  sys.kernel().DirectResume(low);
  sys.kernel().DirectSetCurrent(high);
  for (int i = 0; i < 4; ++i) {
    sys.machine().irq().Assert(7, sys.machine().Now());
    sys.kernel().HandleIrqEntry();
    EXPECT_EQ(sys.kernel().current(), high) << i;  // fixed-priority wins
  }
  sys.kernel().CheckInvariants();
}

TEST(TimesliceTest, KernelTimerLineStaysUnmasked) {
  KernelConfig kc = KernelConfig::After();
  kc.kernel_timer_line = 7;
  System sys(kc, EvalMachine(false));
  TcbObj* a = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(a);
  sys.machine().irq().Assert(7, sys.machine().Now());
  sys.kernel().HandleIrqEntry();
  // The kernel consumed the tick without masking the line: the next tick
  // fires without any IRQAck.
  sys.machine().irq().Assert(7, sys.machine().Now());
  EXPECT_TRUE(sys.machine().irq().AnyPending());
}

}  // namespace
}  // namespace pmk
