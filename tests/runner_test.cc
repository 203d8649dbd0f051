// Tests for the user-program runner: scheduling across scripted threads,
// restartable-syscall retry, preemption by interrupts, idle fast-forward.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/runner.h"

namespace pmk {
namespace {

TEST(RunnerTest, ComputeStepsAdvanceTime) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);
  Runner r(&sys);
  r.SetProgram(t, {UserStep::Compute(1000)}, /*loop=*/true);
  const Cycles t0 = sys.machine().Now();
  const std::uint64_t steps = r.Run(10'000);
  EXPECT_GE(sys.machine().Now() - t0, 10'000u);
  EXPECT_GE(steps, 9u);
  EXPECT_EQ(r.StepsCompleted(t), steps);
}

TEST(RunnerTest, PingPongServerLoop) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(60);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);

  Runner r(&sys);
  SyscallArgs call;
  call.msg_len = 2;
  r.SetProgram(client, {UserStep::Compute(100), UserStep::Syscall(SysOp::kCall, ep_cptr, call)});
  r.SetProgram(server, {UserStep::Syscall(SysOp::kReplyRecv, ep_cptr)});
  r.Run(200'000);
  EXPECT_GT(r.StepsCompleted(client), 20u);
  EXPECT_GT(r.StepsCompleted(server), 20u);
  EXPECT_GT(sys.kernel().fastpath_hits(), 20u);
  sys.kernel().CheckInvariants();
}

TEST(RunnerTest, PreemptedSyscallIsRetriedToCompletion) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* irq_ep = nullptr;
  sys.AddEndpoint(&irq_ep);
  TcbObj* worker = sys.AddThread(10);
  UntypedObj* ut = nullptr;
  const std::uint32_t ut_cptr = sys.AddUntyped(19, &ut);
  sys.kernel().DirectSetCurrent(worker);
  sys.machine().timer().set_period(8'000);
  sys.machine().timer().Restart(sys.machine().Now());

  Runner r(&sys);
  SyscallArgs mk;
  mk.label = InvLabel::kUntypedRetype;
  mk.obj_type = ObjType::kFrame;
  mk.obj_bits = 18;  // 256 chunks: will be preempted repeatedly
  mk.dest_index = 70;
  r.SetProgram(worker, {UserStep::Syscall(SysOp::kCall, ut_cptr, mk)}, /*loop=*/false);
  r.Run(3'000'000);
  sys.machine().timer().set_period(0);
  EXPECT_EQ(r.StepsCompleted(worker), 1u);  // one completed retype...
  EXPECT_FALSE(sys.root()->slots[70].IsNull());
  EXPECT_GT(sys.kernel().irq_latencies().size(), 3u);  // ...across preemptions
  sys.kernel().CheckInvariants();
}

TEST(RunnerTest, HigherPriorityHandlerPreemptsWorker) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* timer_ep = nullptr;
  const std::uint32_t timer_cptr = sys.AddEndpoint(&timer_ep);
  TcbObj* rt = sys.AddThread(200);
  TcbObj* worker = sys.AddThread(10);
  sys.kernel().DirectBindIrq(InterruptController::kTimerLine, timer_ep);
  sys.kernel().DirectBlockOnRecv(rt, timer_ep);
  sys.kernel().DirectSetCurrent(worker);
  sys.machine().timer().set_period(20'000);
  sys.machine().timer().Restart(sys.machine().Now());

  Runner r(&sys);
  r.SetProgram(worker, {UserStep::Compute(1'000)});
  SyscallArgs ack;
  ack.label = InvLabel::kIrqAck;
  r.SetProgram(rt, {UserStep::Compute(100), UserStep::Syscall(SysOp::kRecv, timer_cptr)});
  // The RT task must ack (unmask) the line; model via the runner hook.
  r.SetStepHook([&](TcbObj* t, std::size_t) {
    if (t == rt) {
      sys.machine().irq().Unmask(InterruptController::kTimerLine);
    }
  });
  r.Run(300'000);
  sys.machine().timer().set_period(0);
  EXPECT_GT(r.StepsCompleted(rt), 8u);      // woken by most timer ticks
  EXPECT_GT(r.StepsCompleted(worker), 8u);  // still made progress
  for (const Cycles lat : sys.kernel().irq_latencies()) {
    EXPECT_LT(lat, 30'000u);
  }
  sys.kernel().CheckInvariants();
}

TEST(RunnerTest, IdleFastForwardsToTimer) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* timer_ep = nullptr;
  const std::uint32_t timer_cptr = sys.AddEndpoint(&timer_ep);
  TcbObj* rt = sys.AddThread(200);
  sys.kernel().DirectBindIrq(InterruptController::kTimerLine, timer_ep);
  sys.kernel().DirectSetCurrent(rt);
  sys.machine().timer().set_period(50'000);
  sys.machine().timer().Restart(sys.machine().Now());

  Runner r(&sys);
  r.SetProgram(rt, {UserStep::Compute(200), UserStep::Syscall(SysOp::kRecv, timer_cptr)});
  r.SetStepHook([&](TcbObj*, std::size_t) {
    sys.machine().irq().Unmask(InterruptController::kTimerLine);
  });
  // The system is idle between ticks; the runner must skip ahead instead of
  // spinning forever.
  r.Run(500'000);
  sys.machine().timer().set_period(0);
  EXPECT_GT(r.StepsCompleted(rt), 10u);
  sys.kernel().CheckInvariants();
}

TEST(RunnerTest, SecondProgramReplacesTheFirst) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  TcbObj* unprogrammed = sys.AddThread(10);
  sys.kernel().DirectResume(unprogrammed);
  sys.kernel().DirectSetCurrent(t);
  Runner r(&sys);
  r.SetProgram(t, {UserStep::Compute(100)});
  r.SetProgram(t, {UserStep::Compute(1'000)}, /*loop=*/false);
  // One step, then |t| yields to the unprogrammed thread, which only burns
  // cycles from then on.
  EXPECT_EQ(r.Run(20'000), 1u);
  EXPECT_EQ(r.StepsCompleted(t), 1u);
  EXPECT_EQ(r.StepsCompleted(unprogrammed), 0u);
}

TEST(RunnerTest, BindingOrderDoesNotChangeTheRun) {
  // Programs are found by thread pointer; binding the same programs in the
  // reverse thread order must replay the identical run.
  struct Outcome {
    std::uint64_t steps = 0;
    Cycles now = 0;
    std::vector<std::uint64_t> per_thread;
    std::vector<Cycles> irq_latencies;
    std::uint64_t fastpath_hits = 0;
  };
  const auto run = [](bool reverse) {
    System sys(KernelConfig::After(), EvalMachine(false));
    EndpointObj* ep = nullptr;
    const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
    std::vector<TcbObj*> threads;
    for (std::uint32_t i = 0; i < 2; ++i) {
      threads.push_back(sys.AddThread(60));
      sys.kernel().DirectBlockOnRecv(threads.back(), ep);
    }
    for (std::uint32_t i = 0; i < 6; ++i) {
      threads.push_back(sys.AddThread(10));
      if (i > 0) {
        sys.kernel().DirectResume(threads.back());
      }
    }
    sys.kernel().DirectSetCurrent(threads[2]);
    sys.machine().timer().set_period(8'000);
    sys.machine().timer().Restart(sys.machine().Now());

    Runner r(&sys);
    SyscallArgs call;
    call.msg_len = 2;
    std::vector<std::size_t> order(threads.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = reverse ? order.size() - 1 - i : i;
    }
    for (const std::size_t i : order) {
      if (i < 2) {
        r.SetProgram(threads[i], {UserStep::Syscall(SysOp::kReplyRecv, ep_cptr)});
      } else {
        r.SetProgram(threads[i], {UserStep::Compute(300 + 170 * i),
                                  UserStep::Syscall(SysOp::kCall, ep_cptr, call)});
      }
    }
    Outcome out;
    out.steps = r.Run(400'000);
    out.now = sys.machine().Now();
    for (const TcbObj* t : threads) {
      out.per_thread.push_back(r.StepsCompleted(t));
    }
    out.irq_latencies = sys.kernel().irq_latencies();
    out.fastpath_hits = sys.kernel().fastpath_hits();
    sys.kernel().CheckInvariants();
    return out;
  };
  const Outcome forward = run(false);
  const Outcome reverse = run(true);
  EXPECT_GT(forward.steps, 100u);
  EXPECT_EQ(forward.steps, reverse.steps);
  EXPECT_EQ(forward.now, reverse.now);
  EXPECT_EQ(forward.per_thread, reverse.per_thread);
  EXPECT_EQ(forward.irq_latencies, reverse.irq_latencies);
  EXPECT_EQ(forward.fastpath_hits, reverse.fastpath_hits);
}

}  // namespace
}  // namespace pmk
