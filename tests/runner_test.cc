// Tests for the user-program runner: scheduling across scripted threads,
// restartable-syscall retry, preemption by interrupts, idle fast-forward.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "src/load/fleet.h"
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

TEST(RunnerTest, EmptyProgramIsRefused) {
  // A looping empty program would wrap to step 0 of nothing, which in the
  // shared step pool is another thread's step.
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  Runner r(&sys);
  EXPECT_THROW(r.SetProgram(t, {}, /*loop=*/true), std::invalid_argument);
  EXPECT_THROW(r.SetProgram(t, {}, /*loop=*/false), std::invalid_argument);
  EXPECT_EQ(r.StepsCompleted(t), 0u);
}

// What a run did, for comparing two runs of one workload.
struct Outcome {
  std::uint64_t steps = 0;
  Cycles now = 0;
  std::vector<std::uint64_t> per_thread;
  std::vector<Cycles> irq_latencies;
  std::uint64_t fastpath_hits = 0;
};

void ExpectSameRun(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.per_thread, b.per_thread);
  EXPECT_EQ(a.irq_latencies, b.irq_latencies);
  EXPECT_EQ(a.fastpath_hits, b.fastpath_hits);
}

enum class BindOrder { kAscending, kDescending, kShuffled };

// A 2,000-client fleet over 16 servers, preempted by the timer, run for
// 400,000 cycles with sliced compute and dynamic steps. Its 2,016 programs
// are bound in |order| of thread pointer. |idle| threads that never run are
// booted too, and |hook| sees every completed step.
Outcome RunFleet(BindOrder order, std::uint32_t idle = 0,
                 const std::function<void(Runner&, const std::vector<TcbObj*>&)>& hook = {}) {
  System sys(KernelConfig::After(), EvalMachine(false));
  load::FleetSpec spec;
  spec.clients = 2000;
  spec.servers = 16;
  const load::Fleet fleet = load::BuildClientFleet(sys, spec);
  std::vector<TcbObj*> idle_threads;
  for (std::uint32_t i = 0; i < idle; ++i) {
    idle_threads.push_back(sys.AddThread(10));  // never resumed
  }
  std::vector<TcbObj*> threads = fleet.servers;
  threads.insert(threads.end(), fleet.clients.begin(), fleet.clients.end());
  sys.kernel().DirectSetCurrent(fleet.clients[0]);
  sys.machine().timer().set_period(8'000);
  sys.machine().timer().Restart(sys.machine().Now());

  Runner r(&sys);
  r.SetComputeSliceCycles(400);
  std::vector<std::size_t> bind(threads.size());
  for (std::size_t i = 0; i < bind.size(); ++i) {
    bind[i] = i;
  }
  std::sort(bind.begin(), bind.end(), [&](std::size_t a, std::size_t b) {
    return std::less<const TcbObj*>()(threads[a], threads[b]);
  });
  if (order == BindOrder::kDescending) {
    std::reverse(bind.begin(), bind.end());
  } else if (order == BindOrder::kShuffled) {
    std::mt19937 rng(7);
    std::shuffle(bind.begin(), bind.end(), rng);
  }
  std::vector<std::uint32_t> phase(threads.size(), 0);
  for (const std::size_t i : bind) {
    if (i < fleet.servers.size()) {
      r.SetProgram(threads[i], {UserStep::Syscall(SysOp::kReplyRecv, fleet.ep_cptrs[i])});
      continue;
    }
    const std::size_t c = i - fleet.servers.size();
    const std::uint32_t cptr = fleet.client_cptrs[c];
    std::uint32_t* ph = &phase[i];
    r.SetProgram(threads[i],
                 {UserStep::Compute(300 + 170 * (c % 7)),
                  UserStep::Dynamic([ph, c, cptr](System&) -> std::optional<UserStep> {
                    SyscallArgs call;
                    call.msg_len = 2;
                    switch ((*ph)++ % 3) {
                      case 0:
                        return UserStep::Compute(900 + 50 * (c % 5));
                      case 1:
                        return UserStep::Syscall(SysOp::kCall, cptr, call);
                      default:
                        return std::nullopt;
                    }
                  })});
  }
  if (hook) {
    r.SetStepHook([&](TcbObj*, std::size_t) { hook(r, idle_threads); });
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
}

TEST(RunnerTest, BindingOrderDoesNotChangeTheRun) {
  // Programs are found by thread pointer. Binding in ascending pointer order
  // appends to the runner's index; any other order inserts. Either way the
  // run is the same.
  const Outcome ascending = RunFleet(BindOrder::kAscending);
  EXPECT_GT(ascending.steps, 100u);
  EXPECT_GT(ascending.fastpath_hits, 10u);
  EXPECT_FALSE(ascending.irq_latencies.empty());
  ExpectSameRun(ascending, RunFleet(BindOrder::kDescending));
  ExpectSameRun(ascending, RunFleet(BindOrder::kShuffled));
}

TEST(RunnerTest, BindingFromAStepHookKeepsTheStepsInFlight) {
  // A hook that binds programs to threads that never run, at every completed
  // step, grows the step pool and the tables past their capacity during the
  // run. The sliced bursts, dynamic sub-steps and preempted calls in flight
  // must come through unchanged.
  constexpr std::uint32_t kIdle = 600;
  const Outcome plain = RunFleet(BindOrder::kAscending, kIdle);
  std::size_t bound = 0;
  const Outcome hooked = RunFleet(
      BindOrder::kAscending, kIdle, [&bound](Runner& r, const std::vector<TcbObj*>& idle) {
        for (int k = 0; k < 4 && bound < idle.size(); ++k) {
          r.SetProgram(idle[bound++], {UserStep::Compute(10), UserStep::Compute(20)});
        }
      });
  EXPECT_EQ(bound, kIdle);
  ExpectSameRun(plain, hooked);
}

TEST(RunnerTest, ARebindDropsTheOldStepsAndTheStepInFlight) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);
  Runner r(&sys);
  r.SetComputeSliceCycles(100);
  int old_calls = 0;
  r.SetProgram(t, {UserStep::Dynamic([&old_calls](System&) -> std::optional<UserStep> {
                 ++old_calls;
                 return UserStep::Compute(1'000);
               })});
  // Five 100-cycle slices of the first 1,000-cycle sub-step, then the run
  // ends with the rest of it in flight.
  EXPECT_EQ(r.Run(450), 0u);
  EXPECT_EQ(old_calls, 1);

  r.SetProgram(t, {UserStep::Compute(50)});
  const Cycles t0 = sys.machine().Now();
  EXPECT_EQ(r.Run(500), 10u);  // ten 50-cycle steps: nothing of the old burst
  EXPECT_EQ(sys.machine().Now() - t0, 500u);
  EXPECT_EQ(old_calls, 1);
  EXPECT_EQ(r.StepsCompleted(t), 10u);

  // A rebind from the thread's own step hook takes effect at its next step.
  std::vector<std::size_t> seen;
  r.SetStepHook([&](TcbObj* th, std::size_t index) {
    seen.push_back(index);
    if (seen.size() == 3) {
      r.SetProgram(th, {UserStep::Compute(10), UserStep::Compute(20), UserStep::Compute(30)});
    }
  });
  const Cycles t1 = sys.machine().Now();
  EXPECT_EQ(r.Run(250), 9u);  // 3 x 50, then 10, 20, 30, 10, 20, 30 (the last overshoots)
  EXPECT_EQ(sys.machine().Now() - t1, 270u);
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 0, 0, 0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(old_calls, 1);
}

}  // namespace
}  // namespace pmk
