// Tests for the future-work extensions (paper Sections 6.1, 6.4, 8):
// whole-kernel L2 pinning and the preemptible atomic send-receive.

#include <gtest/gtest.h>

#include "src/sim/latency.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

KernelConfig SplitRr() {
  KernelConfig kc = KernelConfig::After();
  kc.preemptible_send_receive = true;
  return kc;
}

TEST(SplitSendReceiveTest, UnpreemptedReplyRecvBehavesIdentically) {
  System sys(SplitRr(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(60);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs call;
  call.msg_len = 6;
  sys.kernel().Syscall(SysOp::kCall, cptr, call);
  ASSERT_EQ(sys.kernel().current(), server);

  server->mrs[0] = 0xAB;
  SyscallArgs rr;
  rr.msg_len = 1;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kReplyRecv, cptr, rr), KernelExit::kDone);
  EXPECT_EQ(client->state, ThreadState::kRunning);
  EXPECT_EQ(client->mrs[0], 0xABu);
  EXPECT_EQ(server->state, ThreadState::kBlockedOnRecv);
  sys.kernel().CheckInvariants();
}

TEST(SplitSendReceiveTest, PreemptedBetweenPhasesRestartsIntoReceive) {
  System sys(SplitRr(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(60);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs call;
  call.msg_len = 6;
  sys.kernel().Syscall(SysOp::kCall, cptr, call);
  ASSERT_EQ(sys.kernel().current(), server);

  // An interrupt is pending when the server's ReplyRecv reaches the
  // between-phases preemption point.
  sys.machine().irq().Assert(InterruptController::kTimerLine, sys.machine().Now());
  server->mrs[0] = 0xCD;
  SyscallArgs rr;
  rr.msg_len = 1;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kReplyRecv, cptr, rr), KernelExit::kPreempted);
  // The send (reply) phase completed: the client got its answer...
  EXPECT_EQ(client->state, ThreadState::kRunning);
  EXPECT_EQ(client->mrs[0], 0xCDu);
  // ...but the server has not yet entered the receive phase.
  EXPECT_NE(server->state, ThreadState::kBlockedOnRecv);
  sys.kernel().CheckInvariants();

  // The restarted syscall performs only the receive phase (the reply is a
  // no-op: reply_to was consumed) and must not double-deliver.
  sys.kernel().DirectSetCurrent(server);
  client->mrs[0] = 0;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kReplyRecv, cptr, rr), KernelExit::kDone);
  EXPECT_EQ(server->state, ThreadState::kBlockedOnRecv);
  EXPECT_EQ(client->mrs[0], 0u) << "reply must not be delivered twice";
  sys.kernel().CheckInvariants();
}

TEST(SplitSendReceiveTest, HalvesTheSendReceivePathBound) {
  const auto atomic_img = BuildKernelImage(KernelConfig::After());
  const auto split_img = BuildKernelImage(SplitRr());
  const auto rr_only = [](const KernelImage& img) {
    AnalysisOptions ao;
    for (const BlockId b : {img.b.sys.do_call, img.b.sys.do_send, img.b.sys.do_recv,
                            img.b.sys.do_yield, img.b.sys.fast_do}) {
      if (b == kNoBlock) {
        continue;
      }
      ManualConstraint mc;
      mc.kind = ManualConstraint::Kind::kExecutes;
      mc.a = b;
      mc.n = 0;
      ao.constraints.push_back(mc);
    }
    return ao;
  };
  WcetAnalyzer a_atomic(*atomic_img, rr_only(*atomic_img));
  WcetAnalyzer a_split(*split_img, rr_only(*split_img));
  const Cycles atomic = a_atomic.Analyze(EntryPoint::kSyscall).wcet;
  const Cycles split = a_split.Analyze(EntryPoint::kSyscall).wcet;
  // "Could be almost halved" (Section 6.1).
  EXPECT_LT(split, atomic * 6 / 10);
  EXPECT_GT(split, atomic * 3 / 10);
}

TEST(L2KernelPinningTest, ComputedInterruptBoundBeatsEvenL2Off) {
  const auto img = BuildKernelImage(KernelConfig::After());
  AnalysisOptions l2_off;
  AnalysisOptions pinned;
  pinned.l2_enabled = true;
  pinned.l2_kernel_pinning = true;
  WcetAnalyzer a_off(*img, l2_off);
  WcetAnalyzer a_pin(*img, pinned);
  // The interrupt path touches almost only kernel text/data: every miss at
  // 26 instead of 60 cycles beats even the L2-off configuration.
  EXPECT_LT(a_pin.Analyze(EntryPoint::kInterrupt).wcet,
            a_off.Analyze(EntryPoint::kInterrupt).wcet);
}

TEST(L2KernelPinningTest, ObservedRunsBoundedByPinnedAnalysis) {
  System sys(KernelConfig::After(), EvalMachine(true));
  const std::size_t pinned = sys.kernel().ApplyL2KernelPinning();
  EXPECT_GT(pinned, 200u);  // text + data + stack lines

  AnalysisOptions ao;
  ao.l2_enabled = true;
  ao.l2_kernel_pinning = true;
  WcetAnalyzer an(sys.kernel().image(), ao);
  const Cycles bound = an.Analyze(EntryPoint::kSyscall).wcet;

  EXPECT_LE(EntryScenario(sys, EntryPoint::kSyscall).Run().cycles, bound);
}

TEST(L2KernelPinningTest, PinnedLinesSurvivePollution) {
  System sys(KernelConfig::After(), EvalMachine(true));
  sys.kernel().ApplyL2KernelPinning();
  sys.machine().PolluteCaches();
  // A kernel-text line: evicted from L1 by pollution but locked in the L2.
  EXPECT_TRUE(sys.machine().l2().Contains(Program::kTextBase));
}

}  // namespace
}  // namespace pmk
