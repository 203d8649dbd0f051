// End-to-end smoke tests: every charged kernel entry runs against the
// executor's CFG validation, so these tests verify that the kernel runtime
// and the declared kernel image agree block-for-block — the correspondence
// the paper gets by analyzing the real binary.

#include <gtest/gtest.h>

#include "src/sim/latency.h"
#include "src/sim/workload.h"

namespace pmk {
namespace {

class KernelSmokeTest : public ::testing::TestWithParam<bool> {
 protected:
  // Param: true = "after" kernel, false = "before" kernel.
  KernelConfig Config() const {
    return GetParam() ? KernelConfig::After() : KernelConfig::Before();
  }
};

TEST_P(KernelSmokeTest, BootAndInvariants) {
  System sys(Config(), EvalMachine(false));
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, SendToWaitingReceiverDelivers) {
  System sys(Config(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* recv = sys.AddThread(10);
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  sys.kernel().DirectSetCurrent(send);

  SyscallArgs args;
  args.msg_len = 3;
  send->mrs[0] = 42;
  send->mrs[1] = 43;
  send->mrs[2] = 44;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kSend, cptr, args), KernelExit::kDone);
  EXPECT_EQ(recv->state, ThreadState::kRunning);
  EXPECT_EQ(recv->mrs[0], 42u);
  EXPECT_EQ(recv->mrs[2], 44u);
  EXPECT_EQ(recv->msg_len, 3u);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, SendWithNoReceiverBlocks) {
  System sys(Config(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(send);

  SyscallArgs args;
  args.msg_len = 1;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kSend, cptr, args), KernelExit::kDone);
  EXPECT_EQ(send->state, ThreadState::kBlockedOnSend);
  EXPECT_EQ(ep->q_head, send);
  // The sender blocked, so the scheduler picked someone else (idle here).
  EXPECT_EQ(sys.kernel().current(), sys.kernel().idle());
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, CallReplyRecvRoundTrip) {
  System sys(Config(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(20);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);

  SyscallArgs args;
  args.msg_len = 8;  // beyond the fastpath's 4-register limit
  client->mrs[0] = 7;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, cptr, args), KernelExit::kDone);
  // Server woken (higher priority => direct switch under Benno).
  EXPECT_EQ(server->state, ThreadState::kRunning);
  EXPECT_EQ(client->state, ThreadState::kBlockedOnReply);
  EXPECT_EQ(server->reply_to, client);
  EXPECT_EQ(sys.kernel().current(), server);
  EXPECT_EQ(server->mrs[0], 7u);
  sys.kernel().CheckInvariants();

  // Server replies and waits for the next request.
  server->mrs[0] = 99;
  SyscallArgs rr;
  rr.msg_len = 1;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kReplyRecv, cptr, rr), KernelExit::kDone);
  EXPECT_EQ(client->state, ThreadState::kRunning);
  EXPECT_EQ(client->mrs[0], 99u);
  EXPECT_EQ(server->state, ThreadState::kBlockedOnRecv);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, FastpathHitsForEligibleCall) {
  KernelConfig kc = Config();
  System sys(kc, EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(20);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);

  SyscallArgs args;
  args.msg_len = 2;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, cptr, args), KernelExit::kDone);
  EXPECT_EQ(sys.kernel().fastpath_hits(), kc.ipc_fastpath ? 1u : 0u);
  EXPECT_EQ(sys.kernel().current(), server);
  EXPECT_EQ(client->state, ThreadState::kBlockedOnReply);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, YieldMovesThreadBehindPeer) {
  System sys(Config(), EvalMachine(false));
  TcbObj* a = sys.AddThread(10);
  TcbObj* b = sys.AddThread(10);
  sys.kernel().DirectResume(a);
  sys.kernel().DirectResume(b);
  sys.kernel().DirectSetCurrent(a);

  ASSERT_EQ(sys.kernel().Syscall(SysOp::kYield, 0, SyscallArgs{}), KernelExit::kDone);
  EXPECT_EQ(sys.kernel().current(), b);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, DeepCapDecode32Levels) {
  System sys(Config(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  sys.AddEndpoint(&ep);
  TcbObj* recv = sys.AddThread(10);
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);

  Cap target;
  target.type = ObjType::kEndpoint;
  target.obj = ep->base;
  const std::uint32_t cptr = sys.BuildDeepCapSpace(send, target, 32);
  sys.kernel().DirectSetCurrent(send);

  SyscallArgs args;
  args.msg_len = 1;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kSend, cptr, args), KernelExit::kDone);
  EXPECT_EQ(recv->state, ThreadState::kRunning);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, InvalidCapReportsError) {
  System sys(Config(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kSend, 0xDEAD, SyscallArgs{}), KernelExit::kDone);
  EXPECT_EQ(t->last_error, KError::kInvalidCap);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, RetypeCreatesEndpoint) {
  System sys(Config(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(20);
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kEndpoint;
  args.dest_index = 77;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, args), KernelExit::kDone);
  EXPECT_EQ(t->last_error, KError::kOk);
  const CapSlot& dest = sys.root()->slots[77];
  ASSERT_FALSE(dest.IsNull());
  EXPECT_EQ(dest.cap.type, ObjType::kEndpoint);
  EXPECT_NE(sys.kernel().objects().Get<EndpointObj>(dest.cap.obj), nullptr);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, RetypeLargeFrameCompletes) {
  System sys(Config(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(21);
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kFrame;
  args.obj_bits = 18;  // 256 KiB: 256 clear chunks
  args.dest_index = 78;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, args), KernelExit::kDone);
  EXPECT_EQ(t->last_error, KError::kOk);
  EXPECT_FALSE(sys.root()->slots[78].IsNull());
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, EndpointDeleteAbortsQueuedSenders) {
  System sys(Config(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  auto senders = sys.QueueSenders(ep, 8, {kBadgeNone});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  // Delete the (final) endpoint cap via the root CNode.
  const std::uint32_t root_cptr = sys.AddCap([&] {
    Cap c;
    c.type = ObjType::kCNode;
    c.obj = sys.root()->base;
    return c;
  }());
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = ep_cptr & 0xFF;
  const Addr ep_base = ep->base;  // |ep| is freed by the delete
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, root_cptr, args), KernelExit::kDone);
  for (TcbObj* s : senders) {
    EXPECT_EQ(s->state, ThreadState::kRestart);
    EXPECT_EQ(s->last_error, KError::kAborted);
  }
  EXPECT_EQ(sys.kernel().objects().Get<EndpointObj>(ep_base), nullptr);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, BadgedRevokeAbortsOnlyMatchingSenders) {
  System sys(Config(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  CapSlot* ep_slot = sys.SlotOf(ep_cptr);

  // Mint a badged cap (badge 5) as a child of the unbadged endpoint cap.
  Cap badged = ep_slot->cap;
  badged.badge = 5;
  const std::uint32_t badged_cptr = sys.AddCap(badged, ep_slot);

  auto senders = sys.QueueSenders(ep, 12, {5, 9});  // alternating badges
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = sys.AddCap([&] {
    Cap c;
    c.type = ObjType::kCNode;
    c.obj = sys.root()->base;
    return c;
  }());
  SyscallArgs args;
  args.label = InvLabel::kCNodeRevoke;
  args.arg0 = badged_cptr & 0xFF;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, root_cptr, args), KernelExit::kDone);

  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (i % 2 == 0) {  // badge 5
      EXPECT_EQ(senders[i]->state, ThreadState::kRestart) << i;
      EXPECT_EQ(senders[i]->last_error, KError::kAborted) << i;
    } else {  // badge 9 untouched
      EXPECT_EQ(senders[i]->state, ThreadState::kBlockedOnSend) << i;
    }
  }
  // Endpoint itself survives (the unbadged parent cap still exists).
  EXPECT_NE(sys.kernel().objects().Get<EndpointObj>(ep->base), nullptr);
  EXPECT_TRUE(ep->active);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, IrqDeliveryNotifiesBoundEndpoint) {
  System sys(Config(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  sys.AddEndpoint(&ep);
  TcbObj* handler = sys.AddThread(200);
  TcbObj* task = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(handler, ep);
  sys.kernel().DirectBindIrq(InterruptController::kTimerLine, ep);
  sys.kernel().DirectSetCurrent(task);

  sys.machine().irq().Assert(InterruptController::kTimerLine, sys.machine().Now());
  ASSERT_EQ(sys.kernel().HandleIrqEntry(), KernelExit::kDone);
  EXPECT_EQ(handler->state, ThreadState::kRunning);
  // Handler outranks the task: direct switch.
  EXPECT_EQ(sys.kernel().current(), handler);
  ASSERT_EQ(sys.kernel().irq_latencies().size(), 1u);
  EXPECT_GT(sys.kernel().irq_latencies()[0], 0u);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, PageFaultDeliveredToHandler) {
  System sys(Config(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t fault_cptr = sys.AddEndpoint(&ep);
  TcbObj* pager = sys.AddThread(100);
  TcbObj* task = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(pager, ep);
  task->fault_handler_cptr = fault_cptr;
  sys.kernel().DirectSetCurrent(task);

  ASSERT_EQ(sys.kernel().RaisePageFault(), KernelExit::kDone);
  EXPECT_EQ(pager->state, ThreadState::kRunning);
  EXPECT_EQ(task->state, ThreadState::kBlockedOnReply);
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, UndefinedInstrWithoutHandlerSuspends) {
  System sys(Config(), EvalMachine(false));
  TcbObj* task = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(task);
  ASSERT_EQ(sys.kernel().RaiseUndefined(), KernelExit::kDone);
  EXPECT_EQ(task->state, ThreadState::kInactive);
  EXPECT_EQ(sys.kernel().current(), sys.kernel().idle());
  sys.kernel().CheckInvariants();
}

TEST_P(KernelSmokeTest, WorstCaseIpcCompletes) {
  System sys(Config(), EvalMachine(false));
  auto w = sys.BuildWorstCaseIpc();
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, w.ep_cptr, w.args), KernelExit::kDone);
  EXPECT_EQ(w.receiver->state, ThreadState::kRunning);
  EXPECT_EQ(w.caller->state, ThreadState::kBlockedOnReply);
  sys.kernel().CheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(BeforeAndAfter, KernelSmokeTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "After" : "Before";
                         });

}  // namespace
}  // namespace pmk
