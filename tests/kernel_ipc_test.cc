// IPC tests: message transfer, badges, capability grant, notification
// latching, fastpath eligibility boundaries, reply semantics and fault IPC.

#include <gtest/gtest.h>

#include "src/sim/workload.h"

namespace pmk {
namespace {

class IpcTest : public ::testing::Test {
 protected:
  System sys{KernelConfig::After(), EvalMachine(false)};
};

// The warm fastpath Call bench_ipc_fastpath prints. EXPERIMENTS.md (Section
// 6.1) explains why it sits above the paper's 200-250 cycles.
constexpr Cycles kWarmFastpathCall = 322;

// A client and a higher-priority server blocked in Recv on a new endpoint,
// warmed by one short Call + ReplyRecv round trip. Returns the endpoint's
// cptr.
std::uint32_t WarmPingPong(System& sys) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(60);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs fast;
  fast.msg_len = 2;
  sys.kernel().Syscall(SysOp::kCall, cptr, fast);
  sys.kernel().Syscall(SysOp::kReplyRecv, cptr, SyscallArgs{});
  return cptr;
}

Cycles TimedCall(System& sys, std::uint32_t cptr, std::uint32_t msg_len) {
  SyscallArgs args;
  args.msg_len = msg_len;
  const Cycles t0 = sys.machine().Now();
  sys.kernel().Syscall(SysOp::kCall, cptr, args);
  return sys.machine().Now() - t0;
}

TEST_F(IpcTest, MessageRegistersCopied) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* recv = sys.AddThread(10);
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  sys.kernel().DirectSetCurrent(send);
  for (std::uint32_t i = 0; i < 8; ++i) {
    send->mrs[i] = 100 + i;
  }
  SyscallArgs args;
  args.msg_len = 8;
  sys.kernel().Syscall(SysOp::kSend, cptr, args);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(recv->mrs[i], 100 + i) << i;
  }
}

TEST_F(IpcTest, ZeroLengthMessageDelivers) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* recv = sys.AddThread(10);
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  sys.kernel().DirectSetCurrent(send);
  SyscallArgs args;
  args.msg_len = 0;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kSend, cptr, args), KernelExit::kDone);
  EXPECT_EQ(recv->state, ThreadState::kRunning);
  EXPECT_EQ(recv->msg_len, 0u);
}

TEST_F(IpcTest, FullLengthMessageDelivers) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* recv = sys.AddThread(10);
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  sys.kernel().DirectSetCurrent(send);
  SyscallArgs args;
  args.msg_len = KernelConfig::kMaxMsgWords;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kSend, cptr, args), KernelExit::kDone);
  EXPECT_EQ(recv->msg_len, KernelConfig::kMaxMsgWords);
}

TEST_F(IpcTest, BadgeDeliveredToReceiver) {
  EndpointObj* ep = nullptr;
  const std::uint32_t plain = sys.AddEndpoint(&ep);
  Cap badged = sys.SlotOf(plain)->cap;
  badged.badge = 0xB0B;
  const std::uint32_t cptr = sys.AddCap(badged, sys.SlotOf(plain));

  TcbObj* recv = sys.AddThread(10);
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  sys.kernel().DirectSetCurrent(send);
  SyscallArgs args;
  args.msg_len = 5;  // skip fastpath so the slowpath badge handling runs
  sys.kernel().Syscall(SysOp::kSend, cptr, args);
  EXPECT_EQ(recv->recv_badge, 0xB0Bu);
}

TEST_F(IpcTest, QueuedSenderBadgeDeliveredOnRecv) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* sender = sys.AddThread(10);
  sys.kernel().DirectBlockOnSend(sender, ep, 77);
  TcbObj* recv = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(recv);
  sys.kernel().Syscall(SysOp::kRecv, cptr, SyscallArgs{});
  EXPECT_EQ(recv->recv_badge, 77u);
  EXPECT_EQ(sender->state, ThreadState::kRunning);
}

TEST_F(IpcTest, SendersQueueInFifoOrder) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  auto senders = sys.QueueSenders(ep, 3, {1, 2, 3});
  // Higher priority than the woken senders so no direct switch happens and
  // the receiver stays current across the three Recvs.
  TcbObj* recv = sys.AddThread(20);
  sys.kernel().DirectSetCurrent(recv);
  sys.kernel().Syscall(SysOp::kRecv, cptr, SyscallArgs{});
  EXPECT_EQ(recv->recv_badge, 1u);
  sys.kernel().Syscall(SysOp::kRecv, cptr, SyscallArgs{});
  EXPECT_EQ(recv->recv_badge, 2u);
  EXPECT_EQ(ep->q_len, 1u);
  (void)senders;
}

TEST_F(IpcTest, CapGrantTransfersDerivedCap) {
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  EndpointObj* granted = nullptr;
  const std::uint32_t granted_cptr = sys.AddEndpoint(&granted);

  TcbObj* recv = sys.AddThread(10);
  recv->recv_slot = 150;
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  sys.kernel().DirectSetCurrent(send);

  SyscallArgs args;
  args.msg_len = 6;
  args.n_extra = 1;
  args.extra_caps[0] = granted_cptr;
  sys.kernel().Syscall(SysOp::kSend, ep_cptr, args);

  const CapSlot& dest = sys.root()->slots[150];
  ASSERT_FALSE(dest.IsNull());
  EXPECT_EQ(dest.cap.type, ObjType::kEndpoint);
  EXPECT_EQ(dest.cap.obj, granted->base);
  // Derived: a child of the source cap in the MDB.
  EXPECT_EQ(dest.mdb_prev, sys.SlotOf(granted_cptr));
  sys.kernel().CheckInvariants();
}

TEST_F(IpcTest, GrantWithoutGrantRightIsDropped) {
  EndpointObj* ep = nullptr;
  const std::uint32_t plain = sys.AddEndpoint(&ep);
  Cap nogrant = sys.SlotOf(plain)->cap;
  nogrant.rights.grant = false;
  const std::uint32_t cptr = sys.AddCap(nogrant, sys.SlotOf(plain));
  EndpointObj* payload = nullptr;
  const std::uint32_t payload_cptr = sys.AddEndpoint(&payload);

  TcbObj* recv = sys.AddThread(10);
  recv->recv_slot = 151;
  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  sys.kernel().DirectSetCurrent(send);

  SyscallArgs args;
  args.msg_len = 6;
  args.n_extra = 1;
  args.extra_caps[0] = payload_cptr;
  sys.kernel().Syscall(SysOp::kSend, cptr, args);
  EXPECT_TRUE(sys.root()->slots[151].IsNull());
}

TEST_F(IpcTest, OccupiedReceiveSlotIsNotOverwritten) {
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  EndpointObj* payload = nullptr;
  const std::uint32_t payload_cptr = sys.AddEndpoint(&payload);

  TcbObj* recv = sys.AddThread(10);
  recv->recv_slot = 152;
  Cap occupier;
  occupier.type = ObjType::kEndpoint;
  occupier.obj = ep->base;
  sys.kernel().DirectCap(sys.root(), 152, occupier);

  TcbObj* send = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(recv, ep);
  sys.kernel().DirectSetCurrent(send);
  SyscallArgs args;
  args.msg_len = 6;
  args.n_extra = 1;
  args.extra_caps[0] = payload_cptr;
  sys.kernel().Syscall(SysOp::kSend, ep_cptr, args);
  EXPECT_EQ(sys.root()->slots[152].cap.obj, ep->base);  // untouched
  sys.kernel().CheckInvariants();
}

TEST_F(IpcTest, ReplyWakesCaller) {
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

  server->mrs[0] = 0xFEED;
  SyscallArgs rr;
  rr.msg_len = 1;
  sys.kernel().Syscall(SysOp::kReplyRecv, cptr, rr);
  EXPECT_EQ(client->state, ThreadState::kRunning);
  EXPECT_EQ(client->mrs[0], 0xFEEDu);
  EXPECT_EQ(server->state, ThreadState::kBlockedOnRecv);
  EXPECT_EQ(server->reply_to, nullptr);
}

TEST_F(IpcTest, ReplyRecvWithNoCallerStillWaits) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(60);
  sys.kernel().DirectSetCurrent(server);
  sys.kernel().Syscall(SysOp::kReplyRecv, cptr, SyscallArgs{});
  EXPECT_EQ(server->state, ThreadState::kBlockedOnRecv);
  EXPECT_EQ(sys.kernel().current(), sys.kernel().idle());
}

TEST_F(IpcTest, NotificationLatchedWhenNobodyWaits) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* task = sys.AddThread(10);
  sys.kernel().DirectBindIrq(4, ep);
  sys.kernel().DirectSetCurrent(task);

  sys.machine().irq().Assert(4, sys.machine().Now());
  sys.kernel().HandleIrqEntry();
  EXPECT_NE(ep->pending_notifications, 0u);
  EXPECT_EQ(sys.kernel().current(), task);  // nothing woke

  // The next Recv consumes the latched notification without blocking.
  sys.kernel().Syscall(SysOp::kRecv, cptr, SyscallArgs{});
  EXPECT_EQ(task->state, ThreadState::kRunning);
  EXPECT_EQ(task->recv_badge, 5u);  // line + 1
  EXPECT_EQ(ep->pending_notifications, 0u);
}

TEST_F(IpcTest, FastpathRequiresShortMessage) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(60);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs args;
  args.msg_len = 5;  // > 4 registers
  sys.kernel().Syscall(SysOp::kCall, cptr, args);
  EXPECT_EQ(sys.kernel().fastpath_hits(), 0u);
  EXPECT_EQ(sys.kernel().current(), server);  // slowpath still worked
}

TEST_F(IpcTest, FastpathRequiresNoExtraCaps) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  EndpointObj* other = nullptr;
  const std::uint32_t other_cptr = sys.AddEndpoint(&other);
  TcbObj* server = sys.AddThread(60);
  server->recv_slot = 160;
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs args;
  args.msg_len = 2;
  args.n_extra = 1;
  args.extra_caps[0] = other_cptr;
  sys.kernel().Syscall(SysOp::kCall, cptr, args);
  EXPECT_EQ(sys.kernel().fastpath_hits(), 0u);
  EXPECT_FALSE(sys.root()->slots[160].IsNull());  // slowpath granted the cap
}

TEST_F(IpcTest, FastpathRequiresWaitingReceiver) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs args;
  args.msg_len = 2;
  sys.kernel().Syscall(SysOp::kCall, cptr, args);
  EXPECT_EQ(sys.kernel().fastpath_hits(), 0u);
  EXPECT_EQ(client->state, ThreadState::kBlockedOnSend);
}

TEST_F(IpcTest, FastpathRequiresReceiverPriority) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(5);  // lower priority than client
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs args;
  args.msg_len = 2;
  sys.kernel().Syscall(SysOp::kCall, cptr, args);
  EXPECT_EQ(sys.kernel().fastpath_hits(), 0u);
}

TEST_F(IpcTest, FastpathCheaperThanSlowpath) {
  // Section 6.1: the fastpath is an order of magnitude faster.
  const std::uint32_t cptr = WarmPingPong(sys);
  const Cycles fast_cost = TimedCall(sys, cptr, 2);
  EXPECT_EQ(sys.kernel().fastpath_hits(), 2u);

  sys.kernel().Syscall(SysOp::kReplyRecv, cptr, SyscallArgs{});
  const Cycles slow_cost = TimedCall(sys, cptr, 8);
  EXPECT_LT(fast_cost, slow_cost);
  EXPECT_EQ(fast_cost, kWarmFastpathCall);
}

TEST_F(IpcTest, FastpathUnaffectedByPreemptionPoints) {
  // Section 6.1: "the fastpath performance is not affected by our preemption
  // points". bench_ipc_fastpath's before kernel takes the after kernel's
  // scheduler and address-space design, so only the preemption points
  // differ.
  KernelConfig before = KernelConfig::Before();
  before.scheduler = SchedulerKind::kBenno;
  before.scheduler_bitmap = true;
  before.vspace = VSpaceKind::kShadow;
  System pre(before, EvalMachine(false));
  const std::uint32_t pre_cptr = WarmPingPong(pre);
  const std::uint32_t cptr = WarmPingPong(sys);
  EXPECT_EQ(TimedCall(pre, pre_cptr, 2), kWarmFastpathCall);
  EXPECT_EQ(TimedCall(sys, cptr, 2), kWarmFastpathCall);
  EXPECT_EQ(pre.kernel().fastpath_hits(), 2u);
}

TEST_F(IpcTest, SendToDeactivatedEndpointAborts) {
  EndpointObj* ep = nullptr;
  const std::uint32_t cptr = sys.AddEndpoint(&ep);
  ep->active = false;
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.msg_len = 6;
  sys.kernel().Syscall(SysOp::kSend, cptr, args);
  EXPECT_EQ(t->last_error, KError::kDeleted);
  EXPECT_EQ(t->state, ThreadState::kRunning);  // not queued
}

TEST_F(IpcTest, FaultMessageBlocksFaulterOnReply) {
  EndpointObj* ep = nullptr;
  const std::uint32_t fcptr = sys.AddEndpoint(&ep);
  TcbObj* pager = sys.AddThread(100);
  TcbObj* task = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(pager, ep);
  task->fault_handler_cptr = fcptr;
  sys.kernel().DirectSetCurrent(task);
  sys.kernel().RaisePageFault();
  EXPECT_EQ(task->state, ThreadState::kBlockedOnReply);
  EXPECT_EQ(pager->reply_to, task);
  // Pager handles the fault and replies: task resumes.
  sys.kernel().Syscall(SysOp::kReplyRecv, fcptr, SyscallArgs{});
  EXPECT_EQ(task->state, ThreadState::kRunning);
}

TEST_F(IpcTest, FaultWithNoWaitingPagerQueues) {
  EndpointObj* ep = nullptr;
  const std::uint32_t fcptr = sys.AddEndpoint(&ep);
  TcbObj* task = sys.AddThread(10);
  task->fault_handler_cptr = fcptr;
  sys.kernel().DirectSetCurrent(task);
  sys.kernel().RaisePageFault();
  EXPECT_EQ(task->state, ThreadState::kBlockedOnSend);
  EXPECT_EQ(ep->q_head, task);
  EXPECT_TRUE(task->blocked_is_call);
}

}  // namespace
}  // namespace pmk
