// Object-operation tests: untyped retype with preemptible clearing
// (Section 3.5), capability deletion/revocation, preemptible endpoint
// cancellation (Section 3.3) and badged-IPC abort with the four-field resume
// state (Section 3.4) — including the restartable-system-call behaviour
// under a periodic interrupt, with the kernel invariants checked at every
// preemption point.

#include <gtest/gtest.h>

#include "src/sim/latency.h"
#include "src/sim/workload.h"

namespace pmk {
namespace {

std::uint32_t CNodeCptrFor(System& sys) {
  Cap c;
  c.type = ObjType::kCNode;
  c.obj = sys.root()->base;
  return sys.AddCap(c);
}

// ablation_preemption's scenarios: the worst observed interrupt response
// while a periodic timer interrupts one long operation. Each preemption-point
// family must cut it at least tenfold; the driver prints 14.13x-217.27x.

Cycles RetypeResponse(const KernelConfig& kc) {
  System sys(kc, EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(19);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kFrame;
  args.obj_bits = 18;
  args.dest_index = 70;
  return RunLongOpWithTimer(sys, SysOp::kCall, ut_cptr, args, 9000).max_irq_latency;
}

Cycles EndpointDeleteResponse(const KernelConfig& kc) {
  System sys(kc, EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  sys.QueueSenders(ep, 128, {kBadgeNone});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);
  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = ep_cptr & 0xFF;
  return RunLongOpWithTimer(sys, SysOp::kCall, root_cptr, args, 5000).max_irq_latency;
}

Cycles BadgedRevokeResponse(const KernelConfig& kc) {
  System sys(kc, EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  Cap badged = sys.SlotOf(ep_cptr)->cap;
  badged.badge = 5;
  const std::uint32_t badged_cptr = sys.AddCap(badged, sys.SlotOf(ep_cptr));
  sys.QueueSenders(ep, 128, {5, 6});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);
  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeRevoke;
  args.arg0 = badged_cptr & 0xFF;
  return RunLongOpWithTimer(sys, SysOp::kCall, root_cptr, args, 5000).max_irq_latency;
}

// Deletes an address space of 4 page tables x 32 mapped frames.
Cycles AddressSpaceDeleteResponse(const KernelConfig& kc) {
  System sys(kc, EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  PageDirObj* pd = sys.kernel().DirectPageDir();
  for (int p = 0; p < 4; ++p) {
    PageTableObj* pt = sys.kernel().DirectPageTable();
    Cap pt_cap;
    pt_cap.type = ObjType::kPageTable;
    pt_cap.obj = pt->base;
    CapSlot* pt_slot = sys.kernel().DirectCap(sys.root(), 100 + p, pt_cap);
    sys.kernel().DirectMapPageTable(pd, 16 + p, pt, pt_slot);
    for (int fi = 0; fi < 32; ++fi) {
      FrameObj* f = sys.kernel().DirectFrame(12);
      Cap fc;
      fc.type = ObjType::kFrame;
      fc.obj = f->base;
      CapSlot* fs = sys.kernel().DirectCap(sys.root(), 110 + p * 32 + fi, fc);
      sys.kernel().DirectMapFrame(pd, (static_cast<Addr>(16 + p) << 20) | (fi << 12), f, fs);
    }
  }
  Cap pd_cap;
  pd_cap.type = ObjType::kPageDir;
  pd_cap.obj = pd->base;
  const std::uint32_t pd_cptr = sys.AddCap(pd_cap);
  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = pd_cptr & 0xFF;
  return RunLongOpWithTimer(sys, SysOp::kCall, root_cptr, args, 5000).max_irq_latency;
}

TEST(RetypeTest, WatermarkAdvancesAndAligns) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  UntypedObj* ut = nullptr;
  const std::uint32_t ut_cptr = sys.AddUntyped(16, &ut);
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs mk_ep;
  mk_ep.label = InvLabel::kUntypedRetype;
  mk_ep.obj_type = ObjType::kEndpoint;
  mk_ep.dest_index = 70;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, mk_ep), KernelExit::kDone);
  EXPECT_EQ(ut->watermark, ut->base + 16);  // endpoint: 16 bytes

  // A TCB (512 B) must start at a 512-aligned address, skipping a gap.
  SyscallArgs mk_tcb = mk_ep;
  mk_tcb.obj_type = ObjType::kTcb;
  mk_tcb.dest_index = 71;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, mk_tcb), KernelExit::kDone);
  const CapSlot& slot = sys.root()->slots[71];
  EXPECT_EQ(slot.cap.obj % 512, 0u);
  EXPECT_EQ(ut->watermark, slot.cap.obj + 512);
  sys.kernel().CheckInvariants();
}

TEST(RetypeTest, ExhaustedUntypedFails) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(9, nullptr);  // 512 B total
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kTcb;  // 512 B: fits exactly once
  args.dest_index = 70;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, args), KernelExit::kDone);
  EXPECT_EQ(t->last_error, KError::kOk);
  args.dest_index = 71;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, args), KernelExit::kDone);
  EXPECT_EQ(t->last_error, KError::kInvalidArg);
  EXPECT_TRUE(sys.root()->slots[71].IsNull());
}

TEST(RetypeTest, TooLargeObjectRejected) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(24, nullptr);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kFrame;
  args.obj_bits = 24;  // above KernelConfig::kMaxObjectBits
  args.dest_index = 70;
  sys.kernel().Syscall(SysOp::kCall, ut_cptr, args);
  EXPECT_EQ(t->last_error, KError::kInvalidArg);
}

TEST(RetypeTest, OccupiedDestinationRejected) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(16, nullptr);
  EndpointObj* ep = nullptr;
  const std::uint32_t occupied = sys.AddEndpoint(&ep);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kEndpoint;
  args.dest_index = occupied & 0xFF;
  sys.kernel().Syscall(SysOp::kCall, ut_cptr, args);
  EXPECT_EQ(t->last_error, KError::kInvalidArg);
}

TEST(RetypeTest, NewCapIsMdbChildOfUntyped) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(16, nullptr);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kEndpoint;
  args.dest_index = 70;
  sys.kernel().Syscall(SysOp::kCall, ut_cptr, args);
  CapSlot* ut_slot = sys.SlotOf(ut_cptr);
  CapSlot* child = &sys.root()->slots[70];
  EXPECT_EQ(child->mdb_prev, ut_slot);
  EXPECT_EQ(child->mdb_depth, ut_slot->mdb_depth + 1);
  EXPECT_TRUE(Mdb::HasChildren(ut_slot));
}

TEST(RetypeTest, PreemptibleClearRestartsAndCompletes) {
  // Section 3.5: a large clear is preempted by a periodic timer; the syscall
  // restarts and resumes from the stored progress. Invariants must hold at
  // every preemption point.
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  UntypedObj* ut = nullptr;
  const std::uint32_t ut_cptr = sys.AddUntyped(19, &ut);
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kFrame;
  args.obj_bits = 18;  // 256 KiB -> 256 chunks
  args.dest_index = 70;

  // Timer fires every ~3 chunk-times.
  const LongOpResult res = RunLongOpWithTimer(sys, SysOp::kCall, ut_cptr, args, 8000);
  EXPECT_GT(res.preemptions, 5u);
  EXPECT_EQ(t->last_error, KError::kOk);
  EXPECT_FALSE(sys.root()->slots[70].IsNull());
  EXPECT_FALSE(ut->retype_active);
  sys.kernel().CheckInvariants();
  // Response time stays bounded: far below one chunk-free clear.
  EXPECT_LT(res.max_irq_latency, 10'000u);
}

TEST(RetypeTest, NonPreemptibleClearIgnoresPendingIrq) {
  // The "before" kernel finishes the whole clear with the interrupt pending.
  System sys(KernelConfig::Before(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(19, nullptr);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kFrame;
  args.obj_bits = 18;
  args.dest_index = 70;
  const LongOpResult res = RunLongOpWithTimer(sys, SysOp::kCall, ut_cptr, args, 8000);
  EXPECT_EQ(res.preemptions, 0u);
  EXPECT_FALSE(sys.root()->slots[70].IsNull());
  EXPECT_EQ(t->last_error, KError::kOk);
}

TEST(RetypeTest, PreemptibleClearCutsObservedResponseTenfold) {
  KernelConfig off = KernelConfig::After();
  off.preemptible_clearing = false;
  EXPECT_GE(RetypeResponse(off), 10 * RetypeResponse(KernelConfig::After()));
}

TEST(RetypeTest, PageDirectoryGetsGlobalMappings) {
  for (const VSpaceKind vk : {VSpaceKind::kShadow, VSpaceKind::kAsid}) {
    KernelConfig kc = KernelConfig::After();
    kc.vspace = vk;
    System sys(kc, EvalMachine(false));
    TcbObj* t = sys.AddThread(10);
    const std::uint32_t ut_cptr = sys.AddUntyped(17, nullptr);
    sys.kernel().DirectSetCurrent(t);
    SyscallArgs args;
    args.label = InvLabel::kUntypedRetype;
    args.obj_type = ObjType::kPageDir;
    args.dest_index = 70;
    ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, args), KernelExit::kDone);
    ASSERT_EQ(t->last_error, KError::kOk);
    PageDirObj* pd = sys.kernel().objects().Get<PageDirObj>(sys.root()->slots[70].cap.obj);
    ASSERT_NE(pd, nullptr);
    EXPECT_TRUE(pd->global_mappings_present);  // the Section 3.5 invariant
  }
}

TEST(DeleteTest, NonFinalCapJustUnlinks) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  const std::uint32_t copy_cptr = sys.AddCap(sys.SlotOf(ep_cptr)->cap, sys.SlotOf(ep_cptr));
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = copy_cptr & 0xFF;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  EXPECT_TRUE(sys.SlotOf(copy_cptr)->IsNull());
  EXPECT_NE(sys.kernel().objects().Get<EndpointObj>(ep->base), nullptr);  // survives
  EXPECT_TRUE(ep->active);
  sys.kernel().CheckInvariants();
}

TEST(DeleteTest, FinalEndpointCapDestroysAndAborts) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  const Addr ep_base = ep->base;  // |ep| is freed by the delete
  auto senders = sys.QueueSenders(ep, 5, {kBadgeNone});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = ep_cptr & 0xFF;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  EXPECT_EQ(sys.kernel().objects().Get<EndpointObj>(ep_base), nullptr);
  for (TcbObj* s : senders) {
    EXPECT_EQ(s->state, ThreadState::kRestart);
    EXPECT_TRUE(s->in_run_queue);  // restarted threads are runnable
  }
  sys.kernel().CheckInvariants();
}

TEST(DeleteTest, PreemptedEndpointDeleteRestartsToCompletion) {
  // Section 3.3: deletion preempts after each dequeued thread; forward
  // progress is guaranteed by deactivating the endpoint first.
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  const Addr ep_base = ep->base;  // |ep| is freed by the delete
  auto senders = sys.QueueSenders(ep, 64, {kBadgeNone});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = ep_cptr & 0xFF;
  const LongOpResult res = RunLongOpWithTimer(sys, SysOp::kCall, root_cptr, args, 3000);
  EXPECT_GT(res.preemptions, 2u);
  EXPECT_EQ(sys.kernel().objects().Get<EndpointObj>(ep_base), nullptr);
  EXPECT_TRUE(sys.SlotOf(ep_cptr)->IsNull());
  for (TcbObj* s : senders) {
    EXPECT_EQ(s->state, ThreadState::kRestart);
  }
  sys.kernel().CheckInvariants();
}

TEST(DeleteTest, PreemptibleDeletionCutsObservedResponseTenfold) {
  KernelConfig off = KernelConfig::After();
  off.preemptible_deletion = false;
  EXPECT_GE(EndpointDeleteResponse(off), 10 * EndpointDeleteResponse(KernelConfig::After()));
  EXPECT_GE(AddressSpaceDeleteResponse(off),
            10 * AddressSpaceDeleteResponse(KernelConfig::After()));
}

TEST(DeleteTest, MidDeleteEndpointRefusesNewIpc) {
  // Forward progress: once deactivated, threads cannot re-queue on the
  // endpoint even between preemptions.
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  sys.QueueSenders(ep, 16, {kBadgeNone});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  // Preempt the delete once by asserting the (bound-free) timer line.
  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  sys.machine().timer().set_period(2500);
  sys.machine().timer().Restart(sys.machine().Now());
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = ep_cptr & 0xFF;
  const KernelExit e = sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  sys.machine().timer().set_period(0);
  ASSERT_EQ(e, KernelExit::kPreempted);
  EXPECT_FALSE(ep->active);

  // Another thread attempts IPC on the half-deleted endpoint: refused.
  TcbObj* intruder = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(intruder);
  SyscallArgs send;
  send.msg_len = 6;
  sys.kernel().Syscall(SysOp::kSend, ep_cptr, send);
  EXPECT_EQ(intruder->last_error, KError::kDeleted);
  EXPECT_EQ(intruder->state, ThreadState::kRunning);
  sys.kernel().CheckInvariants();
}

TEST(RevokeTest, RemovesAllDescendants) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  CapSlot* root_slot = sys.SlotOf(ep_cptr);
  std::vector<std::uint32_t> copies;
  for (int i = 0; i < 6; ++i) {
    copies.push_back(sys.AddCap(root_slot->cap, root_slot));
  }
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeRevoke;
  args.arg0 = ep_cptr & 0xFF;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  for (const std::uint32_t c : copies) {
    EXPECT_TRUE(sys.SlotOf(c)->IsNull());
  }
  EXPECT_FALSE(root_slot->IsNull());  // the revoked cap itself survives
  EXPECT_FALSE(Mdb::HasChildren(root_slot));
  sys.kernel().CheckInvariants();
}

TEST(RevokeTest, BadgedRevokeStoresResumeStateAcrossPreemption) {
  // Section 3.4: the four-field resume state lives on the endpoint, and the
  // operation completes across restarts without rescanning aborted work.
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  Cap badged = sys.SlotOf(ep_cptr)->cap;
  badged.badge = 9;
  const std::uint32_t badged_cptr = sys.AddCap(badged, sys.SlotOf(ep_cptr));

  auto senders = sys.QueueSenders(ep, 48, {9, 4});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeRevoke;
  args.arg0 = badged_cptr & 0xFF;
  const LongOpResult res = RunLongOpWithTimer(sys, SysOp::kCall, root_cptr, args, 2500);
  EXPECT_GT(res.preemptions, 1u);
  EXPECT_FALSE(ep->abort.valid);  // resume state cleared on completion
  for (std::size_t i = 0; i < senders.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(senders[i]->state, ThreadState::kRestart) << i;
    } else {
      EXPECT_EQ(senders[i]->state, ThreadState::kBlockedOnSend) << i;
    }
  }
  // Revoke removes descendants; the revoked badge cap itself survives so
  // the server can re-issue it (Section 3.4).
  EXPECT_FALSE(sys.SlotOf(badged_cptr)->IsNull());
  EXPECT_FALSE(Mdb::HasChildren(sys.SlotOf(badged_cptr)));
  sys.kernel().CheckInvariants();
}

TEST(RevokeTest, PreemptibleBadgedAbortCutsObservedResponseTenfold) {
  KernelConfig off = KernelConfig::After();
  off.preemptible_badged_abort = false;
  off.preemptible_deletion = false;
  EXPECT_GE(BadgedRevokeResponse(off), 10 * BadgedRevokeResponse(KernelConfig::After()));
}

TEST(RevokeTest, NewWaitersAfterAbortStartAreNotScanned) {
  // Field 2 of the resume state: the end marker fixed when the operation
  // commenced keeps later arrivals out of the scan.
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  Cap badged = sys.SlotOf(ep_cptr)->cap;
  badged.badge = 9;
  const std::uint32_t badged_cptr = sys.AddCap(badged, sys.SlotOf(ep_cptr));
  auto senders = sys.QueueSenders(ep, 24, {9});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  // Preempt the abort once.
  sys.machine().timer().set_period(2500);
  sys.machine().timer().Restart(sys.machine().Now());
  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeRevoke;
  args.arg0 = badged_cptr & 0xFF;
  const KernelExit e = sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  sys.machine().timer().set_period(0);
  ASSERT_EQ(e, KernelExit::kPreempted);
  ASSERT_TRUE(ep->abort.valid);

  // A straggler with the same badge arrives mid-abort (the endpoint is
  // still active: only the badge is being revoked).
  TcbObj* straggler = sys.AddThread(10);
  sys.kernel().DirectBlockOnSend(straggler, ep, 9);

  sys.machine().irq().Unmask(InterruptController::kTimerLine);
  while (sys.kernel().Syscall(SysOp::kCall, root_cptr, args) == KernelExit::kPreempted) {
    sys.machine().irq().Unmask(InterruptController::kTimerLine);
  }
  EXPECT_EQ(straggler->state, ThreadState::kBlockedOnSend);  // not scanned
  for (TcbObj* s : senders) {
    EXPECT_EQ(s->state, ThreadState::kRestart);
  }
  sys.kernel().CheckInvariants();
}

TEST(RevokeTest, SecondAborterCompletesStoredOperation) {
  // Field 4: another thread invoking a badged abort on the same endpoint
  // first completes the stored (preempted) operation.
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  Cap badged = sys.SlotOf(ep_cptr)->cap;
  badged.badge = 9;
  const std::uint32_t badged_cptr = sys.AddCap(badged, sys.SlotOf(ep_cptr));
  auto senders = sys.QueueSenders(ep, 24, {9});
  TcbObj* t1 = sys.AddThread(10);
  TcbObj* t2 = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t1);

  sys.machine().timer().set_period(2500);
  sys.machine().timer().Restart(sys.machine().Now());
  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeRevoke;
  args.arg0 = badged_cptr & 0xFF;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, root_cptr, args), KernelExit::kPreempted);
  sys.machine().timer().set_period(0);
  ASSERT_TRUE(ep->abort.valid);
  EXPECT_EQ(ep->abort.aborter, t1);

  // t2 now performs the same revoke: it must finish t1's scan first.
  sys.kernel().DirectSetCurrent(t2);
  sys.machine().irq().Unmask(InterruptController::kTimerLine);
  while (sys.kernel().Syscall(SysOp::kCall, root_cptr, args) == KernelExit::kPreempted) {
    sys.machine().irq().Unmask(InterruptController::kTimerLine);
  }
  EXPECT_FALSE(ep->abort.valid);
  for (TcbObj* s : senders) {
    EXPECT_EQ(s->state, ThreadState::kRestart);
  }
  sys.kernel().CheckInvariants();
}

TEST(MintTest, BadgedCopyBecomesChild) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeMint;
  args.arg0 = ep_cptr;
  args.dest_index = 99;
  args.badge = 0x42;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  ASSERT_EQ(t->last_error, KError::kOk);
  const CapSlot& minted = sys.root()->slots[99];
  ASSERT_FALSE(minted.IsNull());
  EXPECT_EQ(minted.cap.badge, 0x42u);
  EXPECT_EQ(minted.mdb_prev, sys.SlotOf(ep_cptr));
  sys.kernel().CheckInvariants();
}

TEST(MintTest, RebadgingABadgedCapRejected) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  Cap badged = sys.SlotOf(ep_cptr)->cap;
  badged.badge = 7;
  const std::uint32_t badged_cptr = sys.AddCap(badged, sys.SlotOf(ep_cptr));
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeMint;
  args.arg0 = badged_cptr;
  args.dest_index = 99;
  args.badge = 0x42;  // different badge: unforgeability would break
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  EXPECT_EQ(t->last_error, KError::kInvalidArg);
  EXPECT_TRUE(sys.root()->slots[99].IsNull());
}

TEST(DeleteTest, TcbDeleteDequeuesFromEndpointAndScheduler) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  sys.AddEndpoint(&ep);
  TcbObj* victim = sys.AddThread(30);
  sys.kernel().DirectBlockOnSend(victim, ep, 1);
  Cap tcb_cap;
  tcb_cap.type = ObjType::kTcb;
  tcb_cap.obj = victim->base;
  const std::uint32_t victim_cptr = sys.AddCap(tcb_cap);
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = victim_cptr & 0xFF;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  EXPECT_EQ(sys.kernel().objects().Get<TcbObj>(tcb_cap.obj), nullptr);
  EXPECT_EQ(ep->q_len, 0u);
  sys.kernel().CheckInvariants();
}

TEST(InvariantSweepTest, PreemptedOpsKeepInvariantsAtEveryPoint) {
  // Incremental consistency (Section 2.1): at EVERY preemption of a long
  // operation, the whole-kernel invariants hold.
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  const Addr ep_base = ep->base;  // |ep| is freed by the delete
  sys.QueueSenders(ep, 40, {3, 5});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  const std::uint32_t root_cptr = CNodeCptrFor(sys);
  sys.machine().timer().set_period(2000);
  sys.machine().timer().Restart(sys.machine().Now());
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = ep_cptr & 0xFF;
  std::uint32_t preemptions = 0;
  for (;;) {
    const KernelExit e = sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
    ASSERT_NO_THROW(sys.kernel().CheckInvariants()) << "after preemption " << preemptions;
    if (e != KernelExit::kPreempted) {
      break;
    }
    preemptions++;
    sys.machine().irq().Unmask(InterruptController::kTimerLine);
  }
  sys.machine().timer().set_period(0);
  EXPECT_GT(preemptions, 3u);
  EXPECT_EQ(sys.kernel().objects().Get<EndpointObj>(ep_base), nullptr);
}

}  // namespace
}  // namespace pmk

namespace pmk {
namespace {

TEST(RetypeTest, MultiObjectRetypeCreatesContiguousBatch) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  UntypedObj* ut = nullptr;
  const std::uint32_t ut_cptr = sys.AddUntyped(16, &ut);
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kEndpoint;
  args.obj_count = 5;
  args.dest_index = 80;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, args), KernelExit::kDone);
  ASSERT_EQ(t->last_error, KError::kOk);
  Addr prev = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    const CapSlot& slot = sys.root()->slots[80 + i];
    ASSERT_FALSE(slot.IsNull()) << i;
    EXPECT_EQ(slot.cap.type, ObjType::kEndpoint);
    EXPECT_NE(sys.kernel().objects().Get<EndpointObj>(slot.cap.obj), nullptr);
    EXPECT_EQ(slot.mdb_depth, sys.SlotOf(ut_cptr)->mdb_depth + 1);
    if (i > 0) {
      EXPECT_EQ(slot.cap.obj, prev + 16);  // contiguous 16-byte endpoints
    }
    prev = slot.cap.obj;
  }
  EXPECT_EQ(ut->watermark, ut->base + 5 * 16);
  sys.kernel().CheckInvariants();
}

TEST(RetypeTest, MultiObjectRetypeRejectsOccupiedDest) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(16);
  EndpointObj* blocker = nullptr;
  sys.AddEndpoint(&blocker);
  Cap c;
  c.type = ObjType::kEndpoint;
  c.obj = blocker->base;
  sys.kernel().DirectCap(sys.root(), 82, c);  // occupies the middle slot
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kEndpoint;
  args.obj_count = 5;
  args.dest_index = 80;
  sys.kernel().Syscall(SysOp::kCall, ut_cptr, args);
  EXPECT_EQ(t->last_error, KError::kInvalidArg);
  EXPECT_TRUE(sys.root()->slots[80].IsNull());  // nothing partially created
  EXPECT_TRUE(sys.root()->slots[81].IsNull());
  sys.kernel().CheckInvariants();
}

TEST(RetypeTest, BatchSizeBoundedByClosedSystemLimit) {
  // The batch shares the single-object size budget so the clearing loop's
  // analysis bound stays count-independent.
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  const std::uint32_t ut_cptr = sys.AddUntyped(23);
  sys.kernel().DirectSetCurrent(t);
  SyscallArgs args;
  args.label = InvLabel::kUntypedRetype;
  args.obj_type = ObjType::kFrame;
  args.obj_bits = 18;  // 4 x 256 KiB = 1 MiB > the 512 KiB batch budget
  args.obj_count = 4;
  args.dest_index = 80;
  sys.kernel().Syscall(SysOp::kCall, ut_cptr, args);
  EXPECT_EQ(t->last_error, KError::kInvalidArg);
  args.obj_count = 2;  // exactly the budget
  sys.kernel().Syscall(SysOp::kCall, ut_cptr, args);
  EXPECT_EQ(t->last_error, KError::kOk);
}

TEST(CopyMoveTest, CopyPreservesBadgeAsSibling) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  Cap badged = sys.SlotOf(ep_cptr)->cap;
  badged.badge = 33;
  const std::uint32_t badged_cptr = sys.AddCap(badged, sys.SlotOf(ep_cptr));
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t root_cptr = sys.AddCap(root_cap);
  SyscallArgs args;
  args.label = InvLabel::kCNodeCopy;
  args.arg0 = badged_cptr;
  args.dest_index = 120;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  ASSERT_EQ(t->last_error, KError::kOk);
  const CapSlot& copy = sys.root()->slots[120];
  ASSERT_FALSE(copy.IsNull());
  EXPECT_EQ(copy.cap.badge, 33u);  // badge preserved, no re-badging
  EXPECT_EQ(copy.mdb_depth, sys.SlotOf(badged_cptr)->mdb_depth);  // sibling
  sys.kernel().CheckInvariants();
}

TEST(CopyMoveTest, MoveTransfersSlotAndClearsSource) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t root_cptr = sys.AddCap(root_cap);
  SyscallArgs args;
  args.label = InvLabel::kCNodeMove;
  args.arg0 = ep_cptr;
  args.dest_index = 121;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  ASSERT_EQ(t->last_error, KError::kOk);
  EXPECT_TRUE(sys.SlotOf(ep_cptr)->IsNull());
  const CapSlot& moved = sys.root()->slots[121];
  ASSERT_FALSE(moved.IsNull());
  EXPECT_EQ(moved.cap.obj, ep->base);
  // The moved cap is still final: deleting it destroys the endpoint.
  EXPECT_TRUE(Mdb::IsFinal(&moved));
  sys.kernel().CheckInvariants();
}

TEST(CopyMoveTest, MovePreservesDescendants) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  Cap badged = sys.SlotOf(ep_cptr)->cap;
  badged.badge = 5;
  const std::uint32_t child_cptr = sys.AddCap(badged, sys.SlotOf(ep_cptr));
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);

  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t root_cptr = sys.AddCap(root_cap);
  SyscallArgs args;
  args.label = InvLabel::kCNodeMove;
  args.arg0 = ep_cptr;
  args.dest_index = 122;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  ASSERT_EQ(t->last_error, KError::kOk);
  const CapSlot& moved = sys.root()->slots[122];
  EXPECT_TRUE(Mdb::HasChildren(&moved));
  EXPECT_EQ(Mdb::FirstDescendant(&moved), sys.SlotOf(child_cptr));
  sys.kernel().CheckInvariants();
}

}  // namespace
}  // namespace pmk
