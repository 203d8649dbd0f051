// Fault-injection tests for the dynamic invariant checker: deliberately
// corrupt each class of kernel state the seL4 proof protects (Section 2.2)
// and assert the checker catches it. The checker is our stand-in for the
// formal invariants, so IT must be tested too.

#include <gtest/gtest.h>

#include <string>

#include "src/sim/workload.h"

namespace pmk {

// Befriended by Kernel: lets the fault-injection tests reach private
// scheduler state.
class KernelTestPeer {
 public:
  static void SetBitmapBit(Kernel& k, std::uint8_t prio) { k.BitmapSet(prio); }
};

namespace {

struct Rig {
  Rig() : sys(KernelConfig::After(), EvalMachine(false)) {
    a = sys.AddThread(10);
    b = sys.AddThread(20);
    sys.AddEndpoint(&ep);
    sys.kernel().DirectResume(a);
    sys.kernel().DirectResume(b);
    sys.kernel().DirectSetCurrent(sys.AddThread(5));
  }
  System sys;
  TcbObj* a = nullptr;
  TcbObj* b = nullptr;
  EndpointObj* ep = nullptr;
};

// Expects the audit to reject |sys| with a message containing |what|, so a
// test pins the check it targets rather than any check that happens to fire.
void ExpectViolation(System& sys, const std::string& what) {
  try {
    sys.kernel().CheckInvariants();
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
    return;
  }
  ADD_FAILURE() << "audit passed; expected a violation: " << what;
}

// Allocates three 512-byte TCBs back to back and returns the first one on a
// 1 KiB boundary: grown to 1 KiB it stays aligned but covers the next TCB.
TcbObj* TcbWithAdjacentSuccessor(System& sys) {
  TcbObj* t[3] = {sys.AddThread(1), sys.AddThread(1), sys.AddThread(1)};
  TcbObj* grow = t[0]->base % 1024 == 0 ? t[0] : t[1];
  EXPECT_EQ(sys.kernel().objects().Find(grow->End()), grow == t[0] ? t[1] : t[2]);
  return grow;
}

TEST(InvariantFaultTest, CleanSystemPasses) {
  Rig r;
  EXPECT_NO_THROW(r.sys.kernel().CheckInvariants());
}

TEST(InvariantFaultTest, DetectsBlockedThreadInRunQueue) {
  Rig r;
  r.a->state = ThreadState::kBlockedOnSend;  // still queued: Benno violation
  r.a->blocked_on = r.ep->base;
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsBrokenRunQueueBackPointer) {
  Rig r;
  r.a->sched_prev = r.b;  // bogus
  r.b->sched_prev = r.a;
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsWrongPriorityQueue) {
  Rig r;
  r.a->prio = 99;  // queued at 10, claims 99
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsStaleBitmapBit) {
  Rig r;
  KernelTestPeer::SetBitmapBit(r.sys.kernel(), 77);
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsRunnableThreadLost) {
  Rig r;
  // Runnable, flagged unqueued, not current: unreachable by the scheduler.
  r.sys.kernel().DirectUnblock(r.a);
  // Corrupt: drop it from the queue without updating state.
  while (r.a->in_run_queue) {
    // Simulate corruption by clearing the flag only.
    r.a->in_run_queue = false;
  }
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsEndpointQueueCycle) {
  Rig r;
  TcbObj* s1 = r.sys.AddThread(10);
  TcbObj* s2 = r.sys.AddThread(10);
  r.sys.kernel().DirectBlockOnSend(s1, r.ep, 1);
  r.sys.kernel().DirectBlockOnSend(s2, r.ep, 2);
  s2->ep_next = s1;  // cycle
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsQueueLengthMismatch) {
  Rig r;
  TcbObj* s1 = r.sys.AddThread(10);
  r.sys.kernel().DirectBlockOnSend(s1, r.ep, 1);
  r.ep->q_len = 7;
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsWrongQueueStateMember) {
  Rig r;
  TcbObj* s1 = r.sys.AddThread(10);
  r.sys.kernel().DirectBlockOnSend(s1, r.ep, 1);
  s1->state = ThreadState::kBlockedOnRecv;  // on a SEND queue
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsIdleEndpointWithWaiters) {
  Rig r;
  TcbObj* s1 = r.sys.AddThread(10);
  r.sys.kernel().DirectBlockOnSend(s1, r.ep, 1);
  r.ep->qstate = EndpointObj::QState::kIdle;
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsCapToDeadObject) {
  Rig r;
  EndpointObj* doomed = nullptr;
  r.sys.AddEndpoint(&doomed);
  r.sys.kernel().objects().Remove(doomed->base);  // object gone, cap remains
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsBrokenMdbLink) {
  Rig r;
  EndpointObj* e2 = nullptr;
  const std::uint32_t c1 = r.sys.AddEndpoint(&e2);
  CapSlot* s1 = r.sys.SlotOf(c1);
  Cap copy = s1->cap;
  r.sys.AddCap(copy, s1);
  s1->mdb_next = nullptr;  // sever the forward link only
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsShadowBackPointerMismatch) {
  KernelConfig kc = KernelConfig::After();
  System sys(kc, EvalMachine(false));
  PageDirObj* pd = sys.kernel().DirectPageDir();
  PageTableObj* pt = sys.kernel().DirectPageTable();
  Cap pt_cap;
  pt_cap.type = ObjType::kPageTable;
  pt_cap.obj = pt->base;
  CapSlot* pt_slot = sys.kernel().DirectCap(sys.root(), 100, pt_cap);
  sys.kernel().DirectMapPageTable(pd, 16, pt, pt_slot);
  FrameObj* f = sys.kernel().DirectFrame(12);
  Cap fc;
  fc.type = ObjType::kFrame;
  fc.obj = f->base;
  CapSlot* fs = sys.kernel().DirectCap(sys.root(), 101, fc);
  sys.kernel().DirectMapFrame(pd, (Addr{16} << 20) | (3 << 12), f, fs);
  EXPECT_NO_THROW(sys.kernel().CheckInvariants());
  pt->shadow[3] = nullptr;  // dangling mapping without back-pointer
  EXPECT_THROW(sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsLowestMappedAboveLiveEntry) {
  System sys(KernelConfig::After(), EvalMachine(false));
  PageDirObj* pd = sys.kernel().DirectPageDir();
  PageTableObj* pt = sys.kernel().DirectPageTable();
  Cap pt_cap;
  pt_cap.type = ObjType::kPageTable;
  pt_cap.obj = pt->base;
  CapSlot* pt_slot = sys.kernel().DirectCap(sys.root(), 100, pt_cap);
  sys.kernel().DirectMapPageTable(pd, 16, pt, pt_slot);
  FrameObj* f = sys.kernel().DirectFrame(12);
  Cap fc;
  fc.type = ObjType::kFrame;
  fc.obj = f->base;
  CapSlot* fs = sys.kernel().DirectCap(sys.root(), 101, fc);
  sys.kernel().DirectMapFrame(pd, (Addr{16} << 20) | (3 << 12), f, fs);
  pt->lowest_mapped = 9;  // claims nothing below 9 while entry 3 is live
  EXPECT_THROW(sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsWatermarkOutsideRegion) {
  Rig r;
  UntypedObj* ut = nullptr;
  r.sys.AddUntyped(12, &ut);
  ut->watermark = ut->End() + 64;
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsBlockedCurrentThread) {
  Rig r;
  r.sys.kernel().current()->state = ThreadState::kBlockedOnSend;
  r.sys.kernel().current()->blocked_on = r.ep->base;
  EXPECT_THROW(r.sys.kernel().CheckInvariants(), std::logic_error);
}

TEST(InvariantFaultTest, DetectsRunQueueCycleAtOnePriority) {
  Rig r;
  TcbObj* c = r.sys.AddThread(10);
  r.sys.kernel().DirectResume(c);  // prio 10 queue: a, c
  ASSERT_EQ(r.a->sched_next, c);
  c->sched_next = r.a;  // back to the head: the walk would never end
  ExpectViolation(r.sys, "run queue back-pointer broken at prio 10");
}

TEST(InvariantFaultTest, DetectsFlaggedThreadInNoQueue) {
  Rig r;
  TcbObj* t = r.sys.AddThread(30);  // inactive, in no queue
  t->in_run_queue = true;
  ExpectViolation(r.sys, "in_run_queue flag disagrees with queue membership");
}

TEST(InvariantFaultTest, DetectsBadgedAbortResumeOutsideQueue) {
  Rig r;
  TcbObj* s1 = r.sys.AddThread(10);
  r.sys.kernel().DirectBlockOnSend(s1, r.ep, 1);
  r.ep->abort.valid = true;
  r.ep->abort.badge = 1;
  r.ep->abort.resume = s1;  // in the queue: a consistent abort
  EXPECT_NO_THROW(r.sys.kernel().CheckInvariants());
  r.ep->abort.resume = r.a;  // on the run queue, not this endpoint's
  ExpectViolation(r.sys, "badged-abort resume pointer not in endpoint queue");
}

TEST(InvariantFaultTest, DetectsOverlappingObjects) {
  Rig r;
  TcbObj* grown = TcbWithAdjacentSuccessor(r.sys);
  EXPECT_NO_THROW(r.sys.kernel().CheckInvariants());
  grown->size_bits = 10;  // still aligned, now covers its successor
  ExpectViolation(r.sys, "object overlaps its predecessor");
}

TEST(InvariantFaultTest, DetectsMisalignedObject) {
  Rig r;
  TcbObj* grown = TcbWithAdjacentSuccessor(r.sys);
  TcbObj* odd = r.sys.kernel().objects().Get<TcbObj>(grown->End());
  ASSERT_NE(odd, nullptr);
  odd->size_bits = 10;  // a 1 KiB object on a 512-byte boundary
  ExpectViolation(r.sys, "object misaligned");
}

TEST(InvariantFaultTest, CloneRejectsOverlappingHeap) {
  // Kernel::Clone copies every object through ObjectTable::Insert's
  // placement checks, so a corrupt heap cannot be forked.
  Rig r;
  TcbWithAdjacentSuccessor(r.sys)->size_bits = 10;
  EXPECT_THROW(r.sys.Clone(), std::logic_error);
}

}  // namespace
}  // namespace pmk
