// The protected microkernel runtime.
//
// A functional seL4-like kernel whose charged code paths mirror the kernel
// image (src/kernel/image.cc) block for block: every kernel function
// announces the basic blocks it passes through to the kir executor, which
// charges instruction fetches, data accesses and branches to the machine
// model and validates the path against the declared CFG.
//
// Two API layers:
//  - Direct* methods build system state without charging cycles (the state a
//    measurement run starts from);
//  - kernel entries (Syscall / HandleIrqEntry / RaisePageFault /
//    RaiseUndefined) are the four analyzed exception vectors and charge every
//    cycle, including preemption-point checks and restartable-syscall
//    behaviour.
//
// Deliberate simplifications vs. real seL4 (documented in DESIGN.md):
// object invocations address some auxiliary objects (page directories,
// notification endpoints) by kernel address rather than by a second
// capability lookup; message payload beyond 8 words is charged but not
// stored; CNode deletion does not recursively delete contained caps.

#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/hw/machine.h"
#include "src/kernel/cap.h"
#include "src/kernel/config.h"
#include "src/kernel/image.h"
#include "src/kernel/objects.h"
#include "src/kernel/types.h"
#include "src/kir/executor.h"

namespace pmk {

struct SyscallArgs {
  std::uint32_t msg_len = 0;
  std::array<std::uint32_t, KernelConfig::kMaxExtraCaps> extra_caps{};
  std::uint32_t n_extra = 0;

  InvLabel label = InvLabel::kNone;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  std::uint64_t arg2 = 0;

  // Retype / Mint / Copy / Move.
  ObjType obj_type = ObjType::kNull;
  std::uint8_t obj_bits = 0;
  std::uint32_t obj_count = 1;  // objects per retype (contiguous dest slots)
  std::uint32_t dest_index = 0;
  std::uint64_t badge = 0;
};

class Kernel {
 public:
  Kernel(const KernelConfig& config, Machine* machine);

  // ---------- Snapshot support (src/engine checkpointing) ----------

  // Deep-copies the whole kernel state — object heap (with every intrusive
  // pointer remapped into the cloned heap), scheduler queues and bitmaps,
  // current/idle threads, pending scheduler action, IRQ bindings, latency
  // samples — onto |machine|, which must itself be a copy of this kernel's
  // machine. The immutable kernel image is shared, not rebuilt: that is what
  // makes forking a checkpoint orders of magnitude cheaper than booting a
  // fresh System. Must be called between kernel entries (the executor must
  // not be mid-path). Trace sinks and fault hooks are NOT carried over; the
  // clone starts unobserved.
  std::unique_ptr<Kernel> Clone(Machine* machine) const;

  // ---------- Direct (uncharged) system construction ----------

  // Bump-allocates |size| bytes of aligned physical memory for direct setup.
  Addr DirectAlloc(std::uint64_t size);

  UntypedObj* DirectUntyped(std::uint8_t size_bits);
  CNodeObj* DirectCNode(std::uint8_t radix_bits, std::uint8_t guard_bits,
                        std::uint32_t guard_value);
  TcbObj* DirectTcb(std::uint8_t prio, CNodeObj* cspace);
  EndpointObj* DirectEndpoint();
  FrameObj* DirectFrame(std::uint8_t size_bits);
  PageTableObj* DirectPageTable();
  PageDirObj* DirectPageDir();
  AsidPoolObj* DirectAsidPool();
  IrqHandlerObj* DirectIrqHandler(std::uint32_t line);

  // Installs |cap| in |cn|[index]; MDB-links it under |parent| (a derived
  // child) or as a root cap when |parent| is null.
  CapSlot* DirectCap(CNodeObj* cn, std::uint32_t index, Cap cap, CapSlot* parent = nullptr);

  // Makes |t| runnable and enqueues it.
  void DirectResume(TcbObj* t);
  // Blocks |t| on |ep|'s send or receive queue (for building deep queues).
  // |leave_in_run_queue| reproduces lazy scheduling's stale entries.
  void DirectBlockOnSend(TcbObj* t, EndpointObj* ep, std::uint64_t badge,
                         bool is_call = false, bool leave_in_run_queue = false);
  void DirectBlockOnRecv(TcbObj* t, EndpointObj* ep);
  // Pulls |t| off whatever endpoint queue it blocks on and makes it runnable.
  void DirectUnblock(TcbObj* t);
  void DirectSetCurrent(TcbObj* t);
  void DirectBindIrq(std::uint32_t line, EndpointObj* ep);
  // Uncharged frame/pt mapping for scenario setup.
  void DirectMapPageTable(PageDirObj* pd, std::uint32_t pd_index, PageTableObj* pt,
                          CapSlot* pt_slot);
  void DirectMapFrame(PageDirObj* pd, Addr vaddr, FrameObj* frame, CapSlot* frame_slot);
  // ASID-variant pool registration.
  void DirectRegisterAsidPool(AsidPoolObj* pool);
  void DirectAssignAsid(PageDirObj* pd);

  // ---------- Kernel entries (charged; the analyzed exception vectors) ----------

  // Current thread performs |op| on |cptr|. On kPreempted the operation was
  // interrupted at a preemption point and the caller must re-issue the same
  // syscall when the thread next runs (restartable system calls).
  KernelExit Syscall(SysOp op, std::uint32_t cptr, const SyscallArgs& args);

  // IRQ exception while the current thread runs in userland.
  KernelExit HandleIrqEntry();

  // Page fault / undefined instruction of the current thread.
  KernelExit RaisePageFault();
  KernelExit RaiseUndefined();

  // ---------- Cache pinning (Section 4) ----------

  // Pins the interrupt-delivery path and hot data into kL1PinnedWays ways of
  // both L1 caches (SelectPinnedLines).
  void ApplyCachePinning();

  // Locks the ENTIRE kernel (text, data, stack) into kL2PinnedWays ways of
  // the L2 cache — the paper's future-work option (Sections 4, 6.4, 8): the
  // kernel fits comfortably into the 128 KiB L2. Requires the L2 enabled.
  // Returns the number of L2 lines pinned.
  std::size_t ApplyL2KernelPinning();

  // ---------- Invariants (Section 2.2) ----------

  // Throws std::logic_error with a description on any violated invariant.
  void CheckInvariants() const;

  // ---------- Accessors ----------

  const KernelConfig& config() const { return config_; }
  const KernelImage& image() const { return *image_; }
  Executor& exec() { return exec_; }
  Machine& machine() { return *machine_; }
  ObjectTable& objects() { return objs_; }
  TcbObj* current() const { return current_; }
  TcbObj* idle() const { return idle_; }
  EndpointObj* irq_binding(std::uint32_t line) const;

  const std::vector<Cycles>& irq_latencies() const { return irq_latencies_; }
  void ClearIrqLatencies() { irq_latencies_.clear(); }
  std::uint64_t fastpath_hits() const { return fastpath_hits_; }

  // Scheduler introspection for tests.
  TcbObj* queue_head(std::uint8_t prio) const { return queues_[prio].head; }
  std::uint32_t bitmap_l1() const { return bitmap_l1_; }
  std::uint32_t bitmap_l2(std::uint32_t bucket) const { return bitmap_l2_[bucket]; }

 private:
  friend class KernelTestPeer;

  // Clone constructor (snapshot.cc): shares |other|'s immutable image and
  // copies all scalar state; the object heap is deep-copied by Clone().
  struct CloneTag {};
  Kernel(CloneTag, const Kernel& other, Machine* machine);

  // Shorthand: announce a block.
  void x(BlockId id) { exec_.At(id); }
  void T(Addr addr, bool write = false) { exec_.Touch(addr, write); }
  // Batched strided touches (clear loops): one executor call per chunk.
  void TRun(Addr base, std::uint32_t count, std::uint32_t stride, bool write = false) {
    exec_.TouchRun(base, count, stride, write);
  }
  const KernelBlocks& b() const { return image_->b; }

  static bool Runnable(const TcbObj* t) {
    return t->state == ThreadState::kRunning || t->state == ThreadState::kRestart;
  }

  // ----- scheduler (sched.cc) -----
  struct RunQueue {
    TcbObj* head = nullptr;
    TcbObj* tail = nullptr;
  };
  // Functional queue primitives (uncharged).
  void QueuePushBack(TcbObj* t);
  void QueueRemove(TcbObj* t);
  void BitmapSet(std::uint8_t prio);
  void BitmapClearIfEmpty(std::uint8_t prio);
  int HighestBitmapPrio() const;
  // Charged scheduler operations. Under Benno scheduling the running thread
  // stays out of the run queue; only the scheduler itself (requeue-on-
  // preemption, yield) may enqueue it, via |allow_current|.
  void SchedEnqueue(TcbObj* t, bool allow_current = false);
  void SchedDequeue(TcbObj* t);
  TcbObj* ChooseThread();
  void AttemptSwitch(TcbObj* woken);
  void ScheduleImpl();
  void SwitchTo(TcbObj* t);

  // ----- IPC (ipc.cc) -----
  void EpEnqueue(EndpointObj* ep, TcbObj* t, EndpointObj::QState as);
  void EpRemove(EndpointObj* ep, TcbObj* t);
  OpStatus DoTransfer(TcbObj* from, TcbObj* to, std::uint32_t msg_len,
                      const SyscallArgs& args, bool grant);
  OpStatus IpcSend(EndpointObj* ep, const Cap& ep_cap, bool is_call, const SyscallArgs& args);
  OpStatus IpcRecv(EndpointObj* ep, const SyscallArgs& args);
  void DoReply(const SyscallArgs& args);
  bool Fastpath(std::uint32_t cptr, const SyscallArgs& args);
  void NotifyEp(EndpointObj* ep, std::uint64_t badge);
  void HandleInterruptImpl();

  // ----- syscall dispatch (kernel.cc) -----
  CapSlot* DecodeCap(TcbObj* t, std::uint32_t cptr);
  OpStatus HandleCall(std::uint32_t cptr, const SyscallArgs& args);
  OpStatus HandleSend(std::uint32_t cptr, const SyscallArgs& args);
  OpStatus HandleRecv(std::uint32_t cptr, const SyscallArgs& args);
  OpStatus HandleReplyRecv(std::uint32_t cptr, const SyscallArgs& args);
  OpStatus HandleYield();
  OpStatus Invoke(CapSlot* slot, const SyscallArgs& args);

  // ----- object operations (objops.cc) -----
  OpStatus UntypedRetype(CapSlot* ut_slot, const SyscallArgs& args);
  OpStatus CNodeDelete(CapSlot* cn_slot, const SyscallArgs& args);
  OpStatus CNodeRevoke(CapSlot* cn_slot, const SyscallArgs& args);
  OpStatus CNodeMint(CapSlot* cn_slot, const SyscallArgs& args);
  OpStatus CapDelete(CapSlot* slot);
  OpStatus DestroyObject(CapSlot* slot);
  OpStatus EpCancelAll(EndpointObj* ep);
  OpStatus EpCancelBadged(EndpointObj* ep, std::uint64_t badge);
  OpStatus TcbInvoke(CapSlot* slot, const SyscallArgs& args);
  OpStatus IrqInvoke(CapSlot* slot, const SyscallArgs& args);
  // Inserts a new |type| object at |base| with its creation-time state (an
  // untyped's watermark, a CNode's slots, a TCB's timeslice, a page
  // directory's global mappings); boot and retype alike.
  KObject* CreateObject(ObjType type, Addr base, std::uint8_t size_bits, std::uint8_t user_bits);
  // CreateObject at the next free direct-setup address (|user_bits| as for
  // ObjSizeBits).
  template <typename T>
  T* DirectObject(std::uint8_t user_bits = 0);

  // ----- address spaces (vspace.cc) -----
  OpStatus FrameMap(CapSlot* frame_slot, const SyscallArgs& args);
  OpStatus FrameUnmap(CapSlot* frame_slot);
  OpStatus PtMap(CapSlot* pt_slot, const SyscallArgs& args);
  OpStatus PtDelete(PageTableObj* pt);
  OpStatus PdDelete(PageDirObj* pd);
  OpStatus AsidPoolDelete(AsidPoolObj* pool);
  bool AsidAlloc(PageDirObj* pd);  // charged; true on success

  bool PreemptPending() const;

  // ----- state -----
  KernelConfig config_;
  Machine* machine_;
  // Shared, immutable after construction: clones of this kernel (and the
  // WCET analyzer) read the same image concurrently from worker threads.
  std::shared_ptr<const KernelImage> image_;
  Executor exec_;
  ObjectTable objs_;

  Addr alloc_next_;  // direct-setup bump allocator

  std::array<RunQueue, KernelConfig::kNumPriorities> queues_{};
  std::uint32_t bitmap_l1_ = 0;
  std::array<std::uint32_t, 8> bitmap_l2_{};

  TcbObj* current_ = nullptr;
  TcbObj* idle_ = nullptr;
  std::unique_ptr<TcbObj> idle_storage_;

  // Scheduler action: nullptr + choose_new_=false => resume current.
  TcbObj* sched_action_ = nullptr;
  bool choose_new_ = false;

  std::array<Addr, InterruptController::kNumLines> irq_bindings_{};

  // ASID variant: registered pool (a single pool suffices for the modelled
  // 18-bit space's first 1024 entries).
  Addr asid_pool_ = 0;

  std::vector<Cycles> irq_latencies_;
  std::uint64_t fastpath_hits_ = 0;
};

}  // namespace pmk

#endif  // SRC_KERNEL_KERNEL_H_
