#include "src/kernel/kernel.h"

#include <cassert>
#include <stdexcept>

#include "src/kernel/error.h"
#include "src/obs/trace_sink.h"

namespace pmk {

namespace {
// Physical memory available for direct-setup objects (above the kernel).
constexpr Addr kUserMemBase = 0x0100'0000;
constexpr Addr kUserMemEnd = 0x0800'0000;  // 128 MiB board

Addr AlignUp(Addr a, Addr align) { return (a + align - 1) & ~(align - 1); }
}  // namespace

Kernel::Kernel(const KernelConfig& config, Machine* machine)
    : config_(config),
      machine_(machine),
      image_(SharedKernelImage(config)),
      exec_(&image_->prog, machine),
      alloc_next_(kUserMemBase) {
  // The idle thread is not an allocated kernel object; it exists from boot.
  idle_storage_ = std::make_unique<TcbObj>();
  idle_storage_->type = ObjType::kTcb;
  idle_storage_->base = 0;
  idle_storage_->size_bits = 9;
  idle_storage_->state = ThreadState::kIdle;
  idle_ = idle_storage_.get();
  current_ = idle_;
}

// ---------- Direct (uncharged) construction ----------

Addr Kernel::DirectAlloc(std::uint64_t size) {
  Addr a = AlignUp(alloc_next_, size);
  if (a + size > kUserMemEnd) {
    throw KernelError(KernelFault::kOutOfPhysicalMemory,
                      "DirectAlloc: out of modelled physical memory");
  }
  alloc_next_ = a + size;
  return a;
}

template <typename T>
T* Kernel::DirectObject(std::uint8_t user_bits) {
  const std::uint8_t bits = ObjSizeBits(T::kType, user_bits, config_);
  return static_cast<T*>(
      CreateObject(T::kType, DirectAlloc(std::uint64_t{1} << bits), bits, user_bits));
}

UntypedObj* Kernel::DirectUntyped(std::uint8_t size_bits) {
  return DirectObject<UntypedObj>(size_bits);
}

CNodeObj* Kernel::DirectCNode(std::uint8_t radix_bits, std::uint8_t guard_bits,
                              std::uint32_t guard_value) {
  auto* cn = DirectObject<CNodeObj>(radix_bits);
  cn->guard_bits = guard_bits;
  cn->guard_value = guard_value;
  return cn;
}

TcbObj* Kernel::DirectTcb(std::uint8_t prio, CNodeObj* cspace) {
  auto* t = DirectObject<TcbObj>();
  t->prio = prio;
  t->cspace_root = cspace != nullptr ? cspace->base : 0;
  return t;
}

EndpointObj* Kernel::DirectEndpoint() {
  return DirectObject<EndpointObj>();
}

FrameObj* Kernel::DirectFrame(std::uint8_t size_bits) {
  return DirectObject<FrameObj>(size_bits);
}

PageTableObj* Kernel::DirectPageTable() {
  return DirectObject<PageTableObj>();
}

PageDirObj* Kernel::DirectPageDir() {
  return DirectObject<PageDirObj>();
}

AsidPoolObj* Kernel::DirectAsidPool() {
  return DirectObject<AsidPoolObj>();
}

IrqHandlerObj* Kernel::DirectIrqHandler(std::uint32_t line) {
  auto* h = DirectObject<IrqHandlerObj>();
  h->line = line;
  return h;
}

CapSlot* Kernel::DirectCap(CNodeObj* cn, std::uint32_t index, Cap cap, CapSlot* parent) {
  if (index >= cn->NumSlots()) {
    throw KernelError(KernelFault::kCapIndexOutOfRange, "DirectCap: index out of range");
  }
  CapSlot* slot = &cn->slots[index];
  if (!slot->IsNull()) {
    throw KernelError(KernelFault::kCapSlotOccupied, "DirectCap: slot occupied");
  }
  slot->cap = cap;
  if (parent != nullptr) {
    Mdb::InsertChild(parent, slot);
  }
  return slot;
}

void Kernel::DirectResume(TcbObj* t) {
  t->state = ThreadState::kRunning;
  if (!t->in_run_queue && t != current_) {
    QueuePushBack(t);
  }
}

void Kernel::DirectBlockOnSend(TcbObj* t, EndpointObj* ep, std::uint64_t badge, bool is_call,
                               bool leave_in_run_queue) {
  if (t->in_run_queue && !leave_in_run_queue) {
    QueueRemove(t);
  }
  t->state = ThreadState::kBlockedOnSend;
  t->blocked_badge = badge;
  t->blocked_is_call = is_call;
  EpEnqueue(ep, t, EndpointObj::QState::kSend);
}

void Kernel::DirectBlockOnRecv(TcbObj* t, EndpointObj* ep) {
  if (t->in_run_queue) {
    QueueRemove(t);
  }
  t->state = ThreadState::kBlockedOnRecv;
  EpEnqueue(ep, t, EndpointObj::QState::kRecv);
}

void Kernel::DirectUnblock(TcbObj* t) {
  if (t->blocked_on != 0) {
    EndpointObj* ep = objs_.Get<EndpointObj>(t->blocked_on);
    if (ep != nullptr) {
      EpRemove(ep, t);
    }
  }
  t->state = ThreadState::kRunning;
  if (!t->in_run_queue && t != current_) {
    QueuePushBack(t);
  }
}

void Kernel::DirectSetCurrent(TcbObj* t) {
  // Keep the outgoing thread schedulable (Benno keeps current off-queue).
  if (current_ != nullptr && current_ != idle_ && current_ != t && Runnable(current_) &&
      !current_->in_run_queue) {
    QueuePushBack(current_);
  }
  if (t->in_run_queue && config_.scheduler == SchedulerKind::kBenno) {
    QueueRemove(t);
  }
  t->state = ThreadState::kRunning;
  current_ = t;
  // Lazy scheduling keeps the running thread in its run queue.
  if (config_.scheduler == SchedulerKind::kLazy && !t->in_run_queue) {
    QueuePushBack(t);
  }
}

void Kernel::DirectBindIrq(std::uint32_t line, EndpointObj* ep) {
  if (line >= InterruptController::kNumLines) {
    throw KernelError(KernelFault::kBadIrqLine, "DirectBindIrq: line out of range");
  }
  irq_bindings_[line] = ep != nullptr ? ep->base : 0;
  machine_->irq().Unmask(line);
}

void Kernel::DirectMapPageTable(PageDirObj* pd, std::uint32_t pd_index, PageTableObj* pt,
                                CapSlot* pt_slot) {
  if (pd_index >= PageDirObj::kUserEntries) {
    throw KernelError(KernelFault::kBadDirectMapping,
                      "DirectMapPageTable: index in kernel region");
  }
  pd->pde[pd_index] = pt->base;
  pd->is_section[pd_index] = false;
  pd->shadow[pd_index] = pt_slot;
  pd->mapped_count++;
  pd->lowest_mapped = std::min(pd->lowest_mapped, pd_index);
  pt->mapped_in_pd = true;
  pt->parent_pd = pd->base;
  pt->pd_index = pd_index;
}

void Kernel::DirectMapFrame(PageDirObj* pd, Addr vaddr, FrameObj* frame, CapSlot* frame_slot) {
  const std::uint32_t pd_index = static_cast<std::uint32_t>(vaddr >> 20);
  if (frame->size_bits >= 20) {
    pd->pde[pd_index] = frame->base;
    pd->is_section[pd_index] = true;
    pd->shadow[pd_index] = frame_slot;
    pd->mapped_count++;
    pd->lowest_mapped = std::min(pd->lowest_mapped, pd_index);
  } else {
    PageTableObj* pt = objs_.Get<PageTableObj>(pd->pde[pd_index]);
    if (pt == nullptr || pd->is_section[pd_index]) {
      throw KernelError(KernelFault::kBadDirectMapping, "DirectMapFrame: no page table at vaddr");
    }
    const std::uint32_t pt_index = static_cast<std::uint32_t>((vaddr >> 12) & 0xFF);
    pt->pte[pt_index] = frame->base;
    pt->shadow[pt_index] = frame_slot;
    pt->mapped_count++;
    pt->lowest_mapped = std::min(pt->lowest_mapped, pt_index);
  }
  frame->mapped = true;
  frame->mapped_pd = pd->base;
  frame->vaddr = vaddr;
  if (config_.vspace == VSpaceKind::kAsid) {
    frame->asid = pd->asid;
  }
}

void Kernel::DirectRegisterAsidPool(AsidPoolObj* pool) { asid_pool_ = pool->base; }

void Kernel::DirectAssignAsid(PageDirObj* pd) {
  AsidPoolObj* pool = objs_.Get<AsidPoolObj>(asid_pool_);
  if (pool == nullptr) {
    throw KernelError(KernelFault::kNoAsidPool, "DirectAssignAsid: no ASID pool registered");
  }
  for (std::uint32_t i = 1; i < AsidPoolObj::kEntries; ++i) {
    if (pool->pd[i] == 0) {
      pool->pd[i] = pd->base;
      pd->asid = i;
      return;
    }
  }
  throw KernelError(KernelFault::kAsidPoolExhausted, "DirectAssignAsid: pool exhausted");
}

EndpointObj* Kernel::irq_binding(std::uint32_t line) const {
  return irq_bindings_[line] != 0 ? objs_.Get<EndpointObj>(irq_bindings_[line]) : nullptr;
}

bool Kernel::PreemptPending() const { return machine_->irq().AnyPending(); }

// ---------- Capability decode (Figure 7) ----------

CapSlot* Kernel::DecodeCap(TcbObj* t, std::uint32_t cptr) {
  x(b().dec.entry);
  CNodeObj* cn = objs_.Get<CNodeObj>(t->cspace_root);
  if (cn != nullptr) {
    T(t->base + 16);  // read the cspace root cap out of the TCB
  }
  std::uint32_t bits = 32;
  CapSlot* slot = nullptr;
  bool fail = cn == nullptr;
  while (!fail) {
    x(b().dec.loop);
    T(cn->base);  // CNode header (guard / radix)
    const std::uint32_t level_bits = cn->guard_bits + cn->radix_bits;
    if (level_bits == 0 || level_bits > bits) {
      fail = true;
      break;
    }
    const std::uint32_t guard =
        (cn->guard_bits != 0)
            ? static_cast<std::uint32_t>((cptr >> (bits - cn->guard_bits)) &
                                         ((1ull << cn->guard_bits) - 1))
            : 0;
    if (guard != cn->guard_value) {
      fail = true;
      break;
    }
    const std::uint32_t index = static_cast<std::uint32_t>(
        (cptr >> (bits - level_bits)) & ((1ull << cn->radix_bits) - 1));
    slot = &cn->slots[index];
    T(slot->addr);
    bits -= level_bits;
    if (bits == 0) {
      break;
    }
    if (slot->cap.type != ObjType::kCNode) {
      fail = true;
      break;
    }
    cn = objs_.Get<CNodeObj>(slot->cap.obj);
    if (cn == nullptr) {
      fail = true;
      break;
    }
    // Loop again: taken edge of dec.loop.
  }
  x(b().dec.done);
  if (fail || slot == nullptr || slot->IsNull()) {
    x(b().dec.fail);
    return nullptr;
  }
  T(slot->addr);
  x(b().dec.ok);
  return slot;
}

// ---------- Syscall handlers ----------

OpStatus Kernel::HandleCall(std::uint32_t cptr, const SyscallArgs& args) {
  const auto& h = b().call_h;
  x(h.entry);
  x(h.decode);
  CapSlot* slot = DecodeCap(current_, cptr);
  x(h.chk);
  if (slot == nullptr) {
    x(h.err);
    current_->last_error = KError::kInvalidCap;
    return OpStatus::kDone;
  }
  x(h.type);
  if (slot->cap.type == ObjType::kEndpoint) {
    x(h.ipc);
    EndpointObj* ep = objs_.Get<EndpointObj>(slot->cap.obj);
    const OpStatus st = IpcSend(ep, slot->cap, /*is_call=*/true, args);
    x(h.ret);
    return st;
  }
  x(h.invoke);
  const OpStatus st = Invoke(slot, args);
  x(h.ret);
  return st;
}

OpStatus Kernel::HandleSend(std::uint32_t cptr, const SyscallArgs& args) {
  const auto& h = b().send_h;
  x(h.entry);
  x(h.decode);
  CapSlot* slot = DecodeCap(current_, cptr);
  x(h.chk);
  if (slot == nullptr) {
    x(h.err);
    current_->last_error = KError::kInvalidCap;
    return OpStatus::kDone;
  }
  x(h.type);
  if (slot->cap.type != ObjType::kEndpoint) {
    x(h.err);
    current_->last_error = KError::kInvalidCap;
    return OpStatus::kDone;
  }
  x(h.ipc);
  EndpointObj* ep = objs_.Get<EndpointObj>(slot->cap.obj);
  const OpStatus st = IpcSend(ep, slot->cap, /*is_call=*/false, args);
  x(h.ret);
  return st;
}

OpStatus Kernel::HandleRecv(std::uint32_t cptr, const SyscallArgs& args) {
  const auto& h = b().recv_h;
  x(h.entry);
  x(h.decode);
  CapSlot* slot = DecodeCap(current_, cptr);
  x(h.chk);
  if (slot == nullptr) {
    x(h.err);
    current_->last_error = KError::kInvalidCap;
    return OpStatus::kDone;
  }
  x(h.type);
  if (slot->cap.type != ObjType::kEndpoint) {
    x(h.err);
    current_->last_error = KError::kInvalidCap;
    return OpStatus::kDone;
  }
  x(h.ipc);
  EndpointObj* ep = objs_.Get<EndpointObj>(slot->cap.obj);
  const OpStatus st = IpcRecv(ep, args);
  x(h.ret);
  return st;
}

OpStatus Kernel::HandleReplyRecv(std::uint32_t cptr, const SyscallArgs& args) {
  const auto& h = b().rr_h;
  x(h.entry);
  x(h.reply);
  DoReply(args);
  if (config_.preemptible_send_receive) {
    // Between the send (reply) and receive phases (Sections 6.1, 8). The
    // restarted syscall's reply phase is a no-op (reply_to already cleared),
    // so only the receive phase remains.
    x(h.preempt);
    if (PreemptPending()) {
      x(h.preempted);
      return OpStatus::kPreempted;
    }
  }
  x(h.decode);
  CapSlot* slot = DecodeCap(current_, cptr);
  x(h.chk);
  if (slot == nullptr) {
    x(h.err);
    current_->last_error = KError::kInvalidCap;
    return OpStatus::kDone;
  }
  x(h.type);
  if (slot->cap.type != ObjType::kEndpoint) {
    x(h.err);
    current_->last_error = KError::kInvalidCap;
    return OpStatus::kDone;
  }
  x(h.ipc);
  EndpointObj* ep = objs_.Get<EndpointObj>(slot->cap.obj);
  const OpStatus st = IpcRecv(ep, args);
  x(h.ret);
  return st;
}

OpStatus Kernel::HandleYield() {
  const auto& y = b().yield_h;
  x(y.entry);
  T(current_->base);
  x(y.deq);
  SchedDequeue(current_);
  x(y.enq);
  SchedEnqueue(current_, /*allow_current=*/true);
  choose_new_ = true;
  x(y.ret);
  return OpStatus::kDone;
}

OpStatus Kernel::Invoke(CapSlot* slot, const SyscallArgs& args) {
  const auto& v = b().inv;
  x(v.entry);
  T(slot->addr);

  struct Entry {
    InvLabel label;
    BlockId d;
    BlockId c;
  };
  const Entry table[] = {
      {InvLabel::kUntypedRetype, v.d_retype, v.c_retype},
      {InvLabel::kCNodeDelete, v.d_delete, v.c_delete},
      {InvLabel::kCNodeRevoke, v.d_revoke, v.c_revoke},
      {InvLabel::kCNodeMint, v.d_mint, v.c_mint},
      {InvLabel::kTcbConfigure, v.d_tcb, v.c_tcb},
      {InvLabel::kFrameMap, v.d_frame_map, v.c_frame_map},
      {InvLabel::kFrameUnmap, v.d_frame_unmap, v.c_frame_unmap},
      {InvLabel::kPageTableMap, v.d_pt_map, v.c_pt_map},
      {InvLabel::kIrqSetHandler, v.d_irq, v.c_irq},
  };
  // TCB invocations share one dispatcher slot; IRQ invocations likewise.
  auto canonical = [](InvLabel l) {
    switch (l) {
      case InvLabel::kTcbResume:
      case InvLabel::kTcbSuspend:
      case InvLabel::kTcbSetPriority:
        return InvLabel::kTcbConfigure;
      case InvLabel::kIrqAck:
        return InvLabel::kIrqSetHandler;
      case InvLabel::kCNodeCopy:
      case InvLabel::kCNodeMove:
        return InvLabel::kCNodeMint;  // same code-path shape, different MDB op
      default:
        return l;
    }
  };
  const InvLabel want = canonical(args.label);

  OpStatus st = OpStatus::kDone;
  bool handled = false;
  for (const Entry& e : table) {
    x(e.d);
    if (e.label == want) {
      x(e.c);
      switch (e.label) {
        case InvLabel::kUntypedRetype:
          st = UntypedRetype(slot, args);
          break;
        case InvLabel::kCNodeDelete:
          st = CNodeDelete(slot, args);
          break;
        case InvLabel::kCNodeRevoke:
          st = CNodeRevoke(slot, args);
          break;
        case InvLabel::kCNodeMint:
          st = CNodeMint(slot, args);
          break;
        case InvLabel::kTcbConfigure:
          st = TcbInvoke(slot, args);
          break;
        case InvLabel::kFrameMap:
          st = FrameMap(slot, args);
          break;
        case InvLabel::kFrameUnmap:
          st = FrameUnmap(slot);
          break;
        case InvLabel::kPageTableMap:
          st = PtMap(slot, args);
          break;
        case InvLabel::kIrqSetHandler:
          st = IrqInvoke(slot, args);
          break;
        default:
          break;
      }
      handled = true;
      break;
    }
  }
  if (!handled) {
    x(v.bad);
    current_->last_error = KError::kInvalidArg;
  }
  x(v.ret);
  return st;
}

// ---------- Kernel entries ----------

KernelExit Kernel::Syscall(SysOp op, std::uint32_t cptr, const SyscallArgs& args) {
  const auto& e = b().sys;
  exec_.Begin(e.fn);
  if (TraceSink* sink = exec_.trace_sink()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kSyscallOp;
    ev.cycle = machine_->Now();
    ev.name = SysOpName(op);
    ev.id = static_cast<std::uint32_t>(op);
    ev.arg0 = cptr;
    sink->OnEvent(ev);
  }
  x(e.save);
  T(current_->base, /*write=*/true);
  current_->last_error = KError::kOk;

  // Hostile-argument screening: a real kernel validates the message-info word
  // at entry. Malformed lengths take the bad-op decode chain and surface as
  // KError::kInvalidArg instead of tripping host-level range checks deeper in
  // the transfer loop.
  const bool args_ok = args.msg_len <= KernelConfig::kMaxMsgWords &&
                       args.n_extra <= KernelConfig::kMaxExtraCaps;
  const SysOp eff_op = args_ok ? op : SysOp::kReply;

  if (config_.ipc_fastpath) {
    x(e.fast_check);
    bool eligible = false;
    if (op == SysOp::kCall) {
      // Peek the root CNode + slot: eligible only for one-level cspaces.
      CNodeObj* cn = objs_.Get<CNodeObj>(current_->cspace_root);
      if (cn != nullptr) {
        T(cn->base);
        if (cn->guard_bits + cn->radix_bits == 32) {
          const std::uint32_t index = cptr & ((1u << cn->radix_bits) - 1);
          T(cn->SlotAddr(index));
          eligible = cn->slots[index].cap.type == ObjType::kEndpoint &&
                     args.msg_len <= 4 && args.n_extra == 0;
        }
      }
    }
    if (eligible) {
      x(e.fast_do);
      const bool hit = Fastpath(cptr, args);
      x(e.fast_ok);
      if (hit) {
        x(e.exit);
        T(current_->base);
        exec_.End();
        return KernelExit::kDone;
      }
    }
  }

  OpStatus st = OpStatus::kDone;
  x(e.d_call);
  switch (eff_op) {
    case SysOp::kCall:
      x(e.do_call);
      st = HandleCall(cptr, args);
      break;
    case SysOp::kSend:
      x(e.d_send);
      x(e.do_send);
      st = HandleSend(cptr, args);
      break;
    case SysOp::kRecv:
      x(e.d_send);
      x(e.d_recv);
      x(e.do_recv);
      st = HandleRecv(cptr, args);
      break;
    case SysOp::kReplyRecv:
      x(e.d_send);
      x(e.d_recv);
      x(e.d_replyrecv);
      x(e.do_replyrecv);
      st = HandleReplyRecv(cptr, args);
      break;
    case SysOp::kYield:
      x(e.d_send);
      x(e.d_recv);
      x(e.d_replyrecv);
      x(e.d_yield);
      x(e.do_yield);
      st = HandleYield();
      break;
    case SysOp::kReply:
      x(e.d_send);
      x(e.d_recv);
      x(e.d_replyrecv);
      x(e.d_yield);
      x(e.bad_op);
      current_->last_error = KError::kInvalidArg;
      break;
  }

  x(e.post);
  if (st == OpStatus::kPreempted) {
    x(e.preempted);
    x(e.irq_call);
    HandleInterruptImpl();
  }
  x(e.sched);
  ScheduleImpl();
  x(e.exit);
  T(current_->base);
  exec_.End();
  return st == OpStatus::kPreempted ? KernelExit::kPreempted : KernelExit::kDone;
}

KernelExit Kernel::HandleIrqEntry() {
  const auto& e = b().irq;
  exec_.Begin(e.fn);
  x(e.save);
  T(current_->base, /*write=*/true);
  x(e.handle);
  HandleInterruptImpl();
  x(e.sched);
  ScheduleImpl();
  x(e.exit);
  T(current_->base);
  exec_.End();
  return KernelExit::kDone;
}

KernelExit Kernel::RaisePageFault() {
  const auto& e = b().fault;
  exec_.Begin(e.fn);
  x(e.save);
  T(current_->base, /*write=*/true);
  x(e.lookup);
  CapSlot* slot = DecodeCap(current_, current_->fault_handler_cptr);
  x(e.valid);
  OpStatus st = OpStatus::kDone;
  if (slot != nullptr && slot->cap.type == ObjType::kEndpoint) {
    x(e.send);
    EndpointObj* ep = objs_.Get<EndpointObj>(slot->cap.obj);
    SyscallArgs fault_msg;
    fault_msg.msg_len = 2;  // fault address + status
    st = IpcSend(ep, slot->cap, /*is_call=*/true, fault_msg);
  } else {
    x(e.kill);
    T(current_->base, /*write=*/true);
    current_->state = ThreadState::kInactive;
    choose_new_ = true;
  }
  x(e.post);
  if (st == OpStatus::kPreempted) {
    x(e.preempted);
    x(e.irq_call);
    HandleInterruptImpl();
  }
  x(e.sched);
  ScheduleImpl();
  x(e.exit);
  T(current_->base);
  exec_.End();
  return st == OpStatus::kPreempted ? KernelExit::kPreempted : KernelExit::kDone;
}

KernelExit Kernel::RaiseUndefined() {
  const auto& e = b().undef;
  exec_.Begin(e.fn);
  x(e.save);
  T(current_->base, /*write=*/true);
  x(e.lookup);
  CapSlot* slot = DecodeCap(current_, current_->fault_handler_cptr);
  x(e.valid);
  OpStatus st = OpStatus::kDone;
  if (slot != nullptr && slot->cap.type == ObjType::kEndpoint) {
    x(e.send);
    EndpointObj* ep = objs_.Get<EndpointObj>(slot->cap.obj);
    SyscallArgs fault_msg;
    fault_msg.msg_len = 1;
    st = IpcSend(ep, slot->cap, /*is_call=*/true, fault_msg);
  } else {
    x(e.kill);
    T(current_->base, /*write=*/true);
    current_->state = ThreadState::kInactive;
    choose_new_ = true;
  }
  x(e.post);
  if (st == OpStatus::kPreempted) {
    x(e.preempted);
    x(e.irq_call);
    HandleInterruptImpl();
  }
  x(e.sched);
  ScheduleImpl();
  x(e.exit);
  T(current_->base);
  exec_.End();
  return st == OpStatus::kPreempted ? KernelExit::kPreempted : KernelExit::kDone;
}

// ---------- Cache pinning (Section 4) ----------

void Kernel::ApplyCachePinning() {
  const MachineConfig& mc = machine_->config();
  machine_->l1i().Pin(SelectPinnedLines(*image_, PinTarget::kL1I, mc.l1i, kL1PinnedWays),
                      kL1PinnedWays);
  machine_->l1d().Pin(SelectPinnedLines(*image_, PinTarget::kL1D, mc.l1d, kL1PinnedWays),
                      kL1PinnedWays);
}

std::size_t Kernel::ApplyL2KernelPinning() {
  const std::vector<Addr> lines =
      SelectPinnedLines(*image_, PinTarget::kL2, machine_->config().l2, kL2PinnedWays);
  machine_->l2().Pin(lines, kL2PinnedWays);
  return lines.size();
}

}  // namespace pmk
