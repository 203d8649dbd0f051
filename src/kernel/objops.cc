// Object creation and destruction: untyped retype with preemptible clearing
// (Section 3.5), capability deletion/revocation, preemptible endpoint
// cancellation (Section 3.3) and badged-IPC abort (Section 3.4).

#include <cassert>

#include "src/kernel/kernel.h"

namespace pmk {

namespace {
Addr AlignUp(Addr a, Addr align) { return (a + align - 1) & ~(align - 1); }
}  // namespace

KObject* Kernel::CreateObject(ObjType type, Addr base, std::uint8_t size_bits,
                              std::uint8_t user_bits) {
  KObject* o = objs_.Insert(type, base, size_bits);
  switch (type) {
    case ObjType::kUntyped:
      static_cast<UntypedObj*>(o)->watermark = base;
      break;
    case ObjType::kCNode: {
      auto* c = static_cast<CNodeObj*>(o);
      c->radix_bits = user_bits;
      c->slots.resize(c->NumSlots());
      for (std::uint32_t i = 0; i < c->NumSlots(); ++i) {
        c->slots[i].addr = c->SlotAddr(i);
      }
      break;
    }
    case ObjType::kTcb:
      static_cast<TcbObj*>(o)->timeslice = config_.timeslice_ticks;
      break;
    case ObjType::kPageDir:
      // Established by the global copy.
      static_cast<PageDirObj*>(o)->global_mappings_present = true;
      break;
    default:
      break;
  }
  return o;
}

// ---------- Untyped retype (Section 3.5) ----------

OpStatus Kernel::UntypedRetype(CapSlot* ut_slot, const SyscallArgs& args) {
  const auto& r = b().retype;
  const std::uint32_t chunk = config_.clear_chunk_bytes;

  x(r.entry);
  UntypedObj* ut = objs_.Get<UntypedObj>(ut_slot->cap.obj);
  T(ut_slot->addr);
  const auto retypeable = [](ObjType t) {
    switch (t) {
      case ObjType::kUntyped:
      case ObjType::kCNode:
      case ObjType::kTcb:
      case ObjType::kEndpoint:
      case ObjType::kFrame:
      case ObjType::kPageTable:
      case ObjType::kPageDir:
      case ObjType::kAsidPool:
        return true;
      default:
        return false;
    }
  };
  const std::uint32_t count = args.obj_count;
  // obj_bits is attacker-controlled: screen it before it feeds a shift.
  bool valid = ut != nullptr && retypeable(args.obj_type) && count >= 1 &&
               count <= KernelConfig::kMaxRetypeCount &&
               (args.obj_type != ObjType::kPageDir || count == 1) &&
               args.obj_bits <= KernelConfig::kMaxObjectBits;
  std::uint8_t size_bits = 0;
  Addr base = 0;
  std::uint64_t total = 0;
  if (valid) {
    T(ut->base);
    size_bits = ObjSizeBits(args.obj_type, args.obj_bits, config_);
    valid = size_bits <= KernelConfig::kMaxObjectBits;
    total = valid ? static_cast<std::uint64_t>(count) << size_bits : 0;
    // The closed-system object-size bound applies to the whole batch, so the
    // clearing loop's analysis bound is count-independent.
    valid = valid && total <= (std::uint64_t{1} << KernelConfig::kMaxObjectBits);
    if (valid) {
      base = AlignUp(ut->retype_active ? ut->retype_base : ut->watermark,
                     std::uint64_t{1} << size_bits);
      valid = base + total <= ut->End();
    }
  }
  if (!valid) {
    x(r.bad);
    current_->last_error = KError::kInvalidArg;
    if (ut != nullptr) {
      ut->retype_active = false;
    }
    return OpStatus::kDone;
  }
  const std::uint64_t total_chunks = (total + chunk - 1) / chunk;

  if (config_.preemptible_clearing) {
    // "After" shape: clear everything first — preemptibly — with progress
    // stored in the untyped object; then update kernel state atomically.
    x(r.resume);
    T(ut->base);
    if (!ut->retype_active) {
      x(r.init);
      T(ut->base, /*write=*/true);
      ut->retype_active = true;
      ut->retype_type = args.obj_type;
      ut->retype_bits = size_bits;
      ut->retype_base = base;
      ut->cleared_bytes = 0;
      exec_.SetReg(7, static_cast<std::int64_t>(total_chunks));
    } else {
      exec_.SetReg(7, static_cast<std::int64_t>(
                          (total - ut->cleared_bytes + chunk - 1) / chunk));
    }
    while (true) {
      x(r.more);
      T(ut->base);
      if (ut->cleared_bytes >= total) {
        break;
      }
      x(r.clear_chunk);
      const Addr chunk_base = ut->retype_base + ut->cleared_bytes;
      TRun(chunk_base, (chunk + 31) / 32, 32, /*write=*/true);
      ut->cleared_bytes += chunk;
      T(ut->base, /*write=*/true);
      x(r.preempt);
      if (PreemptPending()) {
        x(r.preempted);
        T(ut->base, /*write=*/true);
        return OpStatus::kPreempted;
      }
    }
  } else {
    // "Before" shape: kernel state partially updated before clearing, and
    // the clear itself is one long non-preemptible loop.
    x(r.book1);
    T(ut->base, /*write=*/true);
    T(ut_slot->addr, /*write=*/true);
    ut->retype_active = true;
    ut->retype_type = args.obj_type;
    ut->retype_bits = size_bits;
    ut->retype_base = base;
    x(r.init);
    T(ut->base, /*write=*/true);
    ut->cleared_bytes = 0;
    exec_.SetReg(7, static_cast<std::int64_t>(total_chunks));
    while (true) {
      x(r.more);
      T(ut->base);
      if (ut->cleared_bytes >= total) {
        break;
      }
      x(r.clear_chunk);
      const Addr chunk_base = ut->retype_base + ut->cleared_bytes;
      TRun(chunk_base, (chunk + 31) / 32, 32, /*write=*/true);
      ut->cleared_bytes += chunk;
      T(ut->base, /*write=*/true);
    }
  }

  x(r.is_pd);
  if (args.obj_type == ObjType::kPageDir) {
    // Copy the kernel's global mappings into the new page directory: 1 KiB,
    // non-preemptible (the 20 us compromise of Section 3.5).
    x(r.global_copy);
    const Addr kernel_pd = Program::kDataBase;  // template mappings
    for (std::uint32_t off = 0; off < 1024; off += 32) {
      T(kernel_pd + off);
      T(base + 15 * 1024 + off, /*write=*/true);
    }
    T(ut->base);
  }

  // Atomic bookkeeping pass: object table, destination caps, MDB, watermark.
  // One short pass per object (book_loop); no preemption inside — clearing,
  // the only long-running part, already happened (Section 3.5).
  x(r.book);
  T(ut->base);
  CNodeObj* root = objs_.Get<CNodeObj>(current_->cspace_root);
  bool dests_ok = root != nullptr &&
                  static_cast<std::uint64_t>(args.dest_index) + count <= root->NumSlots();
  if (dests_ok) {
    for (std::uint32_t i = 0; i < count; ++i) {
      if (!root->slots[args.dest_index + i].IsNull()) {
        dests_ok = false;
        break;
      }
    }
  }
  exec_.SetReg(10, dests_ok ? count : 0);
  if (!dests_ok) {
    current_->last_error = KError::kInvalidArg;
    ut->retype_active = false;
    x(r.ret);
    T(ut->base, /*write=*/true);
    return OpStatus::kDone;
  }
  for (std::uint32_t i = 0; i < count; ++i) {
    x(r.book_loop);
    const Addr obj_base = base + (static_cast<Addr>(i) << size_bits);
    KObject* raw = CreateObject(args.obj_type, obj_base, size_bits, args.obj_bits);
    CapSlot* dest = &root->slots[args.dest_index + i];
    T(dest->addr, /*write=*/true);
    T(ut_slot->addr, /*write=*/true);
    T(raw->base, /*write=*/true);
    Cap cap;
    cap.type = args.obj_type;
    cap.obj = raw->base;
    dest->cap = cap;
    Mdb::InsertChild(ut_slot, dest);
  }
  x(r.ret);
  T(ut->base, /*write=*/true);
  T(ut_slot->addr, /*write=*/true);
  ut->watermark = base + total;
  ut->retype_active = false;
  current_->last_error = KError::kOk;
  return OpStatus::kDone;
}

// ---------- Endpoint cancellation ----------

OpStatus Kernel::EpCancelAll(EndpointObj* ep) {
  const auto& c = b().epcall;
  x(c.entry);
  T(ep->base, /*write=*/true);
  ep->active = false;  // forward progress: no new IPC can start (Section 3.3)
  exec_.SetReg(8, ep->q_len);
  while (true) {
    x(c.head);
    T(ep->base);
    if (ep->q_head == nullptr) {
      break;
    }
    x(c.deq);
    TcbObj* t = ep->q_head;
    T(t->base, /*write=*/true);
    T(ep->base, /*write=*/true);
    EpRemove(ep, t);
    t->state = ThreadState::kRestart;
    t->last_error = KError::kAborted;
    x(c.enq);
    SchedEnqueue(t);
    if (config_.preemptible_deletion) {
      x(c.preempt);
      if (PreemptPending()) {
        x(c.preempted);
        return OpStatus::kPreempted;
      }
    }
  }
  x(c.done);
  T(ep->base, /*write=*/true);
  ep->qstate = EndpointObj::QState::kIdle;
  x(c.ret);
  return OpStatus::kDone;
}

OpStatus Kernel::EpCancelBadged(EndpointObj* ep, std::uint64_t badge) {
  const auto& c = b().epcb;
  x(c.entry);
  T(ep->base);
  T(current_->base);

  // Mirrors the number of queue nodes left to scan into r8.
  const auto set_remaining = [&] {
    std::uint32_t remaining = 0;
    for (TcbObj* t = ep->abort.resume; t != nullptr; t = t->ep_next) {
      remaining++;
      if (t == ep->abort.end_marker) {
        break;
      }
    }
    exec_.SetReg(8, remaining);
  };
  const auto setup_own = [&] {
    ep->abort.valid = true;
    ep->abort.badge = badge;
    ep->abort.resume = ep->q_head;
    ep->abort.end_marker = ep->q_tail;  // field 2: new arrivals not scanned
    ep->abort.aborter = current_;
  };

  bool ours;
  x(c.resume);
  T(ep->base);
  if (ep->abort.valid) {
    // Continue the stored operation (possibly another thread's: complete it
    // before starting our own — resume field 4).
    ours = ep->abort.aborter == current_ && ep->abort.badge == badge;
    set_remaining();
  } else {
    x(c.setup);
    T(ep->base, /*write=*/true);
    T(current_->base);
    setup_own();
    ours = true;
    set_remaining();
  }

  {
    const std::uint64_t scan_badge = ep->abort.badge;
    while (true) {
      x(c.head);
      T(ep->base);
      TcbObj* node = ep->abort.resume;
      if (node == nullptr) {
        break;
      }
      x(c.check);
      T(node->base);
      T(ep->base);
      const bool last = node == ep->abort.end_marker;
      TcbObj* nxt = node->ep_next;
      if (node->blocked_badge == scan_badge) {
        x(c.remove);
        T(node->base, /*write=*/true);
        T(ep->base, /*write=*/true);
        EpRemove(ep, node);
        node->state = ThreadState::kRestart;
        node->last_error = KError::kAborted;
        x(c.enq);
        SchedEnqueue(node);
      } else {
        x(c.next);
        T(node->base);
      }
      ep->abort.resume = last ? nullptr : nxt;  // field 1: forward progress
      if (config_.preemptible_badged_abort) {
        x(c.preempt);
        if (PreemptPending()) {
          x(c.preempted);
          T(ep->base, /*write=*/true);
          return OpStatus::kPreempted;
        }
      }
    }
    x(c.done);
    T(ep->base, /*write=*/true);
    ep->abort.valid = false;
    if (!ours) {
      // We completed another thread's stored operation; our own abort runs
      // when our restartable system call re-executes (done's taken edge).
      x(c.preempted);
      return OpStatus::kPreempted;
    }
  }
  x(c.ret);
  return OpStatus::kDone;
}

// ---------- Deletion / revocation ----------

OpStatus Kernel::DestroyObject(CapSlot* slot) {
  const auto& d = b().destroy;
  const bool asid = config_.vspace == VSpaceKind::kAsid;
  x(d.entry);
  T(slot->addr);
  OpStatus st = OpStatus::kDone;
  const ObjType type = slot->cap.type;

  x(d.d_ep);
  if (type == ObjType::kEndpoint) {
    x(d.c_ep);
    st = EpCancelAll(objs_.Get<EndpointObj>(slot->cap.obj));
  } else {
    x(d.d_pd);
    if (type == ObjType::kPageDir) {
      x(d.c_pd);
      PageDirObj* pd = objs_.Get<PageDirObj>(slot->cap.obj);
      st = PdDelete(pd);
    } else {
      x(asid ? d.d_pool : d.d_pt);
      if (asid && type == ObjType::kAsidPool) {
        x(d.c_pool);
        st = AsidPoolDelete(objs_.Get<AsidPoolObj>(slot->cap.obj));
      } else if (!asid && type == ObjType::kPageTable) {
        x(d.c_pt);
        st = PtDelete(objs_.Get<PageTableObj>(slot->cap.obj));
      } else {
        x(d.d_frame);
        if (type == ObjType::kFrame) {
          x(d.c_frame);
          st = FrameUnmap(slot);
        } else {
          x(d.d_tcb);
          if (type == ObjType::kTcb) {
            x(d.t_tcb);
            TcbObj* t = objs_.Get<TcbObj>(slot->cap.obj);
            T(t->base, /*write=*/true);
            T(t->base + 8);
            if (t->blocked_on != 0) {
              EndpointObj* ep = objs_.Get<EndpointObj>(t->blocked_on);
              if (ep != nullptr) {
                EpRemove(ep, t);
              }
            }
            t->state = ThreadState::kInactive;
            x(d.t_deq);
            SchedDequeue(t);
          } else {
            // CNode / untyped / IRQ handler: no long-running teardown.
            x(d.simple);
            T(slot->addr);
          }
        }
      }
    }
  }

  x(d.check);
  if (st == OpStatus::kPreempted) {
    x(d.preempted);
    return OpStatus::kPreempted;
  }
  x(d.free);
  T(slot->addr, /*write=*/true);
  if (objs_.Find(slot->cap.obj) != nullptr) {
    objs_.Remove(slot->cap.obj);
  }
  x(d.ret);
  return OpStatus::kDone;
}

OpStatus Kernel::CapDelete(CapSlot* slot) {
  const auto& d = b().capdel;
  x(d.entry);
  T(slot->addr);
  x(d.null);
  if (slot->IsNull()) {
    x(d.ret);
    return OpStatus::kDone;
  }
  x(d.final);
  if (slot->mdb_prev != nullptr) {
    T(slot->mdb_prev->addr);
  }
  if (slot->mdb_next != nullptr) {
    T(slot->mdb_next->addr);
  }
  if (Mdb::IsFinal(slot)) {
    x(d.destroy);
    const OpStatus st = DestroyObject(slot);
    x(d.check);
    if (st == OpStatus::kPreempted) {
      x(d.preempted);
      return OpStatus::kPreempted;
    }
  }
  x(d.unlink);
  T(slot->addr, /*write=*/true);
  if (slot->mdb_prev != nullptr) {
    T(slot->mdb_prev->addr, /*write=*/true);
  }
  if (slot->mdb_next != nullptr) {
    T(slot->mdb_next->addr, /*write=*/true);
  }
  Mdb::Remove(slot);
  x(d.ret);
  return OpStatus::kDone;
}

OpStatus Kernel::CNodeDelete(CapSlot* cn_slot, const SyscallArgs& args) {
  const auto& d = b().cnodedel;
  x(d.entry);
  CNodeObj* cn = objs_.Get<CNodeObj>(cn_slot->cap.obj);
  T(cn_slot->addr);
  if (cn == nullptr || args.arg0 >= cn->NumSlots()) {
    x(d.bad);
    current_->last_error = KError::kInvalidArg;
    return OpStatus::kDone;
  }
  CapSlot* victim = &cn->slots[args.arg0];
  T(victim->addr);
  x(d.del);
  const OpStatus st = CapDelete(victim);
  x(d.ret);
  return st;
}

OpStatus Kernel::CNodeRevoke(CapSlot* cn_slot, const SyscallArgs& args) {
  const auto& r = b().revoke;
  x(r.entry);
  CNodeObj* cn = objs_.Get<CNodeObj>(cn_slot->cap.obj);
  T(cn_slot->addr);
  if (cn == nullptr || args.arg0 >= cn->NumSlots() || cn->slots[args.arg0].IsNull()) {
    x(r.bad);
    current_->last_error = KError::kInvalidArg;
    return OpStatus::kDone;
  }
  CapSlot* root = &cn->slots[args.arg0];
  T(root->addr);
  // Count descendants for the loop-bound mirror.
  {
    std::uint32_t n = 0;
    for (CapSlot* s = Mdb::FirstDescendant(root); s != nullptr;
         s = Mdb::NextDescendant(root, s)) {
      n++;
    }
    exec_.SetReg(9, n);
  }

  x(r.badged);
  T(root->addr);
  if (root->cap.type == ObjType::kEndpoint && root->cap.badge != kBadgeNone) {
    // Revoking a badge: abort in-flight IPC using it first (Section 3.4).
    x(r.abort);
    EndpointObj* ep = objs_.Get<EndpointObj>(root->cap.obj);
    const OpStatus st = EpCancelBadged(ep, root->cap.badge);
    x(r.abort_check);
    if (st == OpStatus::kPreempted) {
      x(r.preempted);
      return OpStatus::kPreempted;
    }
  }

  while (true) {
    x(r.loop);
    T(root->addr);
    CapSlot* child = Mdb::FirstDescendant(root);
    if (child == nullptr) {
      break;
    }
    x(r.child);
    T(child->addr);
    x(r.del);
    const OpStatus st = CapDelete(child);
    x(r.del_check);
    if (st == OpStatus::kPreempted) {
      x(r.preempted);
      return OpStatus::kPreempted;
    }
    if (config_.preemptible_deletion) {
      x(r.preempt);
      if (PreemptPending()) {
        x(r.preempted);
        return OpStatus::kPreempted;
      }
    }
  }
  x(r.ret);
  // With all children gone, a revoked untyped's memory is reclaimed: the
  // watermark rewinds to the region base (seL4's freeIndex reset).
  if (root->cap.type == ObjType::kUntyped) {
    UntypedObj* ut = objs_.Get<UntypedObj>(root->cap.obj);
    if (ut != nullptr) {
      T(ut->base, /*write=*/true);
      ut->watermark = ut->base;
      ut->retype_active = false;
    }
  }
  return OpStatus::kDone;
}

OpStatus Kernel::CNodeMint(CapSlot* cn_slot, const SyscallArgs& args) {
  const auto& m = b().mint;
  x(m.entry);
  CNodeObj* cn = objs_.Get<CNodeObj>(cn_slot->cap.obj);
  T(cn_slot->addr);
  x(m.decode);
  CapSlot* src = DecodeCap(current_, static_cast<std::uint32_t>(args.arg0));
  x(m.chk);
  bool ok = cn != nullptr && src != nullptr && args.dest_index < cn->NumSlots() &&
            cn->slots[args.dest_index].IsNull();
  // A badged cap may not be re-badged (Mint only).
  if (ok && args.label == InvLabel::kCNodeMint && src->cap.type == ObjType::kEndpoint &&
      src->cap.badge != kBadgeNone && args.badge != src->cap.badge) {
    ok = false;
  }
  if (!ok) {
    x(m.err);
    current_->last_error = KError::kInvalidArg;
    return OpStatus::kDone;
  }
  x(m.insert);
  CapSlot* dest = &cn->slots[args.dest_index];
  T(src->addr);
  T(dest->addr, /*write=*/true);
  T(src->addr, /*write=*/true);
  switch (args.label) {
    case InvLabel::kCNodeMove:
      // The cap changes address but keeps its derivation-tree position.
      Mdb::Replace(src, dest);
      break;
    case InvLabel::kCNodeCopy:
      // A plain copy: a sibling at the same depth, badge preserved.
      dest->cap = src->cap;
      Mdb::InsertSibling(src, dest);
      break;
    default:  // kCNodeMint: a badged child.
      dest->cap = src->cap;
      dest->cap.badge = args.badge != kBadgeNone ? args.badge : src->cap.badge;
      Mdb::InsertChild(src, dest);
      break;
  }
  x(m.ret);
  return OpStatus::kDone;
}

// ---------- TCB / IRQ invocations ----------

OpStatus Kernel::TcbInvoke(CapSlot* slot, const SyscallArgs& args) {
  const auto& tb = b().tcb;
  TcbObj* t = objs_.Get<TcbObj>(slot->cap.obj);
  x(tb.entry);
  T(slot->addr);
  if (t == nullptr) {
    // Walk the dispatcher to bad.
    x(tb.d_config);
    x(tb.d_resume);
    x(tb.d_suspend);
    x(tb.d_setprio);
    x(tb.bad);
    current_->last_error = KError::kInvalidCap;
    x(tb.ret);
    return OpStatus::kDone;
  }
  switch (args.label) {
    case InvLabel::kTcbConfigure: {
      x(tb.d_config);
      x(tb.config);
      T(t->base, /*write=*/true);
      if (args.arg0 != 0) {
        t->cspace_root = args.arg0;
      }
      if (args.arg1 != 0) {
        t->vspace = args.arg1;
      }
      t->fault_handler_cptr = static_cast<std::uint32_t>(args.arg2);
      if (config_.vspace == VSpaceKind::kAsid && t->vspace != 0) {
        PageDirObj* pd = objs_.Get<PageDirObj>(t->vspace);
        T(t->base);
        if (pd != nullptr && pd->asid == 0) {
          x(tb.config_asid);
          if (!AsidAlloc(pd)) {
            current_->last_error = KError::kNotEnoughMemory;
          }
        }
      }
      break;
    }
    case InvLabel::kTcbResume: {
      x(tb.d_config);
      x(tb.d_resume);
      x(tb.resume);
      T(t->base, /*write=*/true);
      if (t->state == ThreadState::kInactive || t->state == ThreadState::kRestart) {
        t->state = ThreadState::kRunning;
      }
      x(tb.resume_enq);
      SchedEnqueue(t);
      break;
    }
    case InvLabel::kTcbSuspend: {
      x(tb.d_config);
      x(tb.d_resume);
      x(tb.d_suspend);
      x(tb.suspend);
      T(t->base, /*write=*/true);
      if (t->blocked_on != 0) {
        EndpointObj* ep = objs_.Get<EndpointObj>(t->blocked_on);
        if (ep != nullptr) {
          T(ep->base, /*write=*/true);
          EpRemove(ep, t);
        }
      }
      t->state = ThreadState::kInactive;
      if (t == current_) {
        choose_new_ = true;
      }
      x(tb.suspend_deq);
      SchedDequeue(t);
      break;
    }
    case InvLabel::kTcbSetPriority: {
      x(tb.d_config);
      x(tb.d_resume);
      x(tb.d_suspend);
      x(tb.d_setprio);
      x(tb.setprio);
      T(t->base, /*write=*/true);
      x(tb.sp_deq);
      SchedDequeue(t);
      t->prio = static_cast<std::uint8_t>(args.arg0 & 0xFF);
      x(tb.sp_enq);
      SchedEnqueue(t);
      // Priority changes can dethrone the running thread.
      if (t == current_ || (Runnable(t) && t->prio > current_->prio)) {
        choose_new_ = true;
      }
      break;
    }
    default: {
      x(tb.d_config);
      x(tb.d_resume);
      x(tb.d_suspend);
      x(tb.d_setprio);
      x(tb.bad);
      current_->last_error = KError::kInvalidArg;
      break;
    }
  }
  x(tb.ret);
  return OpStatus::kDone;
}

OpStatus Kernel::IrqInvoke(CapSlot* slot, const SyscallArgs& args) {
  const auto& v = b().irqinv;
  IrqHandlerObj* h = objs_.Get<IrqHandlerObj>(slot->cap.obj);
  x(v.entry);
  T(slot->addr);
  // A handler cap for a line outside the controller is as invalid as a stale
  // cap: both would index past irq_bindings_ / the controller's mask array.
  if (h == nullptr || h->line >= InterruptController::kNumLines) {
    x(v.d_set);
    x(v.ack);
    current_->last_error = KError::kInvalidCap;
    x(v.ret);
    return OpStatus::kDone;
  }
  x(v.d_set);
  if (args.label == InvLabel::kIrqSetHandler) {
    x(v.set);
    T(image_->SymAddr(image_->syms.irq_bindings) + static_cast<Addr>(h->line) * 8,
      /*write=*/true);
    h->notify_ep = args.arg0;
    irq_bindings_[h->line] = args.arg0;
    machine_->irq().Unmask(h->line);
  } else {
    // Ack: re-enable the line after the handler finished.
    x(v.ack);
    machine_->irq().Unmask(h->line);
  }
  x(v.ret);
  return OpStatus::kDone;
}

}  // namespace pmk
