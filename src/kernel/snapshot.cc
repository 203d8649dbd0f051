// Kernel state snapshotting: the deep copy behind src/engine checkpoints.
//
// A clone must replay cycle-for-cycle identically to the original, so it
// copies the complete mutable kernel state and remaps every intrusive pointer
// — scheduler queue links, endpoint queue links and badged-abort four-tuples,
// reply chains, MDB derivation links, page-table shadow back-pointers — into
// the cloned heap. Identity is structural: a kernel object maps to its copy
// at the same physical base address, found by its offset in the one block
// the copy fills, and a CapSlot maps to the same slot index of the cloned
// CNode. Any pointer that fails to resolve throws, so an unremapped field
// added later surfaces as a loud error in the snapshot-fidelity tests
// instead of silent cross-heap aliasing.

#include <stdexcept>

#include "src/kernel/kernel.h"

namespace pmk {

Kernel::Kernel(CloneTag, const Kernel& other, Machine* machine)
    : config_(other.config_),
      machine_(machine),
      image_(other.image_),  // shared: immutable after construction
      exec_(&image_->prog, machine),
      alloc_next_(other.alloc_next_),
      queues_(other.queues_),
      bitmap_l1_(other.bitmap_l1_),
      bitmap_l2_(other.bitmap_l2_),
      current_(other.current_),
      idle_(nullptr),
      sched_action_(other.sched_action_),
      choose_new_(other.choose_new_),
      irq_bindings_(other.irq_bindings_),
      asid_pool_(other.asid_pool_),
      irq_latencies_(other.irq_latencies_),
      fastpath_hits_(other.fastpath_hits_) {
  // The fresh executor starts on the compiled path; a clone replays on the
  // same charge path as its source (an oracle run stays an oracle run).
  exec_.set_charge_mode(other.exec_.charge_mode());
}

std::unique_ptr<Kernel> Kernel::Clone(Machine* machine) const {
  if (exec_.InPath()) {
    throw std::logic_error("Kernel::Clone: executor is mid-path; snapshot between entries only");
  }
  std::unique_ptr<Kernel> k(new Kernel(CloneTag{}, *this, machine));

  // Pass 1: copy every object into one block, in address order (pointers
  // still aimed at the old heap). The copy re-verifies alignment and
  // non-overlap; ascending key order makes each check O(1).
  const ObjectTable::Relocation moved = k->objs_.CopyFrom(objs_);
  // The idle thread exists from boot and lives outside the object table.
  k->idle_storage_ = std::make_unique<TcbObj>(*idle_storage_);
  k->idle_ = k->idle_storage_.get();

  // Pass 2: remap every intrusive pointer in the cloned heap, walking the
  // cloned table itself (untyped regions hold no pointers).
  const auto fix_tcb = [this, &k, &moved](TcbObj*& p) {
    if (p != nullptr) {
      p = p == idle_ ? k->idle_ : moved(p);
    }
  };
  const auto fix_slot = [&moved](CapSlot*& p) {
    if (p != nullptr) {
      p = moved(p);
    }
  };
  for (const auto& [base, copy] : k->objs_.objects()) {
    switch (copy->type) {
      case ObjType::kEndpoint: {
        auto* ep = static_cast<EndpointObj*>(copy.get());
        fix_tcb(ep->q_head);
        fix_tcb(ep->q_tail);
        fix_tcb(ep->abort.resume);
        fix_tcb(ep->abort.end_marker);
        fix_tcb(ep->abort.aborter);
        break;
      }
      case ObjType::kTcb: {
        auto* t = static_cast<TcbObj*>(copy.get());
        fix_tcb(t->sched_next);
        fix_tcb(t->sched_prev);
        fix_tcb(t->ep_next);
        fix_tcb(t->ep_prev);
        fix_tcb(t->reply_to);
        break;
      }
      case ObjType::kCNode: {
        auto* cn = static_cast<CNodeObj*>(copy.get());
        for (CapSlot& s : cn->slots) {
          fix_slot(s.mdb_prev);
          fix_slot(s.mdb_next);
        }
        break;
      }
      case ObjType::kPageTable: {
        auto* pt = static_cast<PageTableObj*>(copy.get());
        for (CapSlot*& s : pt->shadow) {
          fix_slot(s);
        }
        break;
      }
      case ObjType::kPageDir: {
        auto* pd = static_cast<PageDirObj*>(copy.get());
        for (CapSlot*& s : pd->shadow) {
          fix_slot(s);
        }
        break;
      }
      default:
        break;  // frame, ASID pool, IRQ handler: address-based only
    }
  }
  {
    // Idle's links are normally null (it is never enqueued), but remap them
    // anyway so a future scheduler change cannot silently alias heaps.
    fix_tcb(k->idle_->sched_next);
    fix_tcb(k->idle_->sched_prev);
    fix_tcb(k->idle_->ep_next);
    fix_tcb(k->idle_->ep_prev);
    fix_tcb(k->idle_->reply_to);
  }

  // Pass 3: kernel-level roots.
  for (RunQueue& q : k->queues_) {
    fix_tcb(q.head);
    fix_tcb(q.tail);
  }
  fix_tcb(k->current_);
  fix_tcb(k->sched_action_);
  return k;
}

}  // namespace pmk
