// Kernel state snapshotting: the deep copy behind src/engine checkpoints.
//
// A clone must replay cycle-for-cycle identically to the original, so it
// copies the complete mutable kernel state and remaps every intrusive pointer
// — scheduler queue links, endpoint queue links and badged-abort four-tuples,
// reply chains, MDB derivation links, page-table shadow back-pointers — into
// the cloned heap. Identity is structural: a kernel object maps to its
// clone's object at the same physical base address, and a CapSlot maps to the
// same slot index of the cloned CNode. Any pointer that fails to resolve
// throws, so an unremapped field added later surfaces as a loud error in the
// snapshot-fidelity tests instead of silent cross-heap aliasing.

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

#include "src/kernel/kernel.h"

namespace pmk {

namespace {

// old pointer -> its counterpart in the cloned heap. TCBs (the only objects
// other objects point at) are a sorted flat vector probed by binary search;
// CapSlots (which live only inside CNode slot arrays) are whole-array ranges
// resolved by offset arithmetic, so remapping costs no per-slot table entry
// or allocation — forking a checkpoint is on the hot path of the
// measurement benches.
class PtrMap {
 public:
  void AddTcb(const TcbObj* old_tcb, TcbObj* new_tcb) { tcbs_.push_back({old_tcb, new_tcb}); }
  void AddSlotRange(const CapSlot* old_begin, std::size_t n, CapSlot* new_begin) {
    slots_.push_back({old_begin, old_begin + n, new_begin});
  }
  void Seal() {
    std::sort(tcbs_.begin(), tcbs_.end(), [](const TcbEntry& a, const TcbEntry& b) {
      return std::less<const TcbObj*>()(a.old_tcb, b.old_tcb);
    });
    std::sort(slots_.begin(), slots_.end(),
              [](const SlotRange& a, const SlotRange& b) {
                return std::less<const CapSlot*>()(a.old_begin, b.old_begin);
              });
  }
  TcbObj* FindTcb(const TcbObj* old_tcb) const {
    const auto it = std::partition_point(tcbs_.begin(), tcbs_.end(), [&](const TcbEntry& e) {
      return std::less<const TcbObj*>()(e.old_tcb, old_tcb);
    });
    if (it == tcbs_.end() || it->old_tcb != old_tcb) {
      throw std::logic_error("Kernel::Clone: dangling TCB pointer");
    }
    return it->new_tcb;
  }
  CapSlot* FindSlot(const CapSlot* old_slot) const {
    const auto it =
        std::partition_point(slots_.begin(), slots_.end(), [&](const SlotRange& r) {
          return !std::less<const CapSlot*>()(old_slot, r.old_end);
        });
    if (it == slots_.end() || std::less<const CapSlot*>()(old_slot, it->old_begin)) {
      throw std::logic_error("Kernel::Clone: dangling CapSlot pointer");
    }
    return it->new_begin + (old_slot - it->old_begin);
  }

 private:
  struct TcbEntry {
    const TcbObj* old_tcb;
    TcbObj* new_tcb;
  };
  struct SlotRange {
    const CapSlot* old_begin;
    const CapSlot* old_end;
    CapSlot* new_begin;
  };
  std::vector<TcbEntry> tcbs_;
  std::vector<SlotRange> slots_;
};

}  // namespace

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

  // Pass 1: clone every object (pointers still aimed at the old heap) and
  // record old -> new TCB identity. The checked Insert re-verifies alignment
  // and non-overlap; ascending key order makes each check O(1).
  PtrMap ptr;
  for (const auto& [base, obj] : objs_.objects()) {
    KObject* copy = k->objs_.Insert(obj->CloneObj());
    if (obj->type == ObjType::kTcb) {
      ptr.AddTcb(static_cast<const TcbObj*>(obj.get()), static_cast<TcbObj*>(copy));
    } else if (obj->type == ObjType::kCNode) {
      // Slot identity: a slot maps to the same index of the cloned CNode.
      // (CapSlots live only inside CNode slot arrays.)
      const auto* old_cn = static_cast<const CNodeObj*>(obj.get());
      ptr.AddSlotRange(old_cn->slots.data(), old_cn->slots.size(),
                       static_cast<CNodeObj*>(copy)->slots.data());
    }
  }
  for (const auto& [base, ut] : objs_.untypeds()) {
    k->objs_.Insert(ut->CloneObj());
  }
  // The idle thread exists from boot and lives outside the object table.
  k->idle_storage_ = std::make_unique<TcbObj>(*idle_storage_);
  k->idle_ = k->idle_storage_.get();
  ptr.AddTcb(idle_, k->idle_);
  ptr.Seal();

  // Pass 2: remap every intrusive pointer in the cloned heap, walking the
  // cloned table itself (untyped regions hold no pointers).
  const auto fix_tcb = [&ptr](TcbObj*& p) {
    if (p != nullptr) {
      p = ptr.FindTcb(p);
    }
  };
  const auto fix_slot = [&ptr](CapSlot*& p) {
    if (p != nullptr) {
      p = ptr.FindSlot(p);
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
