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
#include <string>
#include <utility>
#include <vector>

#include "src/kernel/kernel.h"

namespace pmk {

namespace {

// old pointer -> its counterpart in the cloned heap. Objects are a sorted
// flat vector probed by binary search; CapSlots (which live only inside
// CNode slot arrays) are whole-array ranges resolved by offset arithmetic,
// so remapping costs no per-slot table entry or allocation — forking a
// checkpoint is on the hot path of the measurement benches.
class PtrMap {
 public:
  void AddObj(const void* old_obj, void* new_obj) { objs_.push_back({old_obj, new_obj}); }
  void AddSlotRange(const CapSlot* old_begin, std::size_t n, CapSlot* new_begin) {
    slots_.push_back({old_begin, old_begin + n, new_begin});
  }
  void Seal() {
    std::sort(objs_.begin(), objs_.end(),
              [](const ObjEntry& a, const ObjEntry& b) {
                return std::less<const void*>()(a.old_obj, b.old_obj);
              });
    std::sort(slots_.begin(), slots_.end(),
              [](const SlotRange& a, const SlotRange& b) {
                return std::less<const CapSlot*>()(a.old_begin, b.old_begin);
              });
  }
  void* FindObj(const void* old_obj, const char* what) const {
    const auto it = std::partition_point(objs_.begin(), objs_.end(), [&](const ObjEntry& e) {
      return std::less<const void*>()(e.old_obj, old_obj);
    });
    if (it == objs_.end() || it->old_obj != old_obj) {
      throw std::logic_error(std::string("Kernel::Clone: dangling ") + what + " pointer");
    }
    return it->new_obj;
  }
  CapSlot* FindSlot(const CapSlot* old_slot, const char* what) const {
    const auto it =
        std::partition_point(slots_.begin(), slots_.end(), [&](const SlotRange& r) {
          return !std::less<const CapSlot*>()(old_slot, r.old_end);
        });
    if (it == slots_.end() || std::less<const CapSlot*>()(old_slot, it->old_begin)) {
      throw std::logic_error(std::string("Kernel::Clone: dangling ") + what + " pointer");
    }
    return it->new_begin + (old_slot - it->old_begin);
  }

 private:
  struct ObjEntry {
    const void* old_obj;
    void* new_obj;
  };
  struct SlotRange {
    const CapSlot* old_begin;
    const CapSlot* old_end;
    CapSlot* new_begin;
  };
  std::vector<ObjEntry> objs_;
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
  // record old -> new object identity. The source heap's alignment/overlap
  // invariants transfer to the clone, so the per-insert audit is skipped.
  PtrMap ptr;
  std::vector<std::pair<const CNodeObj*, CNodeObj*>> cnodes;
  for (const auto& [base, obj] : objs_.objects()) {
    KObject* copy = k->objs_.InsertUnchecked(obj->CloneObj());
    ptr.AddObj(obj.get(), copy);
    if (obj->type == ObjType::kCNode) {
      cnodes.emplace_back(static_cast<const CNodeObj*>(obj.get()),
                          static_cast<CNodeObj*>(copy));
    }
  }
  for (const auto& [base, ut] : objs_.untypeds()) {
    ptr.AddObj(ut.get(), k->objs_.InsertUnchecked(ut->CloneObj()));
  }
  // The idle thread exists from boot and lives outside the object table.
  k->idle_storage_ = std::make_unique<TcbObj>(*idle_storage_);
  k->idle_ = k->idle_storage_.get();
  ptr.AddObj(idle_, k->idle_);

  // Pass 2: slot identity — a slot maps to the same index of the cloned
  // CNode. (CapSlots live only inside CNode slot arrays.)
  for (const auto& [oc, nc] : cnodes) {
    ptr.AddSlotRange(oc->slots.data(), oc->slots.size(), nc->slots.data());
  }
  ptr.Seal();

  // Pass 3: remap every intrusive pointer in the cloned heap.
  const auto fix_tcb = [&ptr](TcbObj*& p) {
    if (p != nullptr) {
      p = static_cast<TcbObj*>(ptr.FindObj(p, "TCB"));
    }
  };
  const auto fix_slot = [&ptr](CapSlot*& p) {
    if (p != nullptr) {
      p = ptr.FindSlot(p, "CapSlot");
    }
  };
  const auto fix_object = [&](const KObject* old_obj) {
    KObject* copy = static_cast<KObject*>(ptr.FindObj(old_obj, "object"));
    switch (copy->type) {
      case ObjType::kEndpoint: {
        auto* ep = static_cast<EndpointObj*>(copy);
        fix_tcb(ep->q_head);
        fix_tcb(ep->q_tail);
        fix_tcb(ep->abort.resume);
        fix_tcb(ep->abort.end_marker);
        fix_tcb(ep->abort.aborter);
        break;
      }
      case ObjType::kTcb: {
        auto* t = static_cast<TcbObj*>(copy);
        fix_tcb(t->sched_next);
        fix_tcb(t->sched_prev);
        fix_tcb(t->ep_next);
        fix_tcb(t->ep_prev);
        fix_tcb(t->reply_to);
        break;
      }
      case ObjType::kCNode: {
        auto* cn = static_cast<CNodeObj*>(copy);
        for (CapSlot& s : cn->slots) {
          fix_slot(s.mdb_prev);
          fix_slot(s.mdb_next);
        }
        break;
      }
      case ObjType::kPageTable: {
        auto* pt = static_cast<PageTableObj*>(copy);
        for (CapSlot*& s : pt->shadow) {
          fix_slot(s);
        }
        break;
      }
      case ObjType::kPageDir: {
        auto* pd = static_cast<PageDirObj*>(copy);
        for (CapSlot*& s : pd->shadow) {
          fix_slot(s);
        }
        break;
      }
      default:
        break;  // untyped, frame, ASID pool, IRQ handler: address-based only
    }
  };
  for (const auto& [base, obj] : objs_.objects()) {
    fix_object(obj.get());
  }
  for (const auto& [base, ut] : objs_.untypeds()) {
    fix_object(ut.get());
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

  // Pass 4: kernel-level roots.
  for (RunQueue& q : k->queues_) {
    fix_tcb(q.head);
    fix_tcb(q.tail);
  }
  fix_tcb(k->current_);
  fix_tcb(k->sched_action_);
  return k;
}

}  // namespace pmk
