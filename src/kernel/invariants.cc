// Runtime checks of the kernel invariants the seL4 proof maintains
// (Section 2.2) plus the new invariants the paper's changes introduce:
// Benno scheduling's "run queue holds only runnable threads" (Section 3.1)
// and "the bitmap precisely reflects the run queues" (Section 3.2).
//
// CheckInvariants() may be called at any kernel-idle instant (between kernel
// entries); the property tests call it at every preemption point boundary.
// It walks the run queues, then the object table once in address order,
// switching on each object's type: O(1) per object plus the slots, entries
// and queue members the object holds, with no auxiliary sets.

#include <sstream>
#include <stdexcept>

#include "src/kernel/kernel.h"
#include "src/obs/metrics.h"

namespace pmk {

namespace {
// Every audit, counted where it runs, whichever driver calls it (an observer
// only).
obs::Counter& AuditCounter() {
  static obs::Counter c("fault.invariant.checks");
  return c;
}

[[noreturn]] void Violate(const std::string& what) {
  throw std::logic_error("kernel invariant violated: " + what);
}

// Alignment (Section 2.2): an object sits at its key, aligned to its size.
void CheckPlacement(Addr key, const KObject& obj) {
  if (obj.base != key || key % obj.SizeBytes() != 0) {
    Violate("object misaligned or filed at the wrong address: " +
            std::string(ObjTypeName(obj.type)) + " at " + std::to_string(key));
  }
}
}  // namespace

void Kernel::CheckInvariants() const {
  AuditCounter().Inc();
  // --- The running thread is runnable (or the idle thread) ---
  if (current_ != nullptr && current_ != idle_ &&
      !(current_->state == ThreadState::kRunning || current_->state == ThreadState::kRestart)) {
    Violate("current thread is not runnable: " +
            std::string(ThreadStateName(current_->state)));
  }

  // --- Run-queue well-formedness and scheduling invariants ---
  // The back-pointer check also rejects a cycle: the first thread a walk
  // revisits would need two different predecessors (and the head's is null).
  // A thread in two queues fails the priority check in one of them.
  std::size_t queued = 0;
  for (std::uint32_t prio = 0; prio < KernelConfig::kNumPriorities; ++prio) {
    const TcbObj* prev = nullptr;
    for (const TcbObj* t = queues_[prio].head; t != nullptr; t = t->sched_next) {
      if (t->sched_prev != prev) {
        Violate("run queue back-pointer broken at prio " + std::to_string(prio));
      }
      if (t->prio != prio) {
        Violate("thread queued at wrong priority");
      }
      if (!t->in_run_queue) {
        Violate("queued thread not flagged in_run_queue");
      }
      if (config_.scheduler == SchedulerKind::kBenno &&
          !(t->state == ThreadState::kRunning || t->state == ThreadState::kRestart)) {
        Violate("Benno invariant: non-runnable thread on the run queue: " +
                std::string(ThreadStateName(t->state)));
      }
      prev = t;
      queued++;
    }
    if (queues_[prio].tail != prev) {
      Violate("run queue tail pointer broken at prio " + std::to_string(prio));
    }
    // Bitmap agreement (Section 3.2).
    if (config_.scheduler_bitmap) {
      const bool has = queues_[prio].head != nullptr;
      const bool l2 = (bitmap_l2_[prio / 32] >> (prio % 32)) & 1u;
      if (has != l2) {
        Violate("bitmap L2 disagrees with queue at prio " + std::to_string(prio));
      }
    }
  }
  if (config_.scheduler_bitmap) {
    for (std::uint32_t bucket = 0; bucket < 8; ++bucket) {
      const bool l1 = (bitmap_l1_ >> bucket) & 1u;
      if (l1 != (bitmap_l2_[bucket] != 0)) {
        Violate("bitmap L1 disagrees with L2 bucket " + std::to_string(bucket));
      }
    }
  }

  // --- One pass over the object table, in address order ---
  std::size_t flagged = 0;  // TCBs with in_run_queue set
  Addr prev_end = 0;
  for (const auto& [base, obj] : objs_.objects()) {
    // Alignment and non-overlap (Section 2.2); untyped regions, checked
    // below, may overlap.
    CheckPlacement(base, *obj);
    if (base < prev_end) {
      Violate("object overlaps its predecessor: " + std::string(ObjTypeName(obj->type)) +
              " at " + std::to_string(base));
    }
    prev_end = obj->End();

    switch (obj->type) {
      case ObjType::kTcb: {
        // Per-thread state consistency; all runnable threads reachable.
        const auto* t = static_cast<const TcbObj*>(obj.get());
        flagged += t->in_run_queue ? 1 : 0;
        const bool runnable =
            t->state == ThreadState::kRunning || t->state == ThreadState::kRestart;
        // "All runnable threads are either on the run queue or currently
        // executing" — holds for both schedulers; a pending direct-switch
        // target is about to become current and is exempt mid-entry.
        if (runnable && !t->in_run_queue && t != current_ && t != sched_action_) {
          Violate("runnable thread neither queued nor current");
        }
        const bool blocked = t->state == ThreadState::kBlockedOnSend ||
                             t->state == ThreadState::kBlockedOnRecv;
        if (blocked && t->blocked_on == 0) {
          Violate("blocked thread not on any endpoint");
        }
        if (!blocked && t->blocked_on != 0) {
          Violate("non-blocked thread still linked to an endpoint");
        }
        if (blocked && t->in_run_queue && config_.scheduler == SchedulerKind::kBenno) {
          Violate("Benno invariant: blocked thread in run queue");
        }
        break;
      }
      case ObjType::kEndpoint: {
        // Endpoint queue; a cycle fails the back-pointer check as above.
        const auto* ep = static_cast<const EndpointObj*>(obj.get());
        std::uint32_t n = 0;
        const TcbObj* prev = nullptr;
        bool resume_queued = false;
        for (const TcbObj* t = ep->q_head; t != nullptr; t = t->ep_next) {
          if (t->ep_prev != prev) {
            Violate("endpoint queue back-pointer broken");
          }
          if (t->blocked_on != ep->base) {
            Violate("queued thread's blocked_on does not name this endpoint");
          }
          const ThreadState expect = ep->qstate == EndpointObj::QState::kSend
                                         ? ThreadState::kBlockedOnSend
                                         : ThreadState::kBlockedOnRecv;
          if (t->state != expect) {
            Violate("endpoint queue member in wrong state: " +
                    std::string(ThreadStateName(t->state)));
          }
          resume_queued = resume_queued || t == ep->abort.resume;
          prev = t;
          n++;
        }
        if (ep->q_tail != prev) {
          Violate("endpoint queue tail broken");
        }
        if (n != ep->q_len) {
          Violate("endpoint q_len bookkeeping wrong");
        }
        if (n == 0 && ep->qstate != EndpointObj::QState::kIdle) {
          Violate("empty endpoint queue not idle");
        }
        if (n != 0 && ep->qstate == EndpointObj::QState::kIdle) {
          Violate("idle endpoint with queued threads");
        }
        // A badged abort may be in progress on an active endpoint; its
        // resume pointer must be in the queue or null.
        if (ep->abort.valid && ep->active && ep->abort.resume != nullptr && !resume_queued) {
          Violate("badged-abort resume pointer not in endpoint queue");
        }
        break;
      }
      case ObjType::kCNode: {
        // MDB (derivation tree) well-formedness.
        const auto* cn = static_cast<const CNodeObj*>(obj.get());
        for (const CapSlot& slot : cn->slots) {
          if (!Mdb::WellFormedAt(&slot)) {
            Violate("MDB link structure broken in CNode at " + std::to_string(cn->base));
          }
          // Caps must reference live objects (untyped regions exempt: their
          // object identity is the region itself).
          if (!slot.IsNull() && slot.cap.type != ObjType::kNull) {
            if (objs_.Find(slot.cap.obj) == nullptr) {
              std::ostringstream os;
              os << "cap to dead object: " << ObjTypeName(slot.cap.type) << " at "
                 << slot.cap.obj;
              Violate(os.str());
            }
          }
        }
        break;
      }
      case ObjType::kPageTable: {
        // Page-table shadow consistency (Section 3.6).
        if (config_.vspace != VSpaceKind::kShadow) {
          break;
        }
        const auto* pt = static_cast<const PageTableObj*>(obj.get());
        std::uint32_t mapped = 0;
        for (std::uint32_t i = 0; i < PageTableObj::kEntries; ++i) {
          if (pt->pte[i] != 0) {
            mapped++;
            if (i < pt->lowest_mapped) {
              Violate("page-table lowest_mapped above a live entry");
            }
            if (pt->shadow[i] == nullptr) {
              Violate("mapped PTE without shadow back-pointer");
            }
            if (pt->shadow[i]->cap.obj != pt->pte[i]) {
              Violate("shadow back-pointer names the wrong frame cap");
            }
          } else if (pt->shadow[i] != nullptr) {
            Violate("empty PTE with stale shadow back-pointer");
          }
        }
        if (mapped != pt->mapped_count) {
          Violate("page-table mapped_count bookkeeping wrong");
        }
        break;
      }
      default:
        break;
    }
  }
  // Every queued thread is flagged (checked above), so equal counts mean the
  // flagged TCBs are exactly the queued ones.
  if (flagged != queued) {
    Violate("in_run_queue flag disagrees with queue membership");
  }

  // --- Untyped regions: aligned, watermark inside. They may contain the
  // objects retyped from them and nest in one another (nesting is the
  // derivation tree's business), so no overlap check applies. ---
  for (const auto& [base, ut] : objs_.untypeds()) {
    CheckPlacement(base, *ut);
    if (ut->watermark < ut->base || ut->watermark > ut->End()) {
      Violate("untyped watermark outside its region");
    }
  }
}

}  // namespace pmk
