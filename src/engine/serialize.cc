#include "src/engine/serialize.h"

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/hw/machine.h"
#include "src/kernel/image.h"
#include "src/kernel/kernel.h"
#include "src/kernel/objects.h"
#include "src/kernel/types.h"
#include "src/kir/executor.h"

namespace pmk::engine {

namespace {

// Address sentinel for a null intrusive pointer. Distinct from 0, which is
// the idle thread's base address (real objects start at 0x0100'0000).
constexpr std::uint64_t kNullAddr = ~std::uint64_t{0};

// Defensive ceilings on decoded container sizes: reject a corrupt length
// before it turns into a multi-gigabyte allocation. Generous vs. anything the
// model can produce (the modelled board has 128 MiB of physical memory).
constexpr std::uint32_t kMaxCNodeRadixBits = 16;
constexpr std::uint32_t kMaxVectorElems = 1u << 26;

[[noreturn]] void Bad(const std::string& detail) {
  throw WireError(WireFault::kBadValue, detail);
}

std::uint8_t CheckedEnum(std::uint8_t v, std::uint8_t max, const char* what) {
  if (v > max) {
    Bad(std::string(what) + " out of range: " + std::to_string(v));
  }
  return v;
}

// Bounds-checks an element count against both the defensive ceiling and the
// bytes actually remaining in the reader (each element needs at least
// |min_elem_bytes|), so a corrupt length can neither over-allocate nor force
// a long decode loop that only fails at the end.
std::uint32_t CheckedCount(WireReader& r, std::uint32_t count, std::size_t min_elem_bytes,
                           const char* what) {
  if (count > kMaxVectorElems) {
    Bad(std::string(what) + " count too large: " + std::to_string(count));
  }
  if (static_cast<std::uint64_t>(count) * min_elem_bytes > r.remaining()) {
    throw WireError(WireFault::kTruncated,
                    std::string(what) + " count exceeds remaining payload");
  }
  return count;
}

}  // namespace

// ---------------------------------------------------------------------------
// KernelConfig
// ---------------------------------------------------------------------------

void StateSerializer::WriteKernelConfig(WireWriter& w, const KernelConfig& c) {
  w.U8(static_cast<std::uint8_t>(c.scheduler));
  w.Bool(c.scheduler_bitmap);
  w.U8(static_cast<std::uint8_t>(c.vspace));
  w.Bool(c.preemptible_clearing);
  w.Bool(c.preemptible_deletion);
  w.Bool(c.preemptible_badged_abort);
  w.Bool(c.ipc_fastpath);
  w.Bool(c.cache_pinning);
  w.Bool(c.preemptible_send_receive);
  w.U32(c.clear_chunk_bytes);
  w.U32(c.kernel_timer_line);
  w.U32(c.timeslice_ticks);
  w.U32(c.max_ep_queue);
  w.U32(c.max_lazy_stale);
  w.U32(c.max_revoke_descendants);
  w.U32(c.max_asid_pools);
  w.U32(c.max_object_bits);
}

KernelConfig StateSerializer::ReadKernelConfig(WireReader& r) {
  KernelConfig c;
  c.scheduler = static_cast<SchedulerKind>(CheckedEnum(r.U8(), 1, "SchedulerKind"));
  c.scheduler_bitmap = r.Bool();
  c.vspace = static_cast<VSpaceKind>(CheckedEnum(r.U8(), 1, "VSpaceKind"));
  c.preemptible_clearing = r.Bool();
  c.preemptible_deletion = r.Bool();
  c.preemptible_badged_abort = r.Bool();
  c.ipc_fastpath = r.Bool();
  c.cache_pinning = r.Bool();
  c.preemptible_send_receive = r.Bool();
  c.clear_chunk_bytes = r.U32();
  c.kernel_timer_line = r.U32();
  c.timeslice_ticks = r.U32();
  c.max_ep_queue = r.U32();
  c.max_lazy_stale = r.U32();
  c.max_revoke_descendants = r.U32();
  c.max_asid_pools = r.U32();
  c.max_object_bits = r.U32();
  return c;
}

// ---------------------------------------------------------------------------
// Histogram (sparse bucket pairs)
// ---------------------------------------------------------------------------

void StateSerializer::WriteHistogram(WireWriter& w, const LatencyHistogram& h) {
  w.U64(h.count_);
  w.U64(h.min_);
  w.U64(h.max_);
  w.F64(h.sum_);
  std::uint32_t n = 0;
  for (const std::uint64_t b : h.buckets_) {
    if (b != 0) {
      n++;
    }
  }
  w.U32(n);
  for (std::uint32_t i = 0; i < h.buckets_.size(); ++i) {
    if (h.buckets_[i] != 0) {
      w.U32(i);
      w.U64(h.buckets_[i]);
    }
  }
}

LatencyHistogram StateSerializer::ReadHistogram(WireReader& r) {
  LatencyHistogram h;
  h.count_ = r.U64();
  h.min_ = r.U64();
  h.max_ = r.U64();
  h.sum_ = r.F64();
  const std::uint32_t n = CheckedCount(r, r.U32(), 12, "histogram bucket");
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t index = r.U32();
    const std::uint64_t count = r.U64();
    if (index > kMaxVectorElems || count == 0) {
      Bad("histogram bucket entry invalid");
    }
    if (index >= h.buckets_.size()) {
      h.buckets_.resize(index + 1);
    }
    if (h.buckets_[index] != 0) {
      Bad("histogram bucket index repeated");
    }
    h.buckets_[index] = count;
    total += count;
  }
  if (total != h.count_) {
    Bad("histogram bucket sum disagrees with count");
  }
  return h;
}

// ---------------------------------------------------------------------------
// SerializeSystem
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> StateSerializer::SerializeSystem(const System& sys) {
  const Kernel& k = *sys.kernel_;
  const Machine& m = *sys.machine_;
  if (k.exec_.InPath()) {
    throw std::logic_error("SerializeSystem: executor is mid-path; serialize between kernel entries");
  }

  WireWriter w;
  w.U32(kSystemImageVersion);

  // --- configs ---
  WriteKernelConfig(w, sys.kernel_config);

  const auto write_cache_config = [&w](const CacheConfig& c) {
    w.Str(c.name);
    w.U32(c.size_bytes);
    w.U32(c.ways);
    w.U32(c.line_bytes);
    w.U8(static_cast<std::uint8_t>(c.policy));
  };
  const MachineConfig& mc = m.config_;
  w.U64(mc.clock.hz);
  write_cache_config(mc.l1i);
  write_cache_config(mc.l1d);
  write_cache_config(mc.l2);
  w.Bool(mc.l2_enabled);
  w.Bool(mc.bpred.enabled);
  w.U32(mc.bpred.btb_entries);
  w.U64(mc.bpred.disabled_cost);
  w.U64(mc.bpred.correct_taken);
  w.U64(mc.bpred.correct_not_taken);
  w.U64(mc.bpred.mispredict);
  w.U64(mc.memory.l2_hit_latency);
  w.U64(mc.memory.mem_latency_l2_off);
  w.U64(mc.memory.mem_latency_l2_on);
  w.U64(mc.memory.load_use_stall);
  w.U64(mc.timer_period);

  // --- machine state ---
  w.U64(m.now_);
  w.U64(m.counters_.instructions);
  w.U64(m.counters_.l1i_accesses);
  w.U64(m.counters_.l1i_misses);
  w.U64(m.counters_.l1d_accesses);
  w.U64(m.counters_.l1d_misses);
  w.U64(m.counters_.l2_accesses);
  w.U64(m.counters_.l2_misses);
  w.U64(m.counters_.branches);
  w.U64(m.counters_.branch_mispredicts);
  w.U64(m.counters_.mem_stall_cycles);

  const auto write_cache = [&w](const Cache& c) {
    w.U32(static_cast<std::uint32_t>(c.tags_.size()));
    // Tags are stored 32-bit in memory but stay 64-bit on the wire; the
    // all-ones invalid sentinel round-trips through the truncating decode.
    for (const std::uint32_t t : c.tags_) {
      w.U64(t);
    }
    w.U32(static_cast<std::uint32_t>(c.rr_next_.size()));
    for (const std::uint32_t v : c.rr_next_) {
      w.U32(v);
    }
    w.U32(c.locked_ways_);
    w.U64(c.lfsr_);
    w.U64(c.stats_.accesses);
    w.U64(c.stats_.hits);
    w.U64(c.stats_.misses);
  };
  write_cache(m.l1i_);
  write_cache(m.l1d_);
  write_cache(m.l2_);

  w.U32(static_cast<std::uint32_t>(m.bpred_.btb_.size()));
  for (const auto& e : m.bpred_.btb_) {
    w.U64(e.pc);
    w.U8(e.counter);
    w.Bool(e.valid);
  }
  w.U64(m.bpred_.mispredicts_);

  w.U32(m.irq_.pending_bits_);
  w.U32(m.irq_.masked_bits_);
  for (const Cycles t : m.irq_.assert_time_) {
    w.U64(t);
  }
  w.U64(m.irq_.spurious_acks_);
  w.U64(m.irq_.coalesced_asserts_);

  w.U64(m.timer_.period_);
  w.U64(m.timer_.next_fire_);
  // deadline_ is derived; RecomputeDeadline() restores it on decode.

  // --- kernel scalar state ---
  w.U8(static_cast<std::uint8_t>(k.exec_.charge_mode()));
  w.U64(k.alloc_next_);
  w.U32(k.bitmap_l1_);
  for (const std::uint32_t b : k.bitmap_l2_) {
    w.U32(b);
  }
  w.Bool(k.choose_new_);
  for (const Addr a : k.irq_bindings_) {
    w.U64(a);
  }
  w.U64(k.asid_pool_);
  w.U32(static_cast<std::uint32_t>(k.irq_latencies_.size()));
  for (const Cycles c : k.irq_latencies_) {
    w.U64(c);
  }
  w.U64(k.fastpath_hits_);

  // --- object heap ---
  const auto tcb_addr = [](const TcbObj* t) -> std::uint64_t {
    return t == nullptr ? kNullAddr : t->base;
  };
  const auto slot_addr = [](const CapSlot* s) -> std::uint64_t {
    return s == nullptr ? kNullAddr : s->addr;
  };
  const auto write_cap = [&w](const Cap& c) {
    w.U8(static_cast<std::uint8_t>(c.type));
    w.U64(c.obj);
    w.U64(c.badge);
    w.Bool(c.rights.read);
    w.Bool(c.rights.write);
    w.Bool(c.rights.grant);
  };
  const auto write_tcb = [&](const TcbObj& t) {
    w.U8(static_cast<std::uint8_t>(t.state));
    w.U8(t.prio);
    w.U64(t.cspace_root);
    w.U64(t.vspace);
    w.U64(tcb_addr(t.sched_next));
    w.U64(tcb_addr(t.sched_prev));
    w.Bool(t.in_run_queue);
    w.U64(tcb_addr(t.ep_next));
    w.U64(tcb_addr(t.ep_prev));
    w.U64(t.blocked_on);
    w.U64(t.blocked_badge);
    w.Bool(t.blocked_is_call);
    w.U64(tcb_addr(t.reply_to));
    for (const std::uint64_t mr : t.mrs) {
      w.U64(mr);
    }
    w.U32(t.msg_len);
    w.U64(t.recv_badge);
    w.U8(static_cast<std::uint8_t>(t.last_error));
    w.U32(t.timeslice);
    w.U32(t.recv_slot);
    w.U32(t.fault_handler_cptr);
  };
  const auto write_object = [&](const KObject& o) {
    w.U8(static_cast<std::uint8_t>(o.type));
    w.U64(o.base);
    w.U8(o.size_bits);
    switch (o.type) {
      case ObjType::kUntyped: {
        const auto& u = static_cast<const UntypedObj&>(o);
        w.U64(u.watermark);
        w.Bool(u.retype_active);
        w.U8(static_cast<std::uint8_t>(u.retype_type));
        w.U8(u.retype_bits);
        w.U64(u.retype_base);
        w.U64(u.cleared_bytes);
        break;
      }
      case ObjType::kCNode: {
        const auto& cn = static_cast<const CNodeObj&>(o);
        w.U8(cn.radix_bits);
        w.U8(cn.guard_bits);
        w.U32(cn.guard_value);
        for (const CapSlot& s : cn.slots) {
          write_cap(s.cap);
          w.U64(slot_addr(s.mdb_prev));
          w.U64(slot_addr(s.mdb_next));
          w.U16(s.mdb_depth);
          w.U64(s.addr);
        }
        break;
      }
      case ObjType::kEndpoint: {
        const auto& ep = static_cast<const EndpointObj&>(o);
        w.U8(static_cast<std::uint8_t>(ep.qstate));
        w.U64(tcb_addr(ep.q_head));
        w.U64(tcb_addr(ep.q_tail));
        w.U32(ep.q_len);
        w.Bool(ep.active);
        w.U64(ep.pending_notifications);
        w.Bool(ep.abort.valid);
        w.U64(ep.abort.badge);
        w.U64(tcb_addr(ep.abort.resume));
        w.U64(tcb_addr(ep.abort.end_marker));
        w.U64(tcb_addr(ep.abort.aborter));
        break;
      }
      case ObjType::kTcb:
        write_tcb(static_cast<const TcbObj&>(o));
        break;
      case ObjType::kFrame: {
        const auto& f = static_cast<const FrameObj&>(o);
        w.Bool(f.mapped);
        w.U32(f.asid);
        w.U64(f.mapped_pd);
        w.U64(f.vaddr);
        break;
      }
      case ObjType::kPageTable: {
        const auto& pt = static_cast<const PageTableObj&>(o);
        for (const Addr p : pt.pte) {
          w.U64(p);
        }
        for (const CapSlot* s : pt.shadow) {
          w.U64(slot_addr(s));
        }
        w.U32(pt.mapped_count);
        w.U32(pt.lowest_mapped);
        w.Bool(pt.mapped_in_pd);
        w.U64(pt.parent_pd);
        w.U32(pt.pd_index);
        break;
      }
      case ObjType::kPageDir: {
        const auto& pd = static_cast<const PageDirObj&>(o);
        for (const Addr p : pd.pde) {
          w.U64(p);
        }
        for (const bool s : pd.is_section) {
          w.Bool(s);
        }
        for (const CapSlot* s : pd.shadow) {
          w.U64(slot_addr(s));
        }
        w.U32(pd.mapped_count);
        w.U32(pd.lowest_mapped);
        w.Bool(pd.global_mappings_present);
        w.U32(pd.asid);
        break;
      }
      case ObjType::kAsidPool: {
        const auto& ap = static_cast<const AsidPoolObj&>(o);
        for (const Addr p : ap.pd) {
          w.U64(p);
        }
        break;
      }
      case ObjType::kIrqHandler: {
        const auto& ih = static_cast<const IrqHandlerObj&>(o);
        w.U32(ih.line);
        w.U64(ih.notify_ep);
        break;
      }
      default:
        throw std::logic_error("SerializeSystem: unserializable object type in heap");
    }
  };

  // Idle thread (not part of the object table; base 0 by construction).
  write_tcb(*k.idle_);

  const ObjectTable& objs = k.objs_;
  w.U32(static_cast<std::uint32_t>(objs.objects().size() + objs.untypeds().size()));
  for (const auto& [base, obj] : objs.objects()) {
    write_object(*obj);
  }
  for (const auto& [base, obj] : objs.untypeds()) {
    write_object(*obj);
  }

  // --- kernel roots ---
  for (const auto& q : k.queues_) {
    w.U64(tcb_addr(q.head));
    w.U64(tcb_addr(q.tail));
  }
  w.U64(tcb_addr(k.current_));
  w.U64(tcb_addr(k.sched_action_));

  // --- system roots ---
  w.U64(sys.root_->base);
  w.U32(sys.next_slot_);

  return w.Take();
}

// ---------------------------------------------------------------------------
// DeserializeSystem
// ---------------------------------------------------------------------------

std::unique_ptr<System> StateSerializer::DeserializeSystem(const std::uint8_t* data,
                                                           std::size_t n) {
  try {
    WireReader r(data, n);

    const std::uint32_t version = r.U32();
    if (version != kSystemImageVersion) {
      throw WireError(WireFault::kBadVersion,
                      "system image version " + std::to_string(version) + ", expected " +
                          std::to_string(kSystemImageVersion));
    }

    // --- configs ---
    const KernelConfig kc = ReadKernelConfig(r);

    const auto read_cache_config = [&r](CacheConfig& c) {
      c.name = r.Str();
      c.size_bytes = r.U32();
      c.ways = r.U32();
      c.line_bytes = r.U32();
      c.policy = static_cast<ReplacementPolicy>(CheckedEnum(r.U8(), 1, "ReplacementPolicy"));
    };
    MachineConfig mc;
    mc.clock.hz = r.U64();
    read_cache_config(mc.l1i);
    read_cache_config(mc.l1d);
    read_cache_config(mc.l2);
    mc.l2_enabled = r.Bool();
    mc.bpred.enabled = r.Bool();
    mc.bpred.btb_entries = r.U32();
    mc.bpred.disabled_cost = r.U64();
    mc.bpred.correct_taken = r.U64();
    mc.bpred.correct_not_taken = r.U64();
    mc.bpred.mispredict = r.U64();
    mc.memory.l2_hit_latency = r.U64();
    mc.memory.mem_latency_l2_off = r.U64();
    mc.memory.mem_latency_l2_on = r.U64();
    mc.memory.load_use_stall = r.U64();
    mc.timer_period = r.U64();
    if (mc.bpred.btb_entries == 0 || mc.bpred.btb_entries > kMaxVectorElems) {
      Bad("btb_entries out of range");
    }
    if (static_cast<std::uint64_t>(mc.l1i.size_bytes) + mc.l1d.size_bytes + mc.l2.size_bytes >
        (std::uint64_t{1} << 30)) {
      Bad("cache geometry too large");
    }

    // Cache geometry validation happens in the Machine constructor
    // (CacheConfig::Validate throws std::invalid_argument, mapped to
    // kBadValue by the outer catch).
    auto machine = std::make_unique<Machine>(mc);

    // --- machine state ---
    Machine& m = *machine;
    m.now_ = r.U64();
    m.counters_.instructions = r.U64();
    m.counters_.l1i_accesses = r.U64();
    m.counters_.l1i_misses = r.U64();
    m.counters_.l1d_accesses = r.U64();
    m.counters_.l1d_misses = r.U64();
    m.counters_.l2_accesses = r.U64();
    m.counters_.l2_misses = r.U64();
    m.counters_.branches = r.U64();
    m.counters_.branch_mispredicts = r.U64();
    m.counters_.mem_stall_cycles = r.U64();

    const auto read_cache = [&r](Cache& c) {
      const std::uint32_t n_tags = CheckedCount(r, r.U32(), 8, "cache tag");
      if (n_tags != c.tags_.size()) {
        Bad("cache tag count disagrees with geometry");
      }
      for (std::uint32_t& t : c.tags_) {
        t = static_cast<std::uint32_t>(r.U64());
      }
      const std::uint32_t n_rr = CheckedCount(r, r.U32(), 4, "cache rr pointer");
      if (n_rr != c.rr_next_.size()) {
        Bad("cache rr pointer count disagrees with geometry");
      }
      for (std::uint32_t& v : c.rr_next_) {
        v = r.U32();
        if (v >= c.ways_) {
          Bad("cache rr pointer out of range");
        }
      }
      c.locked_ways_ = r.U32();
      c.lfsr_ = r.U64();
      // The restore rewrote tags_: advance the line-state generation so any
      // hit memo keyed on the old contents (Cache::Gen) is invalidated.
      c.gen_++;
      c.stats_.accesses = r.U64();
      c.stats_.hits = r.U64();
      c.stats_.misses = r.U64();
    };
    read_cache(m.l1i_);
    read_cache(m.l1d_);
    read_cache(m.l2_);

    const std::uint32_t n_btb = CheckedCount(r, r.U32(), 10, "btb entry");
    if (n_btb != m.bpred_.btb_.size()) {
      Bad("btb entry count disagrees with config");
    }
    for (auto& e : m.bpred_.btb_) {
      e.pc = r.U64();
      e.counter = r.U8();
      e.valid = r.Bool();
      if (e.counter > 3) {
        Bad("btb counter out of range");
      }
    }
    m.bpred_.mispredicts_ = r.U64();

    m.irq_.pending_bits_ = r.U32();
    m.irq_.masked_bits_ = r.U32();
    for (Cycles& t : m.irq_.assert_time_) {
      t = r.U64();
    }
    m.irq_.spurious_acks_ = r.U64();
    m.irq_.coalesced_asserts_ = r.U64();

    m.timer_.period_ = r.U64();
    m.timer_.next_fire_ = r.U64();
    m.timer_.RecomputeDeadline();

    // --- kernel ---
    auto kernel = std::make_unique<Kernel>(kc, machine.get());
    Kernel& k = *kernel;
    k.exec_.set_charge_mode(
        static_cast<Executor::ChargeMode>(CheckedEnum(r.U8(), 1, "ChargeMode")));
    k.alloc_next_ = r.U64();
    k.bitmap_l1_ = r.U32();
    for (std::uint32_t& b : k.bitmap_l2_) {
      b = r.U32();
    }
    k.choose_new_ = r.Bool();
    for (Addr& a : k.irq_bindings_) {
      a = r.U64();
    }
    k.asid_pool_ = r.U64();
    const std::uint32_t n_lat = CheckedCount(r, r.U32(), 8, "irq latency");
    k.irq_latencies_.resize(n_lat);
    for (Cycles& c : k.irq_latencies_) {
      c = r.U64();
    }
    k.fastpath_hits_ = r.U64();

    // --- object heap ---
    // Pointer fields arrive as addresses; record fixups and resolve them once
    // every object exists (the same remap discipline as snapshot.cc).
    struct TcbFixup {
      TcbObj** where;
      std::uint64_t target;
    };
    struct SlotFixup {
      CapSlot** where;
      std::uint64_t target;
    };
    std::vector<TcbFixup> tcb_fixups;
    std::vector<SlotFixup> slot_fixups;
    std::map<std::uint64_t, TcbObj*> tcb_by_base;
    std::map<std::uint64_t, CapSlot*> slot_by_addr;

    const auto tcb_ref = [&](TcbObj** where) { tcb_fixups.push_back({where, r.U64()}); };
    const auto slot_ref = [&](CapSlot** where) { slot_fixups.push_back({where, r.U64()}); };

    const auto read_cap = [&](Cap& c) {
      c.type = static_cast<ObjType>(
          CheckedEnum(r.U8(), static_cast<std::uint8_t>(ObjType::kReply), "cap ObjType"));
      c.obj = r.U64();
      c.badge = r.U64();
      c.rights.read = r.Bool();
      c.rights.write = r.Bool();
      c.rights.grant = r.Bool();
    };
    const auto read_tcb = [&](TcbObj& t) {
      t.state = static_cast<ThreadState>(
          CheckedEnum(r.U8(), static_cast<std::uint8_t>(ThreadState::kIdle), "ThreadState"));
      t.prio = r.U8();
      t.cspace_root = r.U64();
      t.vspace = r.U64();
      tcb_ref(&t.sched_next);
      tcb_ref(&t.sched_prev);
      t.in_run_queue = r.Bool();
      tcb_ref(&t.ep_next);
      tcb_ref(&t.ep_prev);
      t.blocked_on = r.U64();
      t.blocked_badge = r.U64();
      t.blocked_is_call = r.Bool();
      tcb_ref(&t.reply_to);
      for (std::uint64_t& mr : t.mrs) {
        mr = r.U64();
      }
      t.msg_len = r.U32();
      t.recv_badge = r.U64();
      t.last_error = static_cast<KError>(
          CheckedEnum(r.U8(), static_cast<std::uint8_t>(KError::kDeleted), "KError"));
      t.timeslice = r.U32();
      t.recv_slot = r.U32();
      t.fault_handler_cptr = r.U32();
    };

    // Idle thread: overwrite the freshly-constructed kernel's idle TCB.
    read_tcb(*k.idle_storage_);
    if (k.idle_storage_->state != ThreadState::kIdle || k.idle_storage_->base != 0) {
      Bad("idle thread record malformed");
    }
    tcb_by_base[0] = k.idle_;

    const std::uint32_t n_objects = CheckedCount(r, r.U32(), 10, "kernel object");
    for (std::uint32_t i = 0; i < n_objects; ++i) {
      const auto type = static_cast<ObjType>(r.U8());
      const Addr base = r.U64();
      const std::uint8_t size_bits = r.U8();
      if (size_bits > 63) {
        Bad("object size_bits out of range");
      }
      std::unique_ptr<KObject> holder;
      switch (type) {
        case ObjType::kUntyped: {
          auto u = std::make_unique<UntypedObj>();
          u->watermark = r.U64();
          u->retype_active = r.Bool();
          u->retype_type = static_cast<ObjType>(
              CheckedEnum(r.U8(), static_cast<std::uint8_t>(ObjType::kReply), "retype ObjType"));
          u->retype_bits = r.U8();
          u->retype_base = r.U64();
          u->cleared_bytes = r.U64();
          holder = std::move(u);
          break;
        }
        case ObjType::kCNode: {
          auto cn = std::make_unique<CNodeObj>();
          cn->radix_bits = r.U8();
          if (cn->radix_bits > kMaxCNodeRadixBits) {
            Bad("cnode radix_bits out of range");
          }
          cn->guard_bits = r.U8();
          cn->guard_value = r.U32();
          cn->slots.resize(std::size_t{1} << cn->radix_bits);
          for (CapSlot& s : cn->slots) {
            read_cap(s.cap);
            slot_ref(&s.mdb_prev);
            slot_ref(&s.mdb_next);
            s.mdb_depth = r.U16();
            s.addr = r.U64();
          }
          holder = std::move(cn);
          break;
        }
        case ObjType::kEndpoint: {
          auto ep = std::make_unique<EndpointObj>();
          ep->qstate = static_cast<EndpointObj::QState>(CheckedEnum(r.U8(), 2, "QState"));
          tcb_ref(&ep->q_head);
          tcb_ref(&ep->q_tail);
          ep->q_len = r.U32();
          ep->active = r.Bool();
          ep->pending_notifications = r.U64();
          ep->abort.valid = r.Bool();
          ep->abort.badge = r.U64();
          tcb_ref(&ep->abort.resume);
          tcb_ref(&ep->abort.end_marker);
          tcb_ref(&ep->abort.aborter);
          holder = std::move(ep);
          break;
        }
        case ObjType::kTcb: {
          auto t = std::make_unique<TcbObj>();
          read_tcb(*t);
          holder = std::move(t);
          break;
        }
        case ObjType::kFrame: {
          auto f = std::make_unique<FrameObj>();
          f->mapped = r.Bool();
          f->asid = r.U32();
          f->mapped_pd = r.U64();
          f->vaddr = r.U64();
          holder = std::move(f);
          break;
        }
        case ObjType::kPageTable: {
          auto pt = std::make_unique<PageTableObj>();
          for (Addr& p : pt->pte) {
            p = r.U64();
          }
          for (CapSlot*& s : pt->shadow) {
            slot_ref(&s);
          }
          pt->mapped_count = r.U32();
          pt->lowest_mapped = r.U32();
          pt->mapped_in_pd = r.Bool();
          pt->parent_pd = r.U64();
          pt->pd_index = r.U32();
          holder = std::move(pt);
          break;
        }
        case ObjType::kPageDir: {
          auto pd = std::make_unique<PageDirObj>();
          for (Addr& p : pd->pde) {
            p = r.U64();
          }
          for (bool& s : pd->is_section) {
            s = r.Bool();
          }
          for (CapSlot*& s : pd->shadow) {
            slot_ref(&s);
          }
          pd->mapped_count = r.U32();
          pd->lowest_mapped = r.U32();
          pd->global_mappings_present = r.Bool();
          pd->asid = r.U32();
          holder = std::move(pd);
          break;
        }
        case ObjType::kAsidPool: {
          auto ap = std::make_unique<AsidPoolObj>();
          for (Addr& p : ap->pd) {
            p = r.U64();
          }
          holder = std::move(ap);
          break;
        }
        case ObjType::kIrqHandler: {
          auto ih = std::make_unique<IrqHandlerObj>();
          ih->line = r.U32();
          ih->notify_ep = r.U64();
          holder = std::move(ih);
          break;
        }
        default:
          Bad("heap ObjType out of range: " + std::to_string(static_cast<unsigned>(type)));
      }
      holder->type = type;
      holder->base = base;
      holder->size_bits = size_bits;

      // InsertUnchecked silently ignores a duplicate key (std::map::emplace),
      // so duplicates must be rejected here.
      const bool dup = type == ObjType::kUntyped ? k.objs_.untypeds().count(base) != 0
                                                 : k.objs_.objects().count(base) != 0;
      if (dup) {
        Bad("duplicate object base " + std::to_string(base));
      }
      KObject* inserted = k.objs_.InsertUnchecked(std::move(holder));
      if (auto* t = dynamic_cast<TcbObj*>(inserted)) {
        if (t->base == 0 || !tcb_by_base.emplace(t->base, t).second) {
          Bad("tcb base collides");
        }
      } else if (auto* cn = dynamic_cast<CNodeObj*>(inserted)) {
        for (CapSlot& s : cn->slots) {
          if (!slot_by_addr.emplace(s.addr, &s).second) {
            Bad("cap slot address collides");
          }
        }
      }
    }

    // --- resolve pointer fixups ---
    for (const TcbFixup& f : tcb_fixups) {
      if (f.target == kNullAddr) {
        *f.where = nullptr;
        continue;
      }
      const auto it = tcb_by_base.find(f.target);
      if (it == tcb_by_base.end()) {
        Bad("dangling tcb pointer to base " + std::to_string(f.target));
      }
      *f.where = it->second;
    }
    for (const SlotFixup& f : slot_fixups) {
      if (f.target == kNullAddr) {
        *f.where = nullptr;
        continue;
      }
      const auto it = slot_by_addr.find(f.target);
      if (it == slot_by_addr.end()) {
        Bad("dangling cap slot pointer to addr " + std::to_string(f.target));
      }
      *f.where = it->second;
    }

    // --- kernel roots ---
    const auto tcb_at = [&](std::uint64_t addr, const char* what) -> TcbObj* {
      if (addr == kNullAddr) {
        return nullptr;
      }
      const auto it = tcb_by_base.find(addr);
      if (it == tcb_by_base.end()) {
        Bad(std::string("dangling ") + what + " pointer");
      }
      return it->second;
    };
    for (auto& q : k.queues_) {
      q.head = tcb_at(r.U64(), "run queue head");
      q.tail = tcb_at(r.U64(), "run queue tail");
    }
    k.current_ = tcb_at(r.U64(), "current thread");
    if (k.current_ == nullptr) {
      Bad("current thread is null");
    }
    k.sched_action_ = tcb_at(r.U64(), "scheduler action");

    // --- system roots ---
    auto sys = std::unique_ptr<System>(new System());
    sys->kernel_config = kc;
    sys->machine_config = mc;
    const Addr root_base = r.U64();
    sys->next_slot_ = r.U32();
    r.ExpectEnd("system image");

    sys->machine_ = std::move(machine);
    sys->kernel_ = std::move(kernel);
    sys->root_ = sys->kernel_->objects().Get<CNodeObj>(root_base);
    if (sys->root_ == nullptr) {
      Bad("root cnode missing from heap");
    }

    // Decoded state must satisfy the kernel's own invariants; a payload that
    // decodes cleanly but describes an inconsistent heap is still corrupt.
    sys->kernel_->CheckInvariants();
    return sys;
  } catch (const WireError&) {
    throw;
  } catch (const std::exception& e) {
    // Cache geometry rejections, invariant violations, anything else the
    // constructors throw: surface uniformly as corrupt-payload errors.
    throw WireError(WireFault::kBadValue, e.what());
  }
}

// ---------------------------------------------------------------------------
// KernelImageDigest
// ---------------------------------------------------------------------------

std::uint64_t StateSerializer::KernelImageDigest(const KernelConfig& config) {
  WireWriter w;
  w.U32(kSystemImageVersion);
  WriteKernelConfig(w, config);
  const std::shared_ptr<const KernelImage> image = SharedKernelImage(config);
  const Program& prog = image->prog;
  w.U64(prog.num_blocks());
  w.U64(prog.text_bytes());
  for (BlockId id = 0; id < prog.num_blocks(); ++id) {
    const Block& b = prog.block(id);
    w.U64(b.address);
    w.U32(b.instr_count);
    w.U32(b.raw_cycles);
    w.U32(static_cast<std::uint32_t>(b.static_accesses.size()));
    for (const StaticAccess& a : b.static_accesses) {
      w.U64(prog.ResolveStatic(b, a));
      w.Bool(a.write);
    }
    w.U32(static_cast<std::uint32_t>(b.succs.size()));
    for (const BlockId s : b.succs) {
      w.U32(s);
    }
    w.U32(b.callee);
    w.U8(static_cast<std::uint8_t>(b.branch));
    w.Bool(b.is_return);
    w.Bool(b.is_preemption_point);
  }
  return Fnv1a64(w.bytes().data(), w.bytes().size());
}

}  // namespace pmk::engine
