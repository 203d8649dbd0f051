#include "src/kernel/image.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/base/digest.h"
#include "src/kernel/objects.h"
#include "src/kir/digest.h"

namespace pmk {

namespace {

// Register allocation for loop-control semantics (per function, saved and
// restored across calls by the executor).
constexpr std::uint8_t kRegDecode = 0;
constexpr std::uint8_t kRegMsg = 1;
constexpr std::uint8_t kRegCaps = 2;
constexpr std::uint8_t kRegSched = 3;
constexpr std::uint8_t kRegAsid = 4;
constexpr std::uint8_t kRegPt = 5;
constexpr std::uint8_t kRegPd = 6;
constexpr std::uint8_t kRegChunks = 7;
constexpr std::uint8_t kRegEp = 8;
constexpr std::uint8_t kRegRevoke = 9;

// Closed-system bounds assumed by the static analysis for loops that have no
// preemption point (the "before" kernel): maximum threads queued on one
// endpoint (also a global bound on endpoint-cancellation work, since the
// thread population bounds the sum over all queues), maximum threads that
// lazy scheduling can leave stranded in the run queues, maximum descendants
// of a revoked capability, and ASID-pool deletions per kernel path.
constexpr std::uint32_t kMaxEpQueue = 256;
constexpr std::uint32_t kMaxLazyStale = 100;
constexpr std::uint32_t kMaxRevokeDescendants = 256;
constexpr std::uint32_t kMaxAsidPools = 1;

// Fluent helper for declaring one kir function's blocks.
class FB {
 public:
  FB(Program& p, FuncId fn, const char* prefix) : p_(p), fn_(fn), prefix_(prefix) {}

  // Plain block with |instr| instructions, |dyn| dynamic accesses and a
  // handful of stack accesses proportional to its size.
  BlockId b(const char* n, std::uint32_t instr, std::uint32_t dyn = 0) {
    Block blk;
    blk.name = std::string(prefix_) + "." + n;
    blk.instr_count = instr;
    blk.max_dynamic_accesses = dyn;
    const std::uint32_t stack_accesses = std::min<std::uint32_t>(instr / 8, 6);
    for (std::uint32_t i = 0; i < stack_accesses; ++i) {
      StaticAccess a;
      a.region = StaticAccess::Region::kStack;
      a.offset = i * 8;
      a.write = (i % 2) == 1;
      blk.static_accesses.push_back(a);
    }
    return p_.AddBlock(fn_, std::move(blk));
  }

  BlockId ret(const char* n, std::uint32_t instr, std::uint32_t dyn = 0) {
    const BlockId id = b(n, instr, dyn);
    p_.mutable_block(id).is_return = true;
    return id;
  }

  BlockId call(const char* n, FuncId callee, std::uint32_t instr = 4) {
    const BlockId id = b(n, instr);
    p_.mutable_block(id).callee = callee;
    return id;
  }

  // Preemption point: reads the interrupt controller's pending word;
  // succs[0] continues, succs[1] takes the preempted exit.
  BlockId preempt(const char* n, SymId irq_state) {
    const BlockId id = b(n, 5);
    Block& blk = p_.mutable_block(id);
    blk.is_preemption_point = true;
    StaticAccess a;
    a.region = StaticAccess::Region::kGlobal;
    a.symbol = irq_state;
    a.offset = 0;
    blk.static_accesses.push_back(a);
    return id;
  }

  void e(BlockId from, BlockId to) { p_.AddEdge(from, to); }

  Block& m(BlockId id) { return p_.mutable_block(id); }

  // Adds a global static access.
  void g(BlockId id, SymId sym, std::uint32_t off, bool write = false) {
    StaticAccess a;
    a.region = StaticAccess::Region::kGlobal;
    a.symbol = sym;
    a.offset = off;
    a.write = write;
    m(id).static_accesses.push_back(a);
  }

  void rconst(BlockId id, std::uint8_t r, std::int64_t v) {
    m(id).reg_ops.push_back({RegOp::Kind::kConst, r, 0, v});
  }
  void rdec(BlockId id, std::uint8_t r) {
    m(id).reg_ops.push_back({RegOp::Kind::kAdd, r, 0, -1});
  }
  // Guard "r >= 1" deciding the taken edge. |one_sided| allows early exit.
  void guard(BlockId id, std::uint8_t r, bool one_sided) {
    Block& blk = m(id);
    blk.cond.cmp = BranchCond::Cmp::kGe;
    blk.cond.lhs = r;
    blk.cond.rhs_is_imm = true;
    blk.cond.rhs_imm = 1;
    blk.cond.one_sided = one_sided;
  }
  void input(BlockId loop_head, std::uint8_t r, std::int64_t lo, std::int64_t hi) {
    m(loop_head).loop_inputs.push_back({r, lo, hi});
  }

 private:
  Program& p_;
  FuncId fn_;
  const char* prefix_;
};

}  // namespace

const char* EntryPointName(EntryPoint e) {
  switch (e) {
    case EntryPoint::kSyscall:
      return "System call";
    case EntryPoint::kUndefined:
      return "Undefined instruction";
    case EntryPoint::kPageFault:
      return "Page fault";
    case EntryPoint::kInterrupt:
      return "Interrupt";
  }
  return "?";
}

std::unique_ptr<KernelImage> BuildKernelImage(const KernelConfig& config) {
  auto img = std::make_unique<KernelImage>();
  img->config = config;
  Program& p = img->prog;
  KernelSyms& s = img->syms;
  KernelBlocks& kb = img->b;

  // ---- Data symbols ----
  s.cur_thread = p.AddSymbol("ksCurThread", 8);
  s.sched_action = p.AddSymbol("ksSchedulerAction", 8);
  s.bitmap_l1 = p.AddSymbol("ksReadyQueuesL1Bitmap", 4);
  s.bitmap_l2 = p.AddSymbol("ksReadyQueuesL2Bitmap", 32);
  s.runqueues = p.AddSymbol("ksReadyQueues", 256 * 8);
  s.irq_state = p.AddSymbol("avicRegs", 64);
  s.irq_bindings = p.AddSymbol("intStateIRQNode", 32 * 8);
  s.asid_root = p.AddSymbol("armKSASIDTable", 256 * 4);
  s.globals = p.AddSymbol("ksGlobals", 128);
  s.fastpath = p.AddSymbol("fastpathScratch", 64);

  const bool lazy = config.scheduler == SchedulerKind::kLazy;
  const bool bitmap = config.scheduler_bitmap;
  const bool asid = config.vspace == VSpaceKind::kAsid;
  const bool pclear = config.preemptible_clearing;
  const bool pdel = config.preemptible_deletion;
  const bool pbadge = config.preemptible_badged_abort;
  const std::uint32_t max_chunks =
      (1u << KernelConfig::kMaxObjectBits) / config.clear_chunk_bytes;

  // ---- Function ids (created first so call blocks can reference them) ----
  kb.sys.fn = p.AddFunction("sys_entry", 96);
  kb.irq.fn = p.AddFunction("irq_entry", 64);
  kb.fault.fn = p.AddFunction("fault_entry", 64);
  kb.undef.fn = p.AddFunction("undef_entry", 64);
  kb.call_h.fn = p.AddFunction("handle_call", 48);
  kb.send_h.fn = p.AddFunction("handle_send", 48);
  kb.recv_h.fn = p.AddFunction("handle_recv", 48);
  kb.rr_h.fn = p.AddFunction("handle_reply_recv", 48);
  kb.yield_h.fn = p.AddFunction("handle_yield", 32);
  kb.dec.fn = p.AddFunction("decode_cap", 40);
  kb.send.fn = p.AddFunction("ipc_send", 56);
  kb.recv.fn = p.AddFunction("ipc_recv", 56);
  kb.reply.fn = p.AddFunction("do_reply", 40);
  kb.xfer.fn = p.AddFunction("do_transfer", 56);
  if (config.ipc_fastpath) {
    kb.fast.fn = p.AddFunction("fastpath_call", 48);
  }
  kb.choose.fn = p.AddFunction("sched_choose", 32);
  kb.enq.fn = p.AddFunction("sched_enqueue", 32);
  kb.deq.fn = p.AddFunction("sched_dequeue", 32);
  kb.asw.fn = p.AddFunction("attempt_switch", 32);
  kb.sched.fn = p.AddFunction("schedule", 40);
  kb.hirq.fn = p.AddFunction("handle_interrupt", 40);
  kb.ntf.fn = p.AddFunction("notify", 40);
  kb.inv.fn = p.AddFunction("invoke", 48);
  kb.retype.fn = p.AddFunction("untyped_retype", 64);
  kb.capdel.fn = p.AddFunction("cap_delete", 48);
  kb.cnodedel.fn = p.AddFunction("cnode_delete", 40);
  kb.revoke.fn = p.AddFunction("cnode_revoke", 48);
  kb.mint.fn = p.AddFunction("cnode_mint", 48);
  kb.destroy.fn = p.AddFunction("destroy_object", 48);
  kb.epcall.fn = p.AddFunction("ep_cancel_all", 48);
  kb.epcb.fn = p.AddFunction("ep_cancel_badged", 56);
  kb.tcb.fn = p.AddFunction("tcb_invoke", 48);
  kb.irqinv.fn = p.AddFunction("irq_invoke", 32);
  if (asid) {
    kb.asid_alloc.fn = p.AddFunction("asid_alloc", 32);
    kb.pool_del.fn = p.AddFunction("asid_pool_delete", 32);
    kb.pdda.fn = p.AddFunction("pd_delete_asid", 32);
  } else {
    kb.ptdel.fn = p.AddFunction("pt_delete", 48);
    kb.pdds.fn = p.AddFunction("pd_delete_shadow", 56);
  }
  kb.fmap.fn = p.AddFunction("frame_map", 40);
  kb.funmap.fn = p.AddFunction("frame_unmap", 40);
  kb.ptmap.fn = p.AddFunction("pt_map", 40);

  // ---- decode_cap (Figure 7) ----
  {
    FB f(p, kb.dec.fn, "dec");
    auto& d = kb.dec;
    d.entry = f.b("entry", 8, 1);
    f.rconst(d.entry, kRegDecode, 32);
    d.loop = f.b("loop", 12, 2);  // guard check + slot fetch, one level
    f.rdec(d.loop, kRegDecode);
    f.guard(d.loop, kRegDecode, /*one_sided=*/true);
    d.done = f.b("done", 5, 1);
    d.ok = f.ret("ok", 3);
    d.fail = f.ret("fail", 3);
    f.e(d.entry, d.loop);  // fall: walk the cspace
    f.e(d.entry, d.done);  // taken: no valid root, fail fast
    f.e(d.loop, d.done);   // fall-through: lookup finished
    f.e(d.loop, d.loop);   // taken: another level
    f.e(d.done, d.ok);     // fall-through: valid
    f.e(d.done, d.fail);   // taken: lookup fault
  }

  // ---- do_transfer ----
  {
    FB f(p, kb.xfer.fn, "xfer");
    auto& x = kb.xfer;
    x.entry = f.b("entry", 10, 2);
    f.guard(x.entry, kRegMsg, /*one_sided=*/false);
    x.loop = f.b("loop", 6, 2);  // copy one message register
    f.rdec(x.loop, kRegMsg);
    f.guard(x.loop, kRegMsg, /*one_sided=*/false);
    f.input(x.loop, kRegMsg, 0, KernelConfig::kMaxMsgWords);
    x.caps_check = f.b("caps_check", 5, 1);
    f.guard(x.caps_check, kRegCaps, /*one_sided=*/false);
    x.cap_one = f.call("cap_one", kb.dec.fn, 6);
    f.input(x.cap_one, kRegCaps, 0, KernelConfig::kMaxExtraCaps);
    x.cap_ins = f.b("cap_ins", 10, 4);  // derive + MDB insert
    f.rdec(x.cap_ins, kRegCaps);
    f.guard(x.cap_ins, kRegCaps, /*one_sided=*/false);
    x.done = f.ret("done", 4);
    f.e(x.entry, x.caps_check);  // fall: empty message
    f.e(x.entry, x.loop);        // taken: copy words
    f.e(x.loop, x.caps_check);   // fall: done copying
    f.e(x.loop, x.loop);         // taken: next word
    f.e(x.caps_check, x.done);   // fall: no caps
    f.e(x.caps_check, x.cap_one);
    f.e(x.cap_one, x.cap_ins);
    f.e(x.cap_ins, x.done);     // fall: no more caps
    f.e(x.cap_ins, x.cap_one);  // taken: next cap
  }

  // ---- sched_enqueue / sched_dequeue ----
  for (int which = 0; which < 2; ++which) {
    auto& q = which == 0 ? kb.enq : kb.deq;
    FB f(p, q.fn, which == 0 ? "enq" : "deq");
    q.entry = f.b("entry", 6, 2);  // cond: nothing to do?
    q.link = f.b("link", 9, 3);    // head/tail/neighbour links
    f.g(q.link, s.runqueues, 0, true);
    q.ret = f.ret("ret", 2);
    if (bitmap) {
      q.bitmap = f.b("bitmap", 5, 0);
      f.g(q.bitmap, s.bitmap_l1, 0, true);
      f.g(q.bitmap, s.bitmap_l2, 0, true);
      f.e(q.entry, q.link);  // fall: do the work
      f.e(q.entry, q.ret);   // taken: early out
      f.e(q.link, q.bitmap);
      f.e(q.bitmap, q.ret);
    } else {
      f.e(q.entry, q.link);
      f.e(q.entry, q.ret);
      f.e(q.link, q.ret);
    }
  }

  // ---- sched_choose (Sections 3.1, 3.2) ----
  {
    FB f(p, kb.choose.fn, "choose");
    auto& c = kb.choose;
    if (lazy) {
      c.lz_entry = f.b("lz_entry", 4, 0);
      // +1: the guard is evaluated before each priority is examined (in
      // lz_head), so visiting all 256 priorities takes 257 loop entries.
      f.rconst(c.lz_entry, kRegSched, KernelConfig::kNumPriorities + 1);
      c.lz_outer = f.b("lz_outer", 4, 0);
      f.rdec(c.lz_outer, kRegSched);
      f.guard(c.lz_outer, kRegSched, /*one_sided=*/true);
      c.lz_head = f.b("lz_head", 4, 1);
      c.lz_runnable = f.b("lz_runnable", 6, 2);
      c.lz_deq = f.b("lz_deq", 9, 3);
      f.m(c.lz_deq).absolute_exec_bound = kMaxLazyStale;
      f.g(c.lz_deq, s.runqueues, 0, true);
      c.lz_found = f.ret("lz_found", 3);
      c.lz_idle = f.ret("lz_idle", 3);
      f.e(c.lz_entry, c.lz_outer);
      f.e(c.lz_outer, c.lz_idle);  // fall: priorities exhausted
      f.e(c.lz_outer, c.lz_head);  // taken: examine this priority
      f.e(c.lz_head, c.lz_outer);      // fall: queue empty, next priority
      f.e(c.lz_head, c.lz_runnable);   // taken: head exists
      f.e(c.lz_runnable, c.lz_deq);    // fall: blocked, dequeue it
      f.e(c.lz_runnable, c.lz_found);  // taken: runnable
      f.e(c.lz_deq, c.lz_head);
    } else if (bitmap) {
      c.bb_entry = f.b("bb_entry", 8, 0);  // two loads + two CLZ
      f.g(c.bb_entry, s.bitmap_l1, 0, false);
      f.g(c.bb_entry, s.bitmap_l2, 0, false);
      c.bb_empty = f.b("bb_empty", 2, 0);
      // Found: read the head and dequeue it (switchToThread dequeues).
      c.bb_found = f.ret("bb_found", 9, 3);
      f.g(c.bb_found, s.bitmap_l1, 0, true);
      f.g(c.bb_found, s.bitmap_l2, 0, true);
      c.bb_idle = f.ret("bb_idle", 3, 0);
      f.e(c.bb_entry, c.bb_empty);
      f.e(c.bb_empty, c.bb_found);  // fall: bitmap non-zero
      f.e(c.bb_empty, c.bb_idle);   // taken: nothing runnable
    } else {
      c.bn_entry = f.b("bn_entry", 4, 0);
      f.rconst(c.bn_entry, kRegSched, KernelConfig::kNumPriorities);
      c.bn_loop = f.b("bn_loop", 5, 1);  // read head of this priority
      f.rdec(c.bn_loop, kRegSched);
      f.guard(c.bn_loop, kRegSched, /*one_sided=*/true);
      c.bn_done = f.b("bn_done", 2, 0);
      c.bn_found = f.ret("bn_found", 8, 3);  // dequeue the chosen head
      c.bn_idle = f.ret("bn_idle", 3, 0);
      f.e(c.bn_entry, c.bn_loop);
      f.e(c.bn_loop, c.bn_done);  // fall: found or exhausted
      f.e(c.bn_loop, c.bn_loop);  // taken: next priority
      f.e(c.bn_done, c.bn_idle);   // fall: exhausted
      f.e(c.bn_done, c.bn_found);  // taken: found
    }
  }

  // ---- attempt_switch ----
  {
    FB f(p, kb.asw.fn, "asw");
    auto& a = kb.asw;
    a.entry = f.b("entry", 6, 2);
    a.ret = f.ret("ret", 2);
    a.enqueue = f.call("enqueue", kb.enq.fn);
    if (lazy) {
      a.lazy_skip = f.b("lazy_skip", 5, 1);
      f.e(a.entry, a.lazy_skip);
      f.e(a.lazy_skip, a.enqueue);  // fall: not in queue, enqueue
      f.e(a.lazy_skip, a.ret);      // taken: already queued, nothing to do
      f.e(a.enqueue, a.ret);
    } else {
      a.higher = f.b("higher", 4, 0);
      a.direct = f.b("direct", 5, 0);
      f.g(a.direct, s.sched_action, 0, true);
      f.e(a.entry, a.higher);
      f.e(a.higher, a.enqueue);  // fall: lower priority, queue it
      f.e(a.higher, a.direct);   // taken: direct switch
      f.e(a.direct, a.ret);
      f.e(a.enqueue, a.ret);
    }
  }

  // ---- schedule ----
  {
    FB f(p, kb.sched.fn, "sched");
    auto& c = kb.sched;
    c.entry = f.b("entry", 5, 1);
    f.g(c.entry, s.cur_thread, 0, false);
    c.fast = f.b("fast", 4, 0);
    f.g(c.fast, s.sched_action, 0, false);
    c.requeue = f.b("requeue", 4, 1);
    c.requeue_call = f.call("requeue_call", kb.enq.fn);
    c.choose = f.call("choose", kb.choose.fn);
    c.switch_to = f.b("switch_to", 12, 3);
    f.m(c.switch_to).raw_cycles = 10;
    f.g(c.switch_to, s.cur_thread, 0, true);
    f.g(c.switch_to, s.sched_action, 0, true);
    c.ret = f.ret("ret", 3);
    // Re-enter the (still runnable) outgoing thread first — this is Benno
    // scheduling's lazy enqueue of the preempted thread (Section 3.1) — then
    // honour a pending direct-switch action, else pick from the run queues.
    f.e(c.entry, c.requeue);
    f.e(c.requeue, c.fast);          // fall: nothing to requeue
    f.e(c.requeue, c.requeue_call);  // taken: re-enter current thread
    f.e(c.requeue_call, c.fast);
    f.e(c.fast, c.choose);     // fall: no direct-switch action
    f.e(c.fast, c.switch_to);  // taken: direct switch
    f.e(c.choose, c.switch_to);
    f.e(c.switch_to, c.ret);
  }

  // ---- notify ----
  {
    FB f(p, kb.ntf.fn, "ntf");
    auto& n = kb.ntf;
    n.entry = f.b("entry", 6, 2);
    n.waiter = f.b("waiter", 4, 1);
    n.deq = f.b("deq", 8, 3);
    n.wake = f.call("wake", kb.asw.fn);
    n.pend = f.b("pend", 4, 1);
    n.ret = f.ret("ret", 2);
    f.e(n.entry, n.waiter);
    f.e(n.waiter, n.pend);  // fall: nobody waiting, latch the bit
    f.e(n.waiter, n.deq);   // taken: wake the waiter
    f.e(n.deq, n.wake);
    f.e(n.wake, n.ret);
    f.e(n.pend, n.ret);
  }

  // ---- handle_interrupt ----
  {
    FB f(p, kb.hirq.fn, "hirq");
    auto& h = kb.hirq;
    h.entry = f.b("entry", 9, 0);
    f.g(h.entry, s.irq_state, 0, false);
    f.g(h.entry, s.irq_state, 4, true);  // ack
    h.valid = f.b("valid", 3, 0);
    h.binding = f.b("binding", 6, 1);
    h.notify = f.call("notify", kb.ntf.fn);
    h.spurious = f.b("spurious", 2, 0);
    h.ret = f.ret("ret", 3, 0);
    f.e(h.entry, h.valid);
    if (config.kernel_timer_line != KernelConfig::kNoKernelTimer) {
      // Kernel preemption timer: timeslice accounting and round-robin.
      h.d_timer = f.b("d_timer", 2, 0);
      h.tick = f.b("tick", 8, 1);
      f.g(h.tick, s.cur_thread, 0, false);
      f.e(h.valid, h.spurious);  // fall: no/unbound line
      f.e(h.valid, h.d_timer);   // taken
      f.e(h.d_timer, h.binding);  // fall: device interrupt
      f.e(h.d_timer, h.tick);     // taken: the kernel's own timer
      f.e(h.tick, h.ret);
    } else {
      f.e(h.valid, h.spurious);  // fall: no/unbound line
      f.e(h.valid, h.binding);   // taken
    }
    f.e(h.binding, h.notify);
    f.e(h.notify, h.ret);
    f.e(h.spurious, h.ret);
  }

  // ---- ipc_send ----
  {
    FB f(p, kb.send.fn, "send");
    auto& i = kb.send;
    i.entry = f.b("entry", 10, 2);
    i.active = f.b("active", 3, 0);
    i.err = f.ret("err", 3, 1);
    i.has_recv = f.b("has_recv", 4, 1);
    i.deq = f.b("deq", 8, 3);
    i.xfer = f.call("xfer", kb.xfer.fn);
    i.wake = f.call("wake", kb.asw.fn);
    i.reply_setup = f.b("reply_setup", 6, 2);  // cond: is this a Call?
    i.block_caller = f.b("block_caller", 5, 1);
    i.no_reply = f.b("no_reply", 2, 0);
    i.queue = f.b("queue", 10, 3);
    i.ret = f.ret("ret", 3);
    f.e(i.entry, i.active);
    f.e(i.active, i.has_recv);  // fall: endpoint live
    f.e(i.active, i.err);       // taken: deactivated
    f.e(i.has_recv, i.queue);   // fall: no receiver, block
    f.e(i.has_recv, i.deq);     // taken: receiver waiting
    f.e(i.deq, i.xfer);
    f.e(i.xfer, i.wake);
    f.e(i.wake, i.reply_setup);
    f.e(i.reply_setup, i.no_reply);      // fall: plain send
    f.e(i.reply_setup, i.block_caller);  // taken: Call
    f.e(i.block_caller, i.ret);
    f.e(i.no_reply, i.ret);
    f.e(i.queue, i.ret);
  }

  // ---- ipc_recv ----
  {
    FB f(p, kb.recv.fn, "recv");
    auto& i = kb.recv;
    i.entry = f.b("entry", 10, 2);
    i.active = f.b("active", 3, 0);
    i.err = f.ret("err", 3, 1);
    i.notif = f.b("notif", 4, 1);
    i.notif_deliver = f.ret("notif_deliver", 6, 1);
    i.has_send = f.b("has_send", 4, 1);
    i.deq = f.b("deq", 8, 3);
    i.xfer = f.call("xfer", kb.xfer.fn);
    i.sender_call = f.b("sender_call", 4, 1);
    i.sender_set = f.b("sender_set", 6, 2);
    i.sender_wake = f.call("sender_wake", kb.asw.fn);
    i.queue = f.b("queue", 8, 3);
    i.ret = f.ret("ret", 3);
    f.e(i.entry, i.active);
    f.e(i.active, i.notif);  // fall: endpoint live
    f.e(i.active, i.err);    // taken: deactivated
    f.e(i.notif, i.has_send);      // fall: no pending notification
    f.e(i.notif, i.notif_deliver); // taken: deliver latched notification
    f.e(i.has_send, i.queue);  // fall: nobody sending, block
    f.e(i.has_send, i.deq);    // taken
    f.e(i.deq, i.xfer);
    f.e(i.xfer, i.sender_call);
    f.e(i.sender_call, i.sender_wake);  // fall: plain sender, wake it
    f.e(i.sender_call, i.sender_set);   // taken: Call; it awaits reply
    f.e(i.sender_set, i.ret);
    f.e(i.sender_wake, i.ret);
    f.e(i.queue, i.ret);
  }

  // ---- do_reply ----
  {
    FB f(p, kb.reply.fn, "reply");
    auto& r = kb.reply;
    r.entry = f.b("entry", 5, 1);
    r.none = f.ret("none", 2, 0);
    r.xfer = f.call("xfer", kb.xfer.fn);
    r.wake = f.call("wake", kb.asw.fn);
    r.ret = f.ret("ret", 3, 1);
    f.e(r.entry, r.none);  // fall: nobody awaiting a reply
    f.e(r.entry, r.xfer);  // taken
    f.e(r.xfer, r.wake);
    f.e(r.wake, r.ret);
  }

  // ---- fastpath ----
  if (config.ipc_fastpath) {
    FB f(p, kb.fast.fn, "fast");
    auto& fp = kb.fast;
    fp.entry = f.b("entry", 40, 4);
    f.g(fp.entry, s.fastpath, 0, false);
    fp.do_it = f.b("do_it", 60, 8);
    f.g(fp.do_it, s.cur_thread, 0, true);
    fp.hit = f.ret("hit", 10, 1);
    fp.miss = f.ret("miss", 3, 0);
    f.e(fp.entry, fp.do_it);  // fall: eligible
    f.e(fp.entry, fp.miss);   // taken: bail to slowpath
    f.e(fp.do_it, fp.hit);
  }

  // ---- asid functions / shadow delete functions (Section 3.6) ----
  if (asid) {
    {
      FB f(p, kb.asid_alloc.fn, "aal");
      auto& a = kb.asid_alloc;
      a.entry = f.b("entry", 6, 1);
      f.g(a.entry, s.asid_root, 0, false);
      f.rconst(a.entry, kRegAsid, AsidPoolObj::kEntries);
      a.loop = f.b("loop", 5, 1);
      f.rdec(a.loop, kRegAsid);
      f.guard(a.loop, kRegAsid, /*one_sided=*/true);
      a.chk = f.b("chk", 2, 0);
      a.found = f.ret("found", 6, 2);
      a.fail = f.ret("fail", 3, 0);
      f.e(a.entry, a.loop);
      f.e(a.loop, a.chk);   // fall: stop scanning
      f.e(a.loop, a.loop);  // taken: next slot
      f.e(a.chk, a.fail);   // fall: exhausted
      f.e(a.chk, a.found);  // taken
    }
    {
      FB f(p, kb.pool_del.fn, "apd");
      auto& a = kb.pool_del;
      a.entry = f.b("entry", 6, 1);
      f.m(a.entry).absolute_exec_bound = kMaxAsidPools;
      f.rconst(a.entry, kRegAsid, AsidPoolObj::kEntries);
      a.loop = f.b("loop", 6, 2);
      f.m(a.loop).raw_cycles = 4;  // per-entry TLB maintenance
      f.rdec(a.loop, kRegAsid);
      f.guard(a.loop, kRegAsid, /*one_sided=*/false);
      a.ret = f.ret("ret", 3, 0);
      f.e(a.entry, a.loop);
      f.e(a.loop, a.ret);   // fall: all 1024 entries visited
      f.e(a.loop, a.loop);  // taken
    }
    {
      FB f(p, kb.pdda.fn, "pdd");
      auto& a = kb.pdda;
      a.entry = f.b("entry", 8, 2);
      f.m(a.entry).raw_cycles = 50;  // TLB flush by ASID
      a.ret = f.ret("ret", 3, 0);
      f.e(a.entry, a.ret);
    }
  } else {
    {
      FB f(p, kb.ptdel.fn, "ptd");
      auto& t = kb.ptdel;
      t.entry = f.b("entry", 8, 2);
      t.head = f.b("head", 4, 0);
      f.guard(t.head, kRegPt, /*one_sided=*/true);
      f.input(t.head, kRegPt, 0, PageTableObj::kEntries);
      t.unmap = f.b("unmap", 10, 4);
      f.rdec(t.unmap, kRegPt);
      t.done = f.b("done", 6, 2);
      t.ret = f.ret("ret", 3, 0);
      if (pdel) {
        t.preempt = f.preempt("preempt", s.irq_state);
        t.preempted = f.ret("preempted", 4, 0);
        f.e(t.entry, t.head);
        f.e(t.head, t.done);   // fall: finished
        f.e(t.head, t.unmap);  // taken
        f.e(t.unmap, t.preempt);
        f.e(t.preempt, t.head);       // fall: continue
        f.e(t.preempt, t.preempted);  // taken: IRQ pending
        f.e(t.done, t.ret);
      } else {
        f.e(t.entry, t.head);
        f.e(t.head, t.done);
        f.e(t.head, t.unmap);
        f.e(t.unmap, t.head);
        f.e(t.done, t.ret);
      }
    }
    {
      FB f(p, kb.pdds.fn, "pds");
      auto& d = kb.pdds;
      d.entry = f.b("entry", 8, 2);
      d.head = f.b("head", 4, 0);
      f.guard(d.head, kRegPd, /*one_sided=*/true);
      f.input(d.head, kRegPd, 0, PageDirObj::kUserEntries);
      d.read = f.b("read", 6, 2);
      f.rdec(d.read, kRegPd);
      d.is_sec = f.b("is_sec", 3, 0);
      d.sec = f.b("sec", 8, 3);
      f.m(d.sec).raw_cycles = 10;
      d.pt = f.call("pt", kb.ptdel.fn);
      d.ptchk = f.b("ptchk", 3, 0);
      d.next = f.b("next", 3, 1);
      d.done = f.b("done", 6, 1);
      f.m(d.done).raw_cycles = 50;  // full TLB flush
      d.ret = f.ret("ret", 3, 0);
      d.preempted = f.ret("preempted", 4, 0);
      f.e(d.entry, d.head);
      f.e(d.head, d.done);  // fall: finished
      f.e(d.head, d.read);  // taken
      f.e(d.read, d.next);    // fall: entry empty
      f.e(d.read, d.is_sec);  // taken: present
      f.e(d.is_sec, d.pt);   // fall: page table
      f.e(d.is_sec, d.sec);  // taken: section
      f.e(d.sec, d.next);
      f.e(d.pt, d.ptchk);
      f.e(d.ptchk, d.next);       // fall: pt done
      f.e(d.ptchk, d.preempted);  // taken: propagate preemption
      if (pdel) {
        d.preempt = f.preempt("preempt", s.irq_state);
        f.e(d.next, d.preempt);
        f.e(d.preempt, d.head);       // fall: continue
        f.e(d.preempt, d.preempted);  // taken
      } else {
        f.e(d.next, d.head);
      }
      f.e(d.done, d.ret);
    }
  }

  // ---- frame_map / frame_unmap / pt_map ----
  {
    FB f(p, kb.fmap.fn, "fmap");
    auto& m = kb.fmap;
    // ASID variant walks the two-level ASID table first (extra accesses).
    m.entry = f.b("entry", asid ? 14 : 12, asid ? 4 : 3);
    if (asid) {
      f.g(m.entry, s.asid_root, 0, false);
    }
    m.bad = f.ret("bad", 3, 0);
    m.set = f.b("set", 10, 3);
    f.m(m.set).raw_cycles = 5;
    m.ret = f.ret("ret", 3, 0);
    f.e(m.entry, m.set);  // fall: valid
    f.e(m.entry, m.bad);  // taken: invalid
    f.e(m.set, m.ret);
  }
  {
    FB f(p, kb.funmap.fn, "funmap");
    auto& m = kb.funmap;
    m.entry = f.b("entry", 10, asid ? 4 : 3);
    if (asid) {
      f.g(m.entry, s.asid_root, 0, false);
    }
    m.stale = f.ret("stale", 3, 0);
    m.clear = f.b("clear", 8, 3);
    f.m(m.clear).raw_cycles = 10;  // TLB invalidate by MVA
    m.ret = f.ret("ret", 3, 0);
    f.e(m.entry, m.clear);  // fall: live mapping
    f.e(m.entry, m.stale);  // taken: stale / unmapped
    f.e(m.clear, m.ret);
  }
  {
    FB f(p, kb.ptmap.fn, "ptmap");
    auto& m = kb.ptmap;
    m.entry = f.b("entry", 10, 3);
    m.bad = f.ret("bad", 3, 0);
    m.set = f.b("set", 8, 3);
    m.ret = f.ret("ret", 3, 0);
    f.e(m.entry, m.set);
    f.e(m.entry, m.bad);
    f.e(m.set, m.ret);
  }

  // ---- ep_cancel_all (Section 3.3) ----
  {
    FB f(p, kb.epcall.fn, "eca");
    auto& c = kb.epcall;
    c.entry = f.b("entry", 8, 2);  // deactivate; r8 = queue length
    c.head = f.b("head", 4, 1);
    f.guard(c.head, kRegEp, /*one_sided=*/false);
    f.input(c.head, kRegEp, 0, kMaxEpQueue);
    c.deq = f.b("deq", 10, 4);
    f.rdec(c.deq, kRegEp);
    // Closed-system bound: the thread population bounds the total work of
    // endpoint cancellation across a whole path, not just per endpoint.
    f.m(c.deq).absolute_exec_bound = kMaxEpQueue;
    c.enq = f.call("enq", kb.enq.fn);
    c.done = f.b("done", 4, 1);
    c.ret = f.ret("ret", 3, 0);
    f.e(c.entry, c.head);
    f.e(c.head, c.done);  // fall: queue drained
    f.e(c.head, c.deq);   // taken
    f.e(c.deq, c.enq);
    if (pdel) {
      c.preempt = f.preempt("preempt", s.irq_state);
      c.preempted = f.ret("preempted", 4, 0);
      f.e(c.enq, c.preempt);
      f.e(c.preempt, c.head);       // fall: continue
      f.e(c.preempt, c.preempted);  // taken
    } else {
      f.e(c.enq, c.head);
    }
    f.e(c.done, c.ret);
  }

  // ---- ep_cancel_badged (Section 3.4) ----
  {
    FB f(p, kb.epcb.fn, "ecb");
    auto& c = kb.epcb;
    c.entry = f.b("entry", 10, 3);
    c.resume = f.b("resume", 4, 1);  // cond: abort already in progress?
    c.setup = f.b("setup", 8, 3);
    c.head = f.b("head", 4, 1);
    f.guard(c.head, kRegEp, /*one_sided=*/false);
    f.input(c.head, kRegEp, 0, kMaxEpQueue);
    c.check = f.b("check", 8, 3);
    f.m(c.check).absolute_exec_bound = kMaxEpQueue;  // thread bound
    c.remove = f.b("remove", 10, 4);
    f.rdec(c.remove, kRegEp);
    c.enq = f.call("enq", kb.enq.fn);
    c.next = f.b("next", 4, 1);
    f.rdec(c.next, kRegEp);
    c.done = f.b("done", 6, 2);
    c.ret = f.ret("ret", 3, 0);
    f.e(c.entry, c.resume);
    f.e(c.resume, c.setup);  // fall: fresh operation
    f.e(c.resume, c.head);  // taken: continue stored operation
    f.e(c.setup, c.head);
    f.e(c.head, c.done);   // fall: reached end marker
    f.e(c.head, c.check);  // taken
    f.e(c.check, c.next);    // fall: badge differs
    f.e(c.check, c.remove);  // taken: badge matches
    f.e(c.remove, c.enq);
    c.preempted = f.ret("preempted", 5, 2);  // store resume state / restart
    if (pbadge) {
      c.preempt = f.preempt("preempt", s.irq_state);
      f.e(c.enq, c.preempt);
      f.e(c.next, c.preempt);
      f.e(c.preempt, c.head);       // fall: continue
      f.e(c.preempt, c.preempted);  // taken
    } else {
      f.e(c.enq, c.head);
      f.e(c.next, c.head);
    }
    // A second aborter first completes the stored operation (Section 3.4's
    // fourth resume field); its own abort then runs when its restartable
    // system call re-executes. done's taken edge reports that restart.
    f.e(c.done, c.ret);        // fall: the completed operation was ours
    f.e(c.done, c.preempted);  // taken: completed another's; restart ours
  }

  // ---- untyped_retype (Section 3.5) ----
  {
    FB f(p, kb.retype.fn, "urt");
    auto& r = kb.retype;
    r.entry = f.b("entry", 15, 3);
    r.bad = f.ret("bad", 3, 0);
    r.init = f.b("init", 8, 2);  // r7 = chunks to clear (SetReg at runtime)
    r.more = f.b("more", 4, 1);
    f.guard(r.more, kRegChunks, /*one_sided=*/false);
    f.input(r.more, kRegChunks, 0, max_chunks);
    f.m(r.more).loop_bound_annotation = max_chunks;
    // One chunk: clear_chunk_bytes/4 stores at line granularity.
    const std::uint32_t chunk_instr = config.clear_chunk_bytes / 4 + 24;
    const std::uint32_t chunk_dyn = config.clear_chunk_bytes / 32 + 1;
    r.clear_chunk = f.b("clear_chunk", chunk_instr, chunk_dyn);
    f.rdec(r.clear_chunk, kRegChunks);
    r.is_pd = f.b("is_pd", 3, 0);
    r.global_copy = f.b("global_copy", 280, 65);  // 1 KiB copy (32r + 32w + cap)
    r.book = f.b("book", 16, 3);
    // One created object per iteration; r10 = objects remaining (0..count).
    r.book_loop = f.b("book_loop", 12, 4);
    f.rdec(r.book_loop, 10);
    f.guard(r.book_loop, 10, /*one_sided=*/false);
    f.input(r.book_loop, 10, 0, KernelConfig::kMaxRetypeCount);
    r.ret = f.ret("ret", 4, 2);
    if (pclear) {
      // "After" shape: clear first, resume support, preemption point.
      r.resume = f.b("resume", 6, 1);
      r.preempt = f.preempt("preempt", s.irq_state);
      r.preempted = f.ret("preempted", 4, 1);
      f.e(r.entry, r.resume);  // fall: valid
      f.e(r.entry, r.bad);     // taken: invalid
      f.e(r.resume, r.init);   // fall: fresh retype
      f.e(r.resume, r.more);   // taken: resume previous progress
      f.e(r.init, r.more);
      f.e(r.more, r.is_pd);        // fall: clearing finished
      f.e(r.more, r.clear_chunk);  // taken
      f.e(r.clear_chunk, r.preempt);
      f.e(r.preempt, r.more);       // fall: continue
      f.e(r.preempt, r.preempted);  // taken
    } else {
      // "Before" shape: early bookkeeping, non-preemptible clear.
      r.book1 = f.b("book1", 10, 3);
      f.e(r.entry, r.book1);  // fall: valid
      f.e(r.entry, r.bad);    // taken
      f.e(r.book1, r.init);
      f.e(r.init, r.more);
      f.e(r.more, r.is_pd);
      f.e(r.more, r.clear_chunk);
      f.e(r.clear_chunk, r.more);
    }
    f.e(r.is_pd, r.book);         // fall: not a page directory
    f.e(r.is_pd, r.global_copy);  // taken: copy kernel mappings
    f.e(r.global_copy, r.book);
    // book validates and sets r10 = number of objects to create (0 on a
    // validation error); book_loop creates one object per iteration.
    f.guard(r.book, 10, /*one_sided=*/false);
    f.e(r.book, r.ret);        // fall: nothing to create (error)
    f.e(r.book, r.book_loop);  // taken
    f.e(r.book_loop, r.ret);        // fall: batch complete
    f.e(r.book_loop, r.book_loop);  // taken: next object
  }

  // ---- destroy_object ----
  {
    FB f(p, kb.destroy.fn, "des");
    auto& d = kb.destroy;
    d.entry = f.b("entry", 6, 1);
    d.d_ep = f.b("d_ep", 2, 0);
    d.d_pd = f.b("d_pd", 2, 0);
    if (!asid) {
      d.d_pt = f.b("d_pt", 2, 0);
    } else {
      d.d_pool = f.b("d_pool", 2, 0);
    }
    d.d_frame = f.b("d_frame", 2, 0);
    d.d_tcb = f.b("d_tcb", 2, 0);
    d.c_ep = f.call("c_ep", kb.epcall.fn);
    d.c_pd = f.call("c_pd", asid ? kb.pdda.fn : kb.pdds.fn);
    if (!asid) {
      d.c_pt = f.call("c_pt", kb.ptdel.fn);
    } else {
      d.c_pool = f.call("c_pool", kb.pool_del.fn);
    }
    d.c_frame = f.call("c_frame", kb.funmap.fn);
    d.t_tcb = f.b("t_tcb", 8, 2);
    d.t_deq = f.call("t_deq", kb.deq.fn);
    d.simple = f.b("simple", 4, 1);
    d.check = f.b("check", 3, 0);
    d.preempted = f.ret("preempted", 3, 0);
    d.free = f.b("free", 8, 2);
    d.ret = f.ret("ret", 3, 0);
    f.e(d.entry, d.d_ep);
    f.e(d.d_ep, d.d_pd);  // fall
    f.e(d.d_ep, d.c_ep);  // taken: endpoint
    f.e(d.c_ep, d.check);
    f.e(d.d_pd, asid ? d.d_pool : d.d_pt);  // fall
    f.e(d.d_pd, d.c_pd);                    // taken: page directory
    f.e(d.c_pd, d.check);
    if (!asid) {
      f.e(d.d_pt, d.d_frame);  // fall
      f.e(d.d_pt, d.c_pt);     // taken: page table
      f.e(d.c_pt, d.check);
    } else {
      f.e(d.d_pool, d.d_frame);  // fall
      f.e(d.d_pool, d.c_pool);   // taken: ASID pool
      f.e(d.c_pool, d.check);
    }
    f.e(d.d_frame, d.d_tcb);    // fall
    f.e(d.d_frame, d.c_frame);  // taken: frame
    f.e(d.c_frame, d.check);
    f.e(d.d_tcb, d.simple);  // fall: cnode/untyped/irq handler
    f.e(d.d_tcb, d.t_tcb);   // taken: TCB
    f.e(d.t_tcb, d.t_deq);
    f.e(d.t_deq, d.check);
    f.e(d.simple, d.check);
    f.e(d.check, d.free);       // fall: completed
    f.e(d.check, d.preempted);  // taken
    f.e(d.free, d.ret);
  }

  // ---- cap_delete ----
  {
    FB f(p, kb.capdel.fn, "del");
    auto& d = kb.capdel;
    d.entry = f.b("entry", 6, 2);
    d.null = f.b("null", 3, 0);
    d.final = f.b("final", 6, 2);
    d.destroy = f.call("destroy", kb.destroy.fn);
    d.check = f.b("check", 3, 0);
    d.preempted = f.ret("preempted", 3, 0);
    d.unlink = f.b("unlink", 8, 3);
    d.ret = f.ret("ret", 3, 0);
    f.e(d.entry, d.null);
    f.e(d.null, d.final);  // fall: slot occupied
    f.e(d.null, d.ret);    // taken: empty slot, done
    f.e(d.final, d.unlink);   // fall: other caps remain
    f.e(d.final, d.destroy);  // taken: final cap, destroy object
    f.e(d.destroy, d.check);
    f.e(d.check, d.unlink);     // fall
    f.e(d.check, d.preempted);  // taken
    f.e(d.unlink, d.ret);
  }

  // ---- cnode_delete ----
  {
    FB f(p, kb.cnodedel.fn, "cnd");
    auto& d = kb.cnodedel;
    d.entry = f.b("entry", 8, 2);
    d.bad = f.ret("bad", 3, 0);
    d.del = f.call("del", kb.capdel.fn);
    d.ret = f.ret("ret", 3, 0);
    f.e(d.entry, d.del);  // fall: valid index
    f.e(d.entry, d.bad);  // taken
    f.e(d.del, d.ret);
  }

  // ---- cnode_revoke ----
  {
    FB f(p, kb.revoke.fn, "rvk");
    auto& r = kb.revoke;
    r.entry = f.b("entry", 8, 2);  // r9 = descendant count
    r.bad = f.ret("bad", 3, 0);
    r.badged = f.b("badged", 4, 1);
    r.abort = f.call("abort", kb.epcb.fn);
    r.abort_check = f.b("abort_check", 3, 0);
    r.loop = f.b("loop", 4, 1);
    f.guard(r.loop, kRegRevoke, /*one_sided=*/false);
    f.input(r.loop, kRegRevoke, 0, kMaxRevokeDescendants);
    f.m(r.loop).loop_bound_annotation = kMaxRevokeDescendants;
    r.child = f.b("child", 6, 2);
    f.rdec(r.child, kRegRevoke);
    r.del = f.call("del", kb.capdel.fn);
    r.del_check = f.b("del_check", 3, 0);
    r.preempted = f.ret("preempted", 3, 0);
    // Revoking an untyped's children resets its watermark (seL4 freeIndex).
    r.ret = f.ret("ret", 4, 1);
    f.e(r.entry, r.badged);  // fall: valid
    f.e(r.entry, r.bad);     // taken
    f.e(r.badged, r.loop);   // fall: not a badged endpoint cap
    f.e(r.badged, r.abort);  // taken: abort in-flight badged IPC first
    f.e(r.abort, r.abort_check);
    f.e(r.abort_check, r.loop);       // fall
    f.e(r.abort_check, r.preempted);  // taken
    f.e(r.loop, r.ret);    // fall: no descendants left
    f.e(r.loop, r.child);  // taken
    f.e(r.child, r.del);
    f.e(r.del, r.del_check);
    if (pdel) {
      r.preempt = f.preempt("preempt", s.irq_state);
      f.e(r.del_check, r.preempt);    // fall: delete completed
      f.e(r.del_check, r.preempted);  // taken: delete preempted
      f.e(r.preempt, r.loop);         // fall: continue
      f.e(r.preempt, r.preempted);    // taken
    } else {
      f.e(r.del_check, r.loop);
      f.e(r.del_check, r.preempted);
    }
  }

  // ---- cnode_mint ----
  {
    FB f(p, kb.mint.fn, "mnt");
    auto& m = kb.mint;
    m.entry = f.b("entry", 8, 2);
    m.decode = f.call("decode", kb.dec.fn);
    m.chk = f.b("chk", 4, 1);
    m.err = f.ret("err", 3, 0);
    m.insert = f.b("insert", 10, 4);
    m.ret = f.ret("ret", 3, 0);
    f.e(m.entry, m.decode);
    f.e(m.decode, m.chk);
    f.e(m.chk, m.insert);  // fall: ok
    f.e(m.chk, m.err);     // taken
    f.e(m.insert, m.ret);
  }

  // ---- tcb_invoke ----
  {
    FB f(p, kb.tcb.fn, "tcb");
    auto& t = kb.tcb;
    t.entry = f.b("entry", 6, 1);
    t.d_config = f.b("d_config", 2, 0);
    t.d_resume = f.b("d_resume", 2, 0);
    t.d_suspend = f.b("d_suspend", 2, 0);
    t.d_setprio = f.b("d_setprio", 2, 0);
    t.config = f.b("config", 10, 3);
    if (asid) {
      t.config_asid = f.call("config_asid", kb.asid_alloc.fn);
    }
    t.resume = f.b("resume", 6, 2);
    t.resume_enq = f.call("resume_enq", kb.enq.fn);
    t.suspend = f.b("suspend", 6, 2);
    t.suspend_deq = f.call("suspend_deq", kb.deq.fn);
    t.setprio = f.b("setprio", 8, 2);
    t.sp_deq = f.call("sp_deq", kb.deq.fn);
    t.sp_enq = f.call("sp_enq", kb.enq.fn);
    t.bad = f.b("bad", 3, 0);
    t.ret = f.ret("ret", 3, 0);
    f.e(t.entry, t.d_config);
    f.e(t.d_config, t.d_resume);  // fall
    f.e(t.d_config, t.config);    // taken
    if (asid) {
      f.e(t.config, t.ret);          // fall: vspace already has an ASID
      f.e(t.config, t.config_asid);  // taken: allocate one
      f.e(t.config_asid, t.ret);
    } else {
      f.e(t.config, t.ret);
    }
    f.e(t.d_resume, t.d_suspend);  // fall
    f.e(t.d_resume, t.resume);     // taken
    f.e(t.resume, t.resume_enq);
    f.e(t.resume_enq, t.ret);
    f.e(t.d_suspend, t.d_setprio);  // fall
    f.e(t.d_suspend, t.suspend);    // taken
    f.e(t.suspend, t.suspend_deq);
    f.e(t.suspend_deq, t.ret);
    f.e(t.d_setprio, t.bad);      // fall
    f.e(t.d_setprio, t.setprio);  // taken
    f.e(t.setprio, t.sp_deq);
    f.e(t.sp_deq, t.sp_enq);
    f.e(t.sp_enq, t.ret);
    f.e(t.bad, t.ret);
  }

  // ---- irq_invoke ----
  {
    FB f(p, kb.irqinv.fn, "irqv");
    auto& i = kb.irqinv;
    i.entry = f.b("entry", 5, 1);
    i.d_set = f.b("d_set", 2, 0);
    i.set = f.b("set", 6, 1);
    i.ack = f.b("ack", 5, 0);
    f.g(i.ack, s.irq_state, 8, true);
    i.ret = f.ret("ret", 3, 0);
    f.e(i.entry, i.d_set);
    f.e(i.d_set, i.ack);  // fall: Ack
    f.e(i.d_set, i.set);  // taken: SetHandler
    f.e(i.set, i.ret);
    f.e(i.ack, i.ret);
  }

  // ---- invoke dispatcher ----
  {
    FB f(p, kb.inv.fn, "inv");
    auto& v = kb.inv;
    v.entry = f.b("entry", 10, 1);
    v.d_retype = f.b("d_retype", 2, 0);
    v.d_delete = f.b("d_delete", 2, 0);
    v.d_revoke = f.b("d_revoke", 2, 0);
    v.d_mint = f.b("d_mint", 2, 0);
    v.d_tcb = f.b("d_tcb", 2, 0);
    v.d_frame_map = f.b("d_frame_map", 2, 0);
    v.d_frame_unmap = f.b("d_frame_unmap", 2, 0);
    v.d_pt_map = f.b("d_pt_map", 2, 0);
    v.d_irq = f.b("d_irq", 2, 0);
    v.c_retype = f.call("c_retype", kb.retype.fn);
    v.c_delete = f.call("c_delete", kb.cnodedel.fn);
    v.c_revoke = f.call("c_revoke", kb.revoke.fn);
    v.c_mint = f.call("c_mint", kb.mint.fn);
    v.c_tcb = f.call("c_tcb", kb.tcb.fn);
    v.c_frame_map = f.call("c_frame_map", kb.fmap.fn);
    v.c_frame_unmap = f.call("c_frame_unmap", kb.funmap.fn);
    v.c_pt_map = f.call("c_pt_map", kb.ptmap.fn);
    v.c_irq = f.call("c_irq", kb.irqinv.fn);
    v.bad = f.b("bad", 3, 0);
    v.ret = f.ret("ret", 3, 0);
    f.e(v.entry, v.d_retype);
    const BlockId ds[] = {v.d_retype,    v.d_delete, v.d_revoke,      v.d_mint,
                          v.d_tcb,       v.d_frame_map, v.d_frame_unmap, v.d_pt_map,
                          v.d_irq};
    const BlockId cs[] = {v.c_retype,    v.c_delete, v.c_revoke,      v.c_mint,
                          v.c_tcb,       v.c_frame_map, v.c_frame_unmap, v.c_pt_map,
                          v.c_irq};
    for (std::size_t i = 0; i < std::size(ds); ++i) {
      const BlockId next = (i + 1 < std::size(ds)) ? ds[i + 1] : v.bad;
      f.e(ds[i], next);   // fall: try next label
      f.e(ds[i], cs[i]);  // taken: dispatch
      f.e(cs[i], v.ret);
    }
    f.e(v.bad, v.ret);
  }

  // ---- syscall operation handlers ----
  auto build_handler = [&](KernelBlocks::OpHandler& h, const char* prefix, bool with_reply,
                           bool is_call, FuncId ipc_fn) {
    FB f(p, h.fn, prefix);
    h.entry = f.b("entry", 6, 1);
    if (with_reply) {
      h.reply = f.call("reply", kb.reply.fn);
      if (config.preemptible_send_receive) {
        // Future work (Sections 6.1, 8): split the atomic send-receive at a
        // preemption point between its phases.
        h.preempt = f.preempt("preempt", s.irq_state);
        h.preempted = f.ret("preempted", 4, 0);
      }
    }
    h.decode = f.call("decode", kb.dec.fn);
    h.chk = f.b("chk", 3, 0);
    h.err = f.ret("err", 4, 1);
    h.type = f.b("type", 3, 0);
    h.ipc = f.call("ipc", ipc_fn);
    if (is_call) {
      h.invoke = f.call("invoke", kb.inv.fn);
    }
    h.ret = f.ret("ret", 3, 0);
    if (with_reply) {
      f.e(h.entry, h.reply);
      if (config.preemptible_send_receive) {
        f.e(h.reply, h.preempt);
        f.e(h.preempt, h.decode);     // fall: continue into the receive phase
        f.e(h.preempt, h.preempted);  // taken: IRQ pending
      } else {
        f.e(h.reply, h.decode);
      }
    } else {
      f.e(h.entry, h.decode);
    }
    f.e(h.decode, h.chk);
    f.e(h.chk, h.type);  // fall: decode ok
    f.e(h.chk, h.err);   // taken: lookup fault
    if (is_call) {
      f.e(h.type, h.invoke);  // fall: object invocation
      f.e(h.type, h.ipc);     // taken: endpoint
      f.e(h.invoke, h.ret);
    } else {
      f.e(h.type, h.err);  // fall: wrong cap type
      f.e(h.type, h.ipc);  // taken: endpoint
    }
    f.e(h.ipc, h.ret);
  };
  build_handler(kb.call_h, "hcall", /*with_reply=*/false, /*is_call=*/true, kb.send.fn);
  build_handler(kb.send_h, "hsend", /*with_reply=*/false, /*is_call=*/false, kb.send.fn);
  build_handler(kb.recv_h, "hrecv", /*with_reply=*/false, /*is_call=*/false, kb.recv.fn);
  build_handler(kb.rr_h, "hrr", /*with_reply=*/true, /*is_call=*/false, kb.recv.fn);

  // ---- yield ----
  {
    FB f(p, kb.yield_h.fn, "yld");
    auto& y = kb.yield_h;
    y.entry = f.b("entry", 4, 1);
    y.deq = f.call("deq", kb.deq.fn);
    y.enq = f.call("enq", kb.enq.fn);
    y.ret = f.ret("ret", 2, 0);
    f.e(y.entry, y.deq);
    f.e(y.deq, y.enq);
    f.e(y.enq, y.ret);
  }

  // ---- sys_entry ----
  {
    FB f(p, kb.sys.fn, "sys");
    auto& e = kb.sys;
    e.save = f.b("save", 40, 1);
    f.m(e.save).raw_cycles = 20;  // exception entry / mode switch
    if (config.ipc_fastpath) {
      e.fast_check = f.b("fast_check", 8, 2);
      e.fast_do = f.call("fast_do", kb.fast.fn);
      e.fast_ok = f.b("fast_ok", 3, 0);
    }
    e.d_call = f.b("d_call", 2, 0);
    e.do_call = f.call("do_call", kb.call_h.fn);
    e.d_send = f.b("d_send", 2, 0);
    e.do_send = f.call("do_send", kb.send_h.fn);
    e.d_recv = f.b("d_recv", 2, 0);
    e.do_recv = f.call("do_recv", kb.recv_h.fn);
    e.d_replyrecv = f.b("d_replyrecv", 2, 0);
    e.do_replyrecv = f.call("do_replyrecv", kb.rr_h.fn);
    e.d_yield = f.b("d_yield", 2, 0);
    e.do_yield = f.call("do_yield", kb.yield_h.fn);
    e.bad_op = f.b("bad_op", 3, 0);
    e.post = f.b("post", 3, 0);
    e.preempted = f.b("preempted", 6, 0);
    f.m(e.preempted).is_path_end = true;
    e.irq_call = f.call("irq_call", kb.hirq.fn);
    e.sched = f.call("sched", kb.sched.fn);
    e.exit = f.ret("exit", 25, 1);
    f.m(e.exit).raw_cycles = 15;
    f.m(e.exit).is_path_end = true;
    if (config.ipc_fastpath) {
      f.e(e.save, e.fast_check);
      f.e(e.fast_check, e.d_call);   // fall: not eligible
      f.e(e.fast_check, e.fast_do);  // taken
      f.e(e.fast_do, e.fast_ok);
      f.e(e.fast_ok, e.d_call);  // fall: fastpath bailed
      f.e(e.fast_ok, e.exit);    // taken: handled
    } else {
      f.e(e.save, e.d_call);
    }
    const BlockId ds[] = {e.d_call, e.d_send, e.d_recv, e.d_replyrecv, e.d_yield};
    const BlockId cs[] = {e.do_call, e.do_send, e.do_recv, e.do_replyrecv, e.do_yield};
    for (std::size_t i = 0; i < std::size(ds); ++i) {
      const BlockId next = (i + 1 < std::size(ds)) ? ds[i + 1] : e.bad_op;
      f.e(ds[i], next);
      f.e(ds[i], cs[i]);
      f.e(cs[i], e.post);
    }
    f.e(e.bad_op, e.post);
    f.e(e.post, e.sched);      // fall: completed
    f.e(e.post, e.preempted);  // taken: operation was preempted
    f.e(e.preempted, e.irq_call);
    f.e(e.irq_call, e.sched);
    f.e(e.sched, e.exit);
  }

  // ---- irq_entry ----
  {
    FB f(p, kb.irq.fn, "irq");
    auto& e = kb.irq;
    e.save = f.b("save", 35, 1);
    f.m(e.save).raw_cycles = 20;
    f.m(e.save).is_irq_handler_start = true;
    e.handle = f.call("handle", kb.hirq.fn);
    e.sched = f.call("sched", kb.sched.fn);
    e.exit = f.ret("exit", 25, 1);
    f.m(e.exit).raw_cycles = 15;
    f.m(e.exit).is_path_end = true;
    f.e(e.save, e.handle);
    f.e(e.handle, e.sched);
    f.e(e.sched, e.exit);
  }

  // ---- fault_entry / undef_entry ----
  for (int which = 0; which < 2; ++which) {
    auto& e = which == 0 ? kb.fault : kb.undef;
    FB f(p, e.fn, which == 0 ? "flt" : "und");
    e.save = f.b("save", which == 0 ? 38 : 36, 1);
    f.m(e.save).raw_cycles = 20;
    e.lookup = f.call("lookup", kb.dec.fn);
    e.valid = f.b("valid", 3, 0);
    e.send = f.call("send", kb.send.fn);
    e.kill = f.b("kill", 6, 2);
    e.post = f.b("post", 3, 0);
    e.preempted = f.b("preempted", 6, 0);
    f.m(e.preempted).is_path_end = true;
    e.irq_call = f.call("irq_call", kb.hirq.fn);
    e.sched = f.call("sched", kb.sched.fn);
    e.exit = f.ret("exit", 25, 1);
    f.m(e.exit).raw_cycles = 15;
    f.m(e.exit).is_path_end = true;
    f.e(e.save, e.lookup);
    f.e(e.lookup, e.valid);
    f.e(e.valid, e.kill);  // fall: no handler
    f.e(e.valid, e.send);  // taken: send fault message
    f.e(e.send, e.post);
    f.e(e.kill, e.post);
    f.e(e.post, e.sched);
    f.e(e.post, e.preempted);
    f.e(e.preempted, e.irq_call);
    f.e(e.irq_call, e.sched);
    f.e(e.sched, e.exit);
  }

  p.Layout();
  return img;
}

std::vector<Addr> SelectPinnedLines(const KernelImage& image, PinTarget target,
                                    const CacheConfig& cache, std::uint32_t ways) {
  if (ways < 1 || ways >= cache.ways) {
    throw std::invalid_argument("SelectPinnedLines: " + cache.name + " has no way left unlocked");
  }
  const Program& p = image.prog;
  const KernelBlocks& kb = image.b;
  const Addr line = cache.line_bytes;
  std::vector<Addr> candidates;
  const auto add_range = [&](Addr lo, Addr hi) {
    for (Addr a = lo / line * line; a < hi; a += line) {
      candidates.push_back(a);
    }
  };
  switch (target) {
    case PinTarget::kL1I: {
      // The interrupt-delivery path first — irq_entry, handle_interrupt,
      // notify, attempt_switch, schedule, the scheduler queue operations —
      // then the commonly-executed IPC machinery (capability decode,
      // send/receive, transfer), chosen the way the paper selects its 118
      // lines: from execution traces of typical and worst-case deliveries.
      // The order is the priority when the locked ways run out.
      std::vector<FuncId> fns = {kb.irq.fn,   kb.hirq.fn,   kb.ntf.fn, kb.asw.fn,
                                 kb.sched.fn, kb.choose.fn, kb.enq.fn, kb.deq.fn,
                                 kb.dec.fn,   kb.xfer.fn,   kb.send.fn, kb.recv.fn,
                                 kb.reply.fn};
      if (kb.fast.fn != kNoFunc) {
        fns.push_back(kb.fast.fn);
      }
      for (FuncId fn : fns) {
        for (BlockId bid : p.function(fn).blocks) {
          const Block& b = p.block(bid);
          add_range(b.address, b.address + static_cast<Addr>(b.instr_count) * 4);
        }
      }
      break;
    }
    case PinTarget::kL1D: {
      add_range(Program::kStackTop - 256, Program::kStackTop);
      for (SymId sym : {image.syms.cur_thread, image.syms.sched_action, image.syms.bitmap_l1,
                        image.syms.bitmap_l2, image.syms.irq_state, image.syms.irq_bindings}) {
        const DataSymbol& d = p.symbol(sym);
        add_range(d.address, d.address + d.size);
      }
      break;
    }
    case PinTarget::kL2: {
      // Everything the kernel touches with statically-known addresses.
      add_range(Program::kTextBase, Program::kTextBase + p.text_bytes());
      if (p.num_symbols() != 0) {
        const DataSymbol& last = p.symbol(static_cast<SymId>(p.num_symbols() - 1));
        add_range(Program::kDataBase, last.address + last.size);
      }
      add_range(Program::kStackTop - 4096, Program::kStackTop);
      break;
    }
  }
  const std::uint32_t sets = cache.NumSets();
  std::vector<std::uint32_t> used(sets, 0);
  std::vector<Addr> out;
  for (const Addr a : candidates) {
    std::uint32_t& n = used[a / line % sets];
    if (n < ways && std::find(out.begin(), out.end(), a) == out.end()) {
      ++n;
      out.push_back(a);
    }
  }
  return out;
}

std::shared_ptr<const KernelImage> SharedKernelImage(const KernelConfig& config) {
  // A flat list suffices: a process touches a handful of distinct configs
  // (the ablation sweep's single-switch variants at most), so linear scan
  // under a mutex is cheaper than hashing the whole struct.
  static std::mutex mu;
  static std::vector<std::shared_ptr<const KernelImage>>* cache =
      new std::vector<std::shared_ptr<const KernelImage>>();
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& img : *cache) {
    if (img->config == config) {
      return img;
    }
  }
  std::shared_ptr<const KernelImage> img = BuildKernelImage(config);
  cache->push_back(img);
  return img;
}

std::uint64_t KernelImageDigest(const KernelConfig& config) {
  const std::uint64_t fields[] = {
      static_cast<std::uint64_t>(config.scheduler),
      config.scheduler_bitmap,
      static_cast<std::uint64_t>(config.vspace),
      config.preemptible_clearing,
      config.preemptible_deletion,
      config.preemptible_badged_abort,
      config.ipc_fastpath,
      config.preemptible_send_receive,
      config.clear_chunk_bytes,
      config.kernel_timer_line,
      config.timeslice_ticks,
  };
  std::uint64_t h = kFnv64Offset;
  for (const std::uint64_t f : fields) {
    h = FnvU64(h, f);
  }
  const Program& prog = SharedKernelImage(config)->prog;
  const ProgramDigests digests(prog);
  std::vector<BlockId> blocks(prog.num_blocks());
  std::iota(blocks.begin(), blocks.end(), BlockId{0});
  for (std::size_t s = 0; s < kNumDigestStages; ++s) {
    h = digests.Chain(blocks, static_cast<DigestStage>(s), h);
  }
  return h;
}

}  // namespace pmk
