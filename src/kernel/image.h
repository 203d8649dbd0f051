// The kernel "binary image": kir declaration of every kernel code path.
//
// BuildKernelImage() constructs the kernel's functions, basic blocks, CFG
// edges, loop metadata and data symbols for a given KernelConfig. The image
// differs between configurations exactly where the paper's kernels differ:
// lazy vs. Benno scheduling, bitmaps, ASID vs. shadow-page-table address
// spaces, and presence of preemption points. The same image is executed by
// the kernel (src/kernel charges each block it passes through) and analyzed
// by the WCET pipeline (src/wcet).
//
// Unused variant members are kNoBlock / kNoFunc in a given configuration.
//
// CFG conventions (see src/kir/block.h): succs[0] is the fall-through /
// not-taken edge, succs[1] the taken edge; a call block has exactly one
// successor (the resume block).

#ifndef SRC_KERNEL_IMAGE_H_
#define SRC_KERNEL_IMAGE_H_

#include <array>
#include <cstdint>
#include <memory>

#include "src/hw/cache.h"
#include "src/kernel/config.h"
#include "src/kir/program.h"

namespace pmk {

// Data symbols (kernel globals) referenced by block static accesses and by
// the kernel runtime for dynamic touches.
struct KernelSyms {
  SymId cur_thread = 0;     // pointer to the running TCB
  SymId sched_action = 0;   // deferred direct-switch target (Benno)
  SymId bitmap_l1 = 0;      // 8-bit top-level priority bitmap (Section 3.2)
  SymId bitmap_l2 = 0;      // 8 x 32-bit bucket bitmaps
  SymId runqueues = 0;      // 256 x {head,tail}
  SymId irq_state = 0;      // interrupt controller registers (pending word)
  SymId irq_bindings = 0;   // per-line notification endpoint
  SymId asid_root = 0;      // ASID lookup table root (ASID variant)
  SymId globals = 0;        // miscellaneous kernel state
  SymId fastpath = 0;       // fastpath scratch state
};

struct KernelBlocks {
  // --- Kernel entry points (the four analyzed exception vectors) ---
  struct SysEntry {
    FuncId fn = kNoFunc;
    BlockId save = kNoBlock;        // context save (entry)
    BlockId fast_check = kNoBlock;  // fastpath eligibility test
    BlockId fast_do = kNoBlock;     // call fastpath
    BlockId fast_ok = kNoBlock;     // did the fastpath complete it?
    BlockId d_call = kNoBlock;      // dispatcher conditionals
    BlockId d_send = kNoBlock;
    BlockId d_recv = kNoBlock;
    BlockId d_replyrecv = kNoBlock;
    BlockId d_yield = kNoBlock;
    BlockId do_call = kNoBlock;  // dispatcher call blocks
    BlockId do_send = kNoBlock;
    BlockId do_recv = kNoBlock;
    BlockId do_replyrecv = kNoBlock;
    BlockId do_yield = kNoBlock;
    BlockId bad_op = kNoBlock;
    BlockId post = kNoBlock;       // preempted?
    BlockId preempted = kNoBlock;  // transfer to IRQ handling (path end)
    BlockId irq_call = kNoBlock;   // call handle_interrupt
    BlockId sched = kNoBlock;      // call schedule
    BlockId exit = kNoBlock;       // restore + eret (path end)
  } sys;

  struct IrqEntry {
    FuncId fn = kNoFunc;
    BlockId save = kNoBlock;  // is_irq_handler_start
    BlockId handle = kNoBlock;
    BlockId sched = kNoBlock;
    BlockId exit = kNoBlock;  // path end
  } irq;

  struct FaultEntry {
    FuncId fn = kNoFunc;
    BlockId save = kNoBlock;
    BlockId lookup = kNoBlock;  // call decode_cap (fault handler endpoint)
    BlockId valid = kNoBlock;
    BlockId send = kNoBlock;  // call ipc_send (fault message)
    BlockId kill = kNoBlock;  // no handler: suspend thread
    BlockId post = kNoBlock;
    BlockId preempted = kNoBlock;  // path end
    BlockId irq_call = kNoBlock;
    BlockId sched = kNoBlock;
    BlockId exit = kNoBlock;  // path end
  } fault, undef;

  // --- Syscall operation handlers ---
  struct OpHandler {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId reply = kNoBlock;      // ReplyRecv only: call do_reply first
    BlockId preempt = kNoBlock;    // ReplyRecv only, if preemptible_send_receive
    BlockId preempted = kNoBlock;  // return kPreempted between the phases
    BlockId decode = kNoBlock;     // call decode_cap
    BlockId chk = kNoBlock;        // decode succeeded?
    BlockId err = kNoBlock;        // return with error
    BlockId type = kNoBlock;       // endpoint cap?
    BlockId ipc = kNoBlock;        // call ipc_send / ipc_recv
    BlockId invoke = kNoBlock;     // Call only: call invoke
    BlockId ret = kNoBlock;
  } call_h, send_h, recv_h, rr_h;

  struct YieldH {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId deq = kNoBlock;  // call sched_dequeue
    BlockId enq = kNoBlock;  // call sched_enqueue (to queue tail)
    BlockId ret = kNoBlock;
  } yield_h;

  // --- Capability decode (Figure 7 worst case) ---
  struct DecodeCap {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // r0 = 32 remaining bits
    BlockId loop = kNoBlock;   // one level of lookup; guard r0 >= 1
    BlockId done = kNoBlock;   // lookup landed: valid?
    BlockId ok = kNoBlock;     // return (valid cap)
    BlockId fail = kNoBlock;   // return (lookup fault)
  } dec;

  // --- IPC (Sections 3.3, 3.4, 6.1) ---
  struct IpcSend {  // Send, Call's send phase, fault messages
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId active = kNoBlock;    // endpoint active?
    BlockId err = kNoBlock;       // inactive: abort
    BlockId has_recv = kNoBlock;  // receiver waiting?
    BlockId deq = kNoBlock;       // dequeue receiver
    BlockId xfer = kNoBlock;      // call do_transfer
    BlockId wake = kNoBlock;      // call attempt_switch (receiver)
    BlockId reply_setup = kNoBlock;   // cond: is this a Call?
    BlockId block_caller = kNoBlock;  // Call: block on reply
    BlockId no_reply = kNoBlock;      // plain send
    BlockId queue = kNoBlock;         // no receiver: enqueue sender
    BlockId ret = kNoBlock;
  } send;

  struct IpcRecv {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId active = kNoBlock;
    BlockId err = kNoBlock;
    BlockId notif = kNoBlock;          // pending notification bits?
    BlockId notif_deliver = kNoBlock;  // deliver + return
    BlockId has_send = kNoBlock;       // sender waiting?
    BlockId deq = kNoBlock;
    BlockId xfer = kNoBlock;
    BlockId sender_call = kNoBlock;  // cond: sender was a Call?
    BlockId sender_set = kNoBlock;   // link reply; sender stays blocked
    BlockId sender_wake = kNoBlock;  // call attempt_switch (plain sender)
    BlockId queue = kNoBlock;        // no sender: enqueue receiver
    BlockId ret = kNoBlock;
  } recv;

  struct DoReply {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // cond: caller waiting?
    BlockId none = kNoBlock;   // nobody to reply to
    BlockId xfer = kNoBlock;   // call do_transfer
    BlockId wake = kNoBlock;   // call attempt_switch
    BlockId ret = kNoBlock;
  } reply;

  struct DoTransfer {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;       // cond: r1 (message words, 0..64) >= 1
    BlockId loop = kNoBlock;        // copy one message register
    BlockId caps_check = kNoBlock;  // cond: r2 (extra caps, 0..3) >= 1
    BlockId cap_one = kNoBlock;     // call decode_cap
    BlockId cap_ins = kNoBlock;     // derive + MDB insert; loop back
    BlockId done = kNoBlock;
  } xfer;

  struct Fastpath {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // eligibility checks (cond)
    BlockId do_it = kNoBlock;  // transfer + direct switch
    BlockId hit = kNoBlock;    // return (handled)
    BlockId miss = kNoBlock;   // return (fall back to slowpath)
  } fast;

  // --- Scheduler (Sections 3.1, 3.2) ---
  struct SchedChoose {
    FuncId fn = kNoFunc;
    // Benno + bitmap (Figure 3 + CLZ): straight line.
    BlockId bb_entry = kNoBlock;
    BlockId bb_empty = kNoBlock;  // cond: bitmap all zero?
    BlockId bb_found = kNoBlock;
    BlockId bb_idle = kNoBlock;
    // Benno without bitmap: scan 256 priorities.
    BlockId bn_entry = kNoBlock;
    BlockId bn_loop = kNoBlock;  // guard r3 >= 1
    BlockId bn_done = kNoBlock;  // cond: found?
    BlockId bn_found = kNoBlock;
    BlockId bn_idle = kNoBlock;
    // Lazy (Figure 2): scan priorities, dequeue blocked threads.
    BlockId lz_entry = kNoBlock;
    BlockId lz_outer = kNoBlock;     // next priority; guard r3 >= 1
    BlockId lz_head = kNoBlock;      // queue head exists?
    BlockId lz_runnable = kNoBlock;  // head runnable?
    BlockId lz_found = kNoBlock;
    BlockId lz_deq = kNoBlock;  // dequeue blocked thread (absolute bound)
    BlockId lz_idle = kNoBlock;
  } choose;

  struct SchedQueueOp {  // enqueue / dequeue with early-out guard
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;   // cond: nothing to do?
    BlockId link = kNoBlock;    // list manipulation
    BlockId bitmap = kNoBlock;  // bitmap maintenance (if enabled)
    BlockId ret = kNoBlock;
  } enq, deq;

  struct AttemptSwitch {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId higher = kNoBlock;     // Benno: woken prio >= current?
    BlockId direct = kNoBlock;     // Benno: set direct-switch action
    BlockId lazy_skip = kNoBlock;  // lazy: already in run queue?
    BlockId enqueue = kNoBlock;    // call sched_enqueue
    BlockId ret = kNoBlock;
  } asw;

  struct Schedule {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId fast = kNoBlock;     // cond: direct-switch action pending?
    BlockId requeue = kNoBlock;  // cond: re-enter current thread? (Benno)
    BlockId requeue_call = kNoBlock;  // call sched_enqueue
    BlockId choose = kNoBlock;        // call sched_choose
    BlockId switch_to = kNoBlock;
    BlockId ret = kNoBlock;
  } sched;

  // --- Interrupt handling ---
  struct HandleIrq {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;    // read + ack pending line
    BlockId valid = kNoBlock;    // cond: real line?
    BlockId d_timer = kNoBlock;  // cond: kernel preemption timer?
    BlockId tick = kNoBlock;     // timeslice accounting / round-robin
    BlockId spurious = kNoBlock;
    BlockId binding = kNoBlock;
    BlockId notify = kNoBlock;  // call notify
    BlockId ret = kNoBlock;
  } hirq;

  struct Notify {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId waiter = kNoBlock;  // cond: receiver waiting?
    BlockId deq = kNoBlock;
    BlockId wake = kNoBlock;  // call attempt_switch
    BlockId pend = kNoBlock;  // set pending bit
    BlockId ret = kNoBlock;
  } ntf;

  // --- Object invocations ---
  struct Invoke {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId d_retype = kNoBlock;
    BlockId d_delete = kNoBlock;
    BlockId d_revoke = kNoBlock;
    BlockId d_mint = kNoBlock;
    BlockId d_tcb = kNoBlock;
    BlockId d_frame_map = kNoBlock;
    BlockId d_frame_unmap = kNoBlock;
    BlockId d_pt_map = kNoBlock;
    BlockId d_irq = kNoBlock;
    BlockId c_retype = kNoBlock;
    BlockId c_delete = kNoBlock;
    BlockId c_revoke = kNoBlock;
    BlockId c_mint = kNoBlock;
    BlockId c_tcb = kNoBlock;
    BlockId c_frame_map = kNoBlock;
    BlockId c_frame_unmap = kNoBlock;
    BlockId c_pt_map = kNoBlock;
    BlockId c_irq = kNoBlock;
    BlockId bad = kNoBlock;
    BlockId ret = kNoBlock;
  } inv;

  // --- Untyped retype (Section 3.5) ---
  struct Retype {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // cond: args invalid?
    BlockId bad = kNoBlock;
    BlockId book1 = kNoBlock;        // "before" only: early state update
    BlockId resume = kNoBlock;       // "after" only: retype in progress?
    BlockId init = kNoBlock;         // record retype; r7 = chunks
    BlockId more = kNoBlock;         // cond: r7 >= 1 (loop head)
    BlockId clear_chunk = kNoBlock;  // clear one chunk
    BlockId preempt = kNoBlock;      // preemption point ("after" only)
    BlockId preempted = kNoBlock;    // return kPreempted
    BlockId is_pd = kNoBlock;        // cond: creating a page directory?
    BlockId global_copy = kNoBlock;  // copy kernel global mappings (1 KiB)
    BlockId book = kNoBlock;       // atomic bookkeeping pass (setup)
    BlockId book_loop = kNoBlock;  // one created object per iteration
    BlockId ret = kNoBlock;
  } retype;

  // --- Capability deletion / revocation ---
  struct CapDelete {  // delete the cap in a slot
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId null = kNoBlock;     // cond: empty slot?
    BlockId final = kNoBlock;    // cond: last cap to the object?
    BlockId destroy = kNoBlock;  // call destroy_object
    BlockId check = kNoBlock;    // cond: destroy preempted?
    BlockId preempted = kNoBlock;
    BlockId unlink = kNoBlock;  // MDB remove
    BlockId ret = kNoBlock;
  } capdel;

  struct CNodeDelete {  // invocation wrapper: locate slot, delete
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // cond: index invalid?
    BlockId bad = kNoBlock;
    BlockId del = kNoBlock;  // call cap_delete
    BlockId ret = kNoBlock;
  } cnodedel;

  struct Revoke {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // cond: index invalid? (r9 = descendants)
    BlockId bad = kNoBlock;
    BlockId badged = kNoBlock;  // cond: badged endpoint cap?
    BlockId abort = kNoBlock;   // call ep_cancel_badged
    BlockId abort_check = kNoBlock;  // cond: preempted?
    BlockId loop = kNoBlock;         // cond: descendants remain? guard r9
    BlockId child = kNoBlock;        // fetch next descendant
    BlockId del = kNoBlock;          // call cap_delete
    BlockId del_check = kNoBlock;    // cond: preempted?
    BlockId preempt = kNoBlock;
    BlockId preempted = kNoBlock;
    BlockId ret = kNoBlock;
  } revoke;

  struct Mint {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId decode = kNoBlock;  // call decode_cap (source)
    BlockId chk = kNoBlock;     // cond: decode failed / dest occupied?
    BlockId err = kNoBlock;
    BlockId insert = kNoBlock;
    BlockId ret = kNoBlock;
  } mint;

  struct Destroy {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId d_ep = kNoBlock;
    BlockId d_pd = kNoBlock;
    BlockId d_pt = kNoBlock;
    BlockId d_pool = kNoBlock;
    BlockId d_frame = kNoBlock;
    BlockId d_tcb = kNoBlock;
    BlockId c_ep = kNoBlock;     // call ep_cancel_all
    BlockId c_pd = kNoBlock;     // call pd_delete (variant)
    BlockId c_pt = kNoBlock;     // call pt_delete (shadow)
    BlockId c_pool = kNoBlock;   // call asid_pool_delete (ASID)
    BlockId c_frame = kNoBlock;  // call frame_unmap
    BlockId t_tcb = kNoBlock;    // suspend
    BlockId t_deq = kNoBlock;    // call sched_dequeue
    BlockId simple = kNoBlock;   // cnode/untyped/irq: validate only
    BlockId check = kNoBlock;    // cond: preempted?
    BlockId preempted = kNoBlock;
    BlockId free = kNoBlock;  // release object
    BlockId ret = kNoBlock;
  } destroy;

  // --- Endpoint cancellation (Sections 3.3, 3.4) ---
  struct EpCancelAll {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // deactivate endpoint; r8 = queue length
    BlockId head = kNoBlock;   // cond: r8 >= 1 (loop head)
    BlockId deq = kNoBlock;    // dequeue + restart one thread
    BlockId enq = kNoBlock;    // call sched_enqueue
    BlockId preempt = kNoBlock;
    BlockId preempted = kNoBlock;
    BlockId done = kNoBlock;
    BlockId ret = kNoBlock;
  } epcall;

  struct EpCancelBadged {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId resume = kNoBlock;  // cond: abort already in progress?
    BlockId setup = kNoBlock;   // record badge/end marker/aborter
    BlockId head = kNoBlock;    // cond: nodes remain before end marker?
    BlockId check = kNoBlock;   // cond: badge match?
    BlockId remove = kNoBlock;  // dequeue + restart
    BlockId enq = kNoBlock;     // call sched_enqueue
    BlockId next = kNoBlock;
    BlockId preempt = kNoBlock;
    BlockId preempted = kNoBlock;  // store resume state on endpoint
    BlockId done = kNoBlock;       // clear abort state
    BlockId ret = kNoBlock;
  } epcb;

  // --- TCB / IRQ invocations ---
  struct TcbInvoke {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId d_config = kNoBlock;
    BlockId d_resume = kNoBlock;
    BlockId d_suspend = kNoBlock;
    BlockId d_setprio = kNoBlock;
    BlockId config = kNoBlock;       // ASID variant: cond (needs ASID?)
    BlockId config_asid = kNoBlock;  // call asid_alloc
    BlockId resume = kNoBlock;
    BlockId resume_enq = kNoBlock;  // call sched_enqueue
    BlockId suspend = kNoBlock;
    BlockId suspend_deq = kNoBlock;  // call sched_dequeue
    BlockId setprio = kNoBlock;
    BlockId sp_deq = kNoBlock;  // call sched_dequeue
    BlockId sp_enq = kNoBlock;  // call sched_enqueue
    BlockId bad = kNoBlock;
    BlockId ret = kNoBlock;
  } tcb;

  struct IrqInvoke {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId d_set = kNoBlock;  // cond: SetHandler?
    BlockId set = kNoBlock;
    BlockId ack = kNoBlock;
    BlockId ret = kNoBlock;
  } irqinv;

  // --- Address spaces (Section 3.6) ---
  struct AsidAlloc {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // r4 = 1024
    BlockId loop = kNoBlock;   // scan pool; guard r4 >= 1
    BlockId chk = kNoBlock;    // cond: found?
    BlockId found = kNoBlock;
    BlockId fail = kNoBlock;
  } asid_alloc;

  struct AsidPoolDelete {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // r4 = 1024
    BlockId loop = kNoBlock;   // clear one entry + TLB flush
    BlockId ret = kNoBlock;
  } pool_del;

  struct PdDeleteAsid {  // O(1) lazy deletion via the ASID table
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;
    BlockId ret = kNoBlock;
  } pdda;

  struct FrameMap {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // cond: target invalid?
    BlockId bad = kNoBlock;
    BlockId set = kNoBlock;  // write PTE (+ shadow back-pointer)
    BlockId ret = kNoBlock;
  } fmap;

  struct FrameUnmap {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // cond: stale / not mapped?
    BlockId stale = kNoBlock;  // nothing to do (harmless dangling ref)
    BlockId clear = kNoBlock;
    BlockId ret = kNoBlock;
  } funmap;

  struct PtMap {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // cond: slot occupied / invalid?
    BlockId bad = kNoBlock;
    BlockId set = kNoBlock;
    BlockId ret = kNoBlock;
  } ptmap;

  struct PtDelete {  // shadow variant
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // r5 = entries to scan
    BlockId head = kNoBlock;   // cond: guard r5 >= 1 (loop head)
    BlockId unmap = kNoBlock;  // clear PTE + shadow + frame cap
    BlockId preempt = kNoBlock;
    BlockId preempted = kNoBlock;
    BlockId done = kNoBlock;  // unlink from PD
    BlockId ret = kNoBlock;
  } ptdel;

  struct PdDeleteShadow {
    FuncId fn = kNoFunc;
    BlockId entry = kNoBlock;  // r6 = user entries to scan
    BlockId head = kNoBlock;   // cond: guard r6 >= 1 (loop head)
    BlockId read = kNoBlock;   // cond: entry present?
    BlockId is_sec = kNoBlock; // cond: section mapping?
    BlockId sec = kNoBlock;    // unmap section frame
    BlockId pt = kNoBlock;     // call pt_delete
    BlockId ptchk = kNoBlock;  // cond: pt_delete preempted?
    BlockId next = kNoBlock;
    BlockId preempt = kNoBlock;
    BlockId preempted = kNoBlock;
    BlockId done = kNoBlock;  // TLB flush
    BlockId ret = kNoBlock;
  } pdds;
};

// The four analyzed kernel entry points (the exception vectors above), in
// the order every table and figure lists them.
enum class EntryPoint : std::uint8_t { kSyscall, kUndefined, kPageFault, kInterrupt };
inline constexpr std::array<EntryPoint, 4> kEntryPoints = {
    EntryPoint::kSyscall, EntryPoint::kUndefined, EntryPoint::kPageFault,
    EntryPoint::kInterrupt};
const char* EntryPointName(EntryPoint e);

struct KernelImage {
  Program prog;
  KernelConfig config;
  KernelSyms syms;
  KernelBlocks b;

  Addr SymAddr(SymId s) const { return prog.symbol(s).address; }
};

// Builds and lays out the kernel image for |config|.
std::unique_ptr<KernelImage> BuildKernelImage(const KernelConfig& config);

// Process-wide memoisation of BuildKernelImage. Image construction is
// deterministic in |config| and the result is immutable, so every Kernel
// with an equal config can share one image — and, through it, one Program
// and one compiled-program cache — instead of re-building and re-compiling
// per System (sweep and campaign workloads construct hundreds of Systems
// per run). Thread-safe; the handful of distinct configs a process ever
// uses stay cached until exit.
std::shared_ptr<const KernelImage> SharedKernelImage(const KernelConfig& config);

// Content digest of the kernel a modelled result depends on: every
// KernelConfig field, chained with each block's kir stage digests
// (src/kir/digest.h) over all of SharedKernelImage(config). Editing
// BuildKernelImage or flipping a config switch changes it, so a result
// journal keyed on it is never replayed against a different kernel.
std::uint64_t KernelImageDigest(const KernelConfig& config);

// The kernel lines a cache can hold in locked ways.
enum class PinTarget : std::uint8_t {
  kL1I,  // Section 4: the interrupt-delivery path, then the IPC machinery
  kL1D,  // Section 4: the top 256 B of the kernel stack and the hot globals
  kL2,   // Sections 4, 6.4, 8: the whole kernel — text, data and stack
};

// Ways each pinning locks: one of each 4-way L1 (the paper's quarter of the
// cache) and two of the 8-way L2.
inline constexpr std::uint32_t kL1PinnedWays = 1;
inline constexpr std::uint32_t kL2PinnedWays = 2;

// The lines of |target| that |ways| locked ways of |cache| hold: candidates
// in priority order at |cache|'s line size, without duplicates, dropping
// each whose set already holds |ways| chosen lines. The kernel locks exactly
// these (Kernel::ApplyCachePinning, ApplyL2KernelPinning) and the WCET
// analyzer credits exactly these (BuildCostModelOptions). Throws
// std::invalid_argument if |ways| leaves no way of |cache| unlocked.
std::vector<Addr> SelectPinnedLines(const KernelImage& image, PinTarget target,
                                    const CacheConfig& cache, std::uint32_t ways);

}  // namespace pmk

#endif  // SRC_KERNEL_IMAGE_H_
