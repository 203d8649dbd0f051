// Kernel configuration: selects between the paper's "before" and "after"
// kernels.
//
// Every improvement of Section 3 is an independent switch so ablation
// benchmarks can isolate each one:
//  - Section 3.1: lazy scheduling vs. Benno scheduling
//  - Section 3.2: scheduler priority bitmaps (two-level, CLZ)
//  - Section 3.3: preemptible endpoint deletion
//  - Section 3.4: preemptible badged-IPC abort
//  - Section 3.5: preemptible object clearing (1 KiB chunks), clearing moved
//    before bookkeeping
//  - Section 3.6: ASID lookup tables vs. shadow page tables with eager
//    back-pointers and preemptible address-space deletion
//
// Section 4's L1 cache pinning is not a kernel switch: the kernel locks its
// lines with Kernel::ApplyCachePinning and the analysis credits them through
// AnalysisOptions::cache_pinning.

#ifndef SRC_KERNEL_CONFIG_H_
#define SRC_KERNEL_CONFIG_H_

#include <cstdint>

namespace pmk {

enum class SchedulerKind : std::uint8_t {
  kLazy,   // Figure 2: blocked threads linger in the run queue
  kBenno,  // Figure 3: run queue holds only runnable threads
};

enum class VSpaceKind : std::uint8_t {
  kAsid,    // Figure 4: ASID lookup table, lazy address-space deletion
  kShadow,  // Figure 5: shadow page tables, eager back-pointers
};

struct KernelConfig {
  SchedulerKind scheduler = SchedulerKind::kBenno;
  bool scheduler_bitmap = true;
  VSpaceKind vspace = VSpaceKind::kShadow;
  bool preemptible_clearing = true;
  bool preemptible_deletion = true;     // endpoint cancel-all, revoke, AS delete
  bool preemptible_badged_abort = true;
  bool ipc_fastpath = true;

  // Future-work option (Sections 6.1, 8): a preemption point between the
  // send (reply) and receive phases of the atomic send-receive operation,
  // almost halving that operation's contribution to interrupt latency.
  bool preemptible_send_receive = false;

  // Preemption granularity for block clear/copy operations (Section 3.5:
  // multiples of 1 KiB, matched to the non-preemptible global-mapping copy).
  std::uint32_t clear_chunk_bytes = 1024;

  // Kernel-owned preemption-timer line for timeslice round-robin (the
  // fixed-priority preemptive scheduler's tick). kNoKernelTimer disables
  // timeslicing; any other line is consumed by the kernel itself rather
  // than delivered to a bound endpoint.
  static constexpr std::uint32_t kNoKernelTimer = 0xFFFF'FFFF;
  std::uint32_t kernel_timer_line = kNoKernelTimer;
  std::uint32_t timeslice_ticks = 5;

  // Largest object the kernel will create (log2 bytes). ARM supports frames
  // to 16 MiB; the static analysis of the non-preemptible "before" kernel
  // needs this closed-system bound to be finite, and 512 KiB calibrates its
  // worst-case system call to the paper's magnitude (milliseconds at 532 MHz).
  static constexpr std::uint32_t kMaxObjectBits = 19;

  // Number of message registers transferred by a full-length IPC.
  static constexpr std::uint32_t kMaxMsgWords = 64;
  // Maximum caps transferred per IPC.
  static constexpr std::uint32_t kMaxExtraCaps = 3;
  // Maximum objects created by one retype invocation.
  static constexpr std::uint32_t kMaxRetypeCount = 8;
  // Thread priorities (Section 3.2).
  static constexpr std::uint32_t kNumPriorities = 256;

  // The paper's kernel before the changes of Sections 3 and 4.
  static KernelConfig Before() {
    KernelConfig c;
    c.scheduler = SchedulerKind::kLazy;
    c.scheduler_bitmap = false;
    c.vspace = VSpaceKind::kAsid;
    c.preemptible_clearing = false;
    c.preemptible_deletion = false;
    c.preemptible_badged_abort = false;
    return c;
  }

  // The paper's improved kernel (pinning is orthogonal; see Table 1).
  static KernelConfig After() { return KernelConfig{}; }

  // Memberwise equality keys the process-wide kernel-image cache
  // (SharedKernelImage): equal configs build byte-identical images.
  friend bool operator==(const KernelConfig&, const KernelConfig&) = default;
};

}  // namespace pmk

#endif  // SRC_KERNEL_CONFIG_H_
