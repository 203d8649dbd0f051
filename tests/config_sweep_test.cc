// Configuration-sweep tests: every combination of the paper's switches must
// produce a well-formed kernel image, run the core workloads against the
// executor's CFG validation, hold its invariants, and yield a solvable,
// sound WCET analysis. The kernel image digest must tell configs apart.

#include <gtest/gtest.h>

#include "src/kernel/image.h"
#include "src/sim/latency.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

struct Sweep {
  SchedulerKind sched;
  bool bitmap;
  VSpaceKind vspace;
  bool preempt;  // all three preemption families together
  bool fastpath;
};

std::string SweepName(const ::testing::TestParamInfo<Sweep>& info) {
  const Sweep& s = info.param;
  std::string n = s.sched == SchedulerKind::kLazy ? "Lazy" : "Benno";
  n += s.bitmap ? "Bitmap" : "NoBitmap";
  n += s.vspace == VSpaceKind::kAsid ? "Asid" : "Shadow";
  n += s.preempt ? "Preempt" : "Atomic";
  n += s.fastpath ? "Fast" : "Slow";
  return n;
}

KernelConfig MakeConfig(const Sweep& s) {
  KernelConfig kc;
  kc.scheduler = s.sched;
  kc.scheduler_bitmap = s.bitmap;
  kc.vspace = s.vspace;
  kc.preemptible_clearing = s.preempt;
  kc.preemptible_deletion = s.preempt;
  kc.preemptible_badged_abort = s.preempt;
  kc.ipc_fastpath = s.fastpath;
  return kc;
}

class ConfigSweepTest : public ::testing::TestWithParam<Sweep> {};

TEST_P(ConfigSweepTest, ImageBuildsAndWorkloadsRun) {
  const KernelConfig kc = MakeConfig(GetParam());
  System sys(kc, EvalMachine(false));

  // IPC round trip.
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  TcbObj* server = sys.AddThread(60);
  TcbObj* client = sys.AddThread(10);
  sys.kernel().DirectBlockOnRecv(server, ep);
  sys.kernel().DirectSetCurrent(client);
  SyscallArgs call;
  call.msg_len = 3;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ep_cptr, call), KernelExit::kDone);
  ASSERT_EQ(sys.kernel().current(), server);
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kReplyRecv, ep_cptr, SyscallArgs{}), KernelExit::kDone);
  sys.kernel().CheckInvariants();

  // Retype + delete + revoke.
  sys.kernel().DirectSetCurrent(client);
  const std::uint32_t ut_cptr = sys.AddUntyped(16);
  SyscallArgs mk;
  mk.label = InvLabel::kUntypedRetype;
  mk.obj_type = ObjType::kEndpoint;
  mk.dest_index = 90;
  ASSERT_EQ(sys.kernel().Syscall(SysOp::kCall, ut_cptr, mk), KernelExit::kDone);
  EXPECT_EQ(client->last_error, KError::kOk);
  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t root_cptr = sys.AddCap(root_cap);
  SyscallArgs del;
  del.label = InvLabel::kCNodeDelete;
  del.arg0 = 90;
  while (sys.kernel().Syscall(SysOp::kCall, root_cptr, del) == KernelExit::kPreempted) {
  }
  EXPECT_TRUE(sys.root()->slots[90].IsNull());
  sys.kernel().CheckInvariants();

  // Interrupt delivery.
  EndpointObj* irq_ep = nullptr;
  sys.AddEndpoint(&irq_ep);
  TcbObj* handler = sys.AddThread(200);
  sys.kernel().DirectBlockOnRecv(handler, irq_ep);
  sys.kernel().DirectBindIrq(2, irq_ep);
  sys.machine().irq().Assert(2, sys.machine().Now());
  ASSERT_EQ(sys.kernel().HandleIrqEntry(), KernelExit::kDone);
  EXPECT_EQ(handler->state, ThreadState::kRunning);
  sys.kernel().CheckInvariants();
}

TEST_P(ConfigSweepTest, AnalysisSolvesAndBoundsObserved) {
  const KernelConfig kc = MakeConfig(GetParam());
  System sys(kc, EvalMachine(false));
  WcetAnalyzer an(sys.kernel().image(), AnalysisOptions{});
  Cycles sys_wcet = 0;
  for (const EntryPoint e : kEntryPoints) {
    const EntryResult r = an.Analyze(e);
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << EntryPointName(e);
    ASSERT_GT(r.wcet, 0u);
    if (e == EntryPoint::kSyscall) {
      sys_wcet = r.wcet;
    }
  }
  EXPECT_LE(EntryScenario(sys, EntryPoint::kSyscall).Run().cycles, sys_wcet);
}

TEST(DesignInteractionTest, ShadowTablesWithoutPreemptionAreCatastrophic) {
  // The design interaction behind Section 3.6: eager shadow-page-table
  // deletion is only viable WITH preemption points. Without them, a revoke
  // tearing down address spaces is a multi-second non-preemptible blackout —
  // which is why the original (before) kernel used lazy ASID deletion.
  KernelConfig atomic_shadow = KernelConfig::After();
  atomic_shadow.preemptible_clearing = false;
  atomic_shadow.preemptible_deletion = false;
  atomic_shadow.preemptible_badged_abort = false;
  const auto img = BuildKernelImage(atomic_shadow);
  WcetAnalyzer an(*img, AnalysisOptions{});
  const EntryResult r = an.Analyze(EntryPoint::kSyscall);
  ASSERT_EQ(r.status, SolveStatus::kOptimal);
  // Billions of cycles: revoke(256) x pd_delete(3840) x pt_delete(256).
  EXPECT_GT(r.wcet, 1'000'000'000u);
  // The same kernel with preemption points is five orders of magnitude
  // better; the before-kernel's lazy ASID deletion avoided this without
  // preemption, at the cost of the ASID pathologies.
  const auto after = BuildKernelImage(KernelConfig::After());
  WcetAnalyzer an_after(*after, AnalysisOptions{});
  EXPECT_LT(an_after.Analyze(EntryPoint::kSyscall).wcet, r.wcet / 100'000);
  const auto before = BuildKernelImage(KernelConfig::Before());
  WcetAnalyzer an_before(*before, AnalysisOptions{});
  EXPECT_LT(an_before.Analyze(EntryPoint::kSyscall).wcet, r.wcet / 1'000);
}

TEST(KernelImageTest, DigestTracksConfig) {
  const KernelConfig after = KernelConfig::After();
  const KernelConfig before = KernelConfig::Before();
  EXPECT_EQ(KernelImageDigest(after), KernelImageDigest(after));
  EXPECT_NE(KernelImageDigest(after), KernelImageDigest(before));

  KernelConfig tweaked = after;
  tweaked.ipc_fastpath = !tweaked.ipc_fastpath;
  EXPECT_NE(KernelImageDigest(after), KernelImageDigest(tweaked));

  // A runtime-only knob leaves the image alone but still moves the digest.
  KernelConfig slice = after;
  slice.timeslice_ticks += 1;
  EXPECT_NE(KernelImageDigest(after), KernelImageDigest(slice));
}

std::vector<Sweep> AllSweeps() {
  std::vector<Sweep> out;
  for (const auto sched : {SchedulerKind::kLazy, SchedulerKind::kBenno}) {
    for (const bool bitmap : {false, true}) {
      for (const auto vs : {VSpaceKind::kAsid, VSpaceKind::kShadow}) {
        for (const bool preempt : {false, true}) {
          for (const bool fast : {false, true}) {
            out.push_back({sched, bitmap, vs, preempt, fast});
          }
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ConfigSweepTest, ::testing::ValuesIn(AllSweeps()),
                         SweepName);

}  // namespace
}  // namespace pmk
