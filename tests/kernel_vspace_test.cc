// Address-space tests (Section 3.6): the ASID design (Figure 4) with lazy
// deletion and harmless stale references, vs. the shadow-page-table design
// (Figure 5) with eager back-pointers and preemptible deletion.

#include <gtest/gtest.h>

#include "src/sim/latency.h"
#include "src/sim/workload.h"

namespace pmk {
namespace {

KernelConfig ShadowCfg() { return KernelConfig::After(); }

KernelConfig AsidCfg() {
  KernelConfig c = KernelConfig::After();
  c.vspace = VSpaceKind::kAsid;
  return c;
}

struct VspaceRig {
  explicit VspaceRig(const KernelConfig& kc) : sys(kc, EvalMachine(false)) {
    t = sys.AddThread(10);
    pd = sys.kernel().DirectPageDir();
    pt = sys.kernel().DirectPageTable();
    if (kc.vspace == VSpaceKind::kAsid) {
      sys.kernel().DirectAssignAsid(pd);
    }
    Cap pt_cap;
    pt_cap.type = ObjType::kPageTable;
    pt_cap.obj = pt->base;
    pt_cptr = sys.AddCap(pt_cap);
    Cap f_cap;
    frame = sys.kernel().DirectFrame(12);  // 4 KiB
    f_cap.type = ObjType::kFrame;
    f_cap.obj = frame->base;
    frame_cptr = sys.AddCap(f_cap);
    Cap pd_cap;
    pd_cap.type = ObjType::kPageDir;
    pd_cap.obj = pd->base;
    pd_cptr = sys.AddCap(pd_cap);
    sys.kernel().DirectSetCurrent(t);
  }

  void MapPt(Addr vaddr = 0x0040'0000) {
    SyscallArgs args;
    args.label = InvLabel::kPageTableMap;
    args.arg0 = pd->base;
    args.arg1 = vaddr;
    sys.kernel().Syscall(SysOp::kCall, pt_cptr, args);
  }
  KError MapFrame(Addr vaddr = 0x0040'1000) {
    SyscallArgs args;
    args.label = InvLabel::kFrameMap;
    args.arg0 = pd->base;
    args.arg1 = vaddr;
    sys.kernel().Syscall(SysOp::kCall, frame_cptr, args);
    return t->last_error;
  }
  KError UnmapFrame() {
    SyscallArgs args;
    args.label = InvLabel::kFrameUnmap;
    sys.kernel().Syscall(SysOp::kCall, frame_cptr, args);
    return t->last_error;
  }

  System sys;
  TcbObj* t = nullptr;
  PageDirObj* pd = nullptr;
  PageTableObj* pt = nullptr;
  FrameObj* frame = nullptr;
  std::uint32_t pt_cptr = 0;
  std::uint32_t frame_cptr = 0;
  std::uint32_t pd_cptr = 0;
};

class VspaceBothTest : public ::testing::TestWithParam<bool> {
 protected:
  KernelConfig Config() const { return GetParam() ? ShadowCfg() : AsidCfg(); }
};

TEST_P(VspaceBothTest, MapThenUnmapFrame) {
  VspaceRig rig(Config());
  rig.MapPt();
  ASSERT_EQ(rig.MapFrame(), KError::kOk);
  EXPECT_TRUE(rig.frame->mapped);
  const std::uint32_t pt_index = (0x0040'1000 >> 12) & 0xFF;
  EXPECT_EQ(rig.pt->pte[pt_index], rig.frame->base);
  EXPECT_EQ(rig.pt->lowest_mapped, pt_index);

  ASSERT_EQ(rig.UnmapFrame(), KError::kOk);
  EXPECT_FALSE(rig.frame->mapped);
  EXPECT_EQ(rig.pt->pte[pt_index], 0u);
  rig.sys.kernel().CheckInvariants();
}

TEST_P(VspaceBothTest, MapWithoutPageTableFails) {
  VspaceRig rig(Config());
  EXPECT_EQ(rig.MapFrame(), KError::kInvalidArg);
  EXPECT_FALSE(rig.frame->mapped);
}

TEST_P(VspaceBothTest, DoubleMapFails) {
  VspaceRig rig(Config());
  rig.MapPt();
  ASSERT_EQ(rig.MapFrame(), KError::kOk);
  EXPECT_EQ(rig.MapFrame(0x0040'2000), KError::kInvalidArg);  // already mapped
}

TEST_P(VspaceBothTest, SectionFrameMapsIntoPageDirectory) {
  VspaceRig rig(Config());
  FrameObj* big = rig.sys.kernel().DirectFrame(20);  // 1 MiB section
  Cap c;
  c.type = ObjType::kFrame;
  c.obj = big->base;
  const std::uint32_t cptr = rig.sys.AddCap(c);
  SyscallArgs args;
  args.label = InvLabel::kFrameMap;
  args.arg0 = rig.pd->base;
  args.arg1 = 0x0100'0000;
  rig.sys.kernel().Syscall(SysOp::kCall, cptr, args);
  ASSERT_EQ(rig.t->last_error, KError::kOk);
  const std::uint32_t pd_index = 0x0100'0000 >> 20;
  EXPECT_EQ(rig.pd->pde[pd_index], big->base);
  EXPECT_TRUE(rig.pd->is_section[pd_index]);
  rig.sys.kernel().CheckInvariants();
}

TEST_P(VspaceBothTest, MappingIntoKernelRegionRejected) {
  VspaceRig rig(Config());
  rig.MapPt();
  // Top 256 MiB is the kernel's.
  EXPECT_EQ(rig.MapFrame(0xF000'0000), KError::kInvalidArg);
}

INSTANTIATE_TEST_SUITE_P(Designs, VspaceBothTest, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "Shadow" : "Asid";
                         });

// ---------- ASID-specific behaviour (Figure 4) ----------

TEST(AsidTest, PdDeleteIsLazyAndConstantTime) {
  VspaceRig rig(AsidCfg());
  rig.MapPt();
  ASSERT_EQ(rig.MapFrame(), KError::kOk);

  // Delete the (final) PD cap: O(1) — just the ASID entry + TLB flush.
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = rig.pd_cptr & 0xFF;
  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = rig.sys.root()->base;
  const std::uint32_t root_cptr = rig.sys.AddCap(root_cap);
  const Addr pd_base = rig.pd->base;  // |rig.pd| is freed by the delete
  rig.sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  EXPECT_EQ(rig.sys.kernel().objects().Get<PageDirObj>(pd_base), nullptr);
  // The frame cap still believes it is mapped — the stale, harmless
  // dangling reference of the ASID design.
  EXPECT_TRUE(rig.frame->mapped);
}

TEST(AsidTest, StaleFrameUnmapIsHarmless) {
  VspaceRig rig(AsidCfg());
  rig.MapPt();
  ASSERT_EQ(rig.MapFrame(), KError::kOk);
  // Lazily delete the address space (clear the pool entry directly).
  AsidPoolObj* pool = nullptr;
  for (const auto& [base, obj] : rig.sys.kernel().objects().objects()) {
    if (auto* p = rig.sys.kernel().objects().Get<AsidPoolObj>(base)) {
      pool = p;
    }
  }
  ASSERT_NE(pool, nullptr);
  pool->pd[rig.pd->asid] = 0;  // address space deleted lazily

  // Unmapping through the stale ASID takes the cheap early-out.
  EXPECT_EQ(rig.UnmapFrame(), KError::kOk);
  EXPECT_FALSE(rig.frame->mapped);
  rig.sys.kernel().CheckInvariants();
}

TEST(AsidTest, AsidAllocFindsFreeSlotViaTcbConfigure) {
  System sys(AsidCfg(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  TcbObj* worker = sys.AddThread(10);
  PageDirObj* pd = sys.kernel().DirectPageDir();
  Cap tcb_cap;
  tcb_cap.type = ObjType::kTcb;
  tcb_cap.obj = worker->base;
  const std::uint32_t cptr = sys.AddCap(tcb_cap);
  sys.kernel().DirectSetCurrent(t);

  ASSERT_EQ(pd->asid, 0u);
  SyscallArgs args;
  args.label = InvLabel::kTcbConfigure;
  args.arg1 = pd->base;
  sys.kernel().Syscall(SysOp::kCall, cptr, args);
  EXPECT_NE(pd->asid, 0u);
  EXPECT_EQ(worker->vspace, pd->base);
}

TEST(AsidTest, PoolDeleteClearsEveryAddressSpace) {
  System sys(AsidCfg(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  std::vector<PageDirObj*> pds;
  for (int i = 0; i < 5; ++i) {
    PageDirObj* pd = sys.kernel().DirectPageDir();
    sys.kernel().DirectAssignAsid(pd);
    pds.push_back(pd);
  }
  AsidPoolObj* pool = nullptr;
  for (const auto& [base, obj] : sys.kernel().objects().objects()) {
    if (auto* p = sys.kernel().objects().Get<AsidPoolObj>(base)) {
      pool = p;
    }
  }
  ASSERT_NE(pool, nullptr);
  Cap pool_cap;
  pool_cap.type = ObjType::kAsidPool;
  pool_cap.obj = pool->base;
  const std::uint32_t pool_cptr = sys.AddCap(pool_cap);
  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t root_cptr = sys.AddCap(root_cap);
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = pool_cptr & 0xFF;
  // Non-preemptible even in the "after" kernel (the design pain point):
  // run it with a pending interrupt and observe it completes regardless.
  sys.machine().irq().Assert(InterruptController::kTimerLine, sys.machine().Now());
  const Addr pool_base = pool->base;  // |pool| is freed by the delete
  const KernelExit e = sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  EXPECT_EQ(e, KernelExit::kDone);
  for (PageDirObj* pd : pds) {
    EXPECT_EQ(pd->asid, 0u);
  }
  EXPECT_EQ(sys.kernel().objects().Get<AsidPoolObj>(pool_base), nullptr);
}

// ---------- Shadow-page-table behaviour (Figure 5) ----------

TEST(ShadowTest, BackPointersTrackFrameCaps) {
  VspaceRig rig(ShadowCfg());
  rig.MapPt();
  ASSERT_EQ(rig.MapFrame(), KError::kOk);
  const std::uint32_t pt_index = (0x0040'1000 >> 12) & 0xFF;
  EXPECT_EQ(rig.pt->shadow[pt_index], rig.sys.SlotOf(rig.frame_cptr));
}

TEST(ShadowTest, PdDeleteEagerlyClearsFrameCaps) {
  VspaceRig rig(ShadowCfg());
  rig.MapPt();
  ASSERT_EQ(rig.MapFrame(), KError::kOk);

  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = rig.sys.root()->base;
  const std::uint32_t root_cptr = rig.sys.AddCap(root_cap);
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = rig.pd_cptr & 0xFF;
  const Addr pd_base = rig.pd->base;  // |rig.pd| is freed by the delete
  rig.sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  EXPECT_EQ(rig.sys.kernel().objects().Get<PageDirObj>(pd_base), nullptr);
  // Eager back-pointer update: no dangling reference survives.
  EXPECT_FALSE(rig.frame->mapped);
  EXPECT_EQ(rig.frame->mapped_pd, 0u);
  rig.sys.kernel().CheckInvariants();
}

TEST(ShadowTest, PdDeletePreemptsAndResumesFromLowestMapped) {
  KernelConfig kc = ShadowCfg();
  System sys(kc, EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  PageDirObj* pd = sys.kernel().DirectPageDir();

  // Populate many PTs, each holding many mappings.
  std::vector<FrameObj*> frames;
  for (int p = 0; p < 4; ++p) {
    PageTableObj* pt = sys.kernel().DirectPageTable();
    Cap pt_cap;
    pt_cap.type = ObjType::kPageTable;
    pt_cap.obj = pt->base;
    CapSlot* pt_slot = sys.kernel().DirectCap(sys.root(), 100 + p, pt_cap);
    sys.kernel().DirectMapPageTable(pd, 16 + p, pt, pt_slot);
    for (int fi = 0; fi < 24; ++fi) {
      FrameObj* f = sys.kernel().DirectFrame(12);
      Cap fc;
      fc.type = ObjType::kFrame;
      fc.obj = f->base;
      CapSlot* fs = sys.kernel().DirectCap(sys.root(), 110 + p * 24 + fi, fc);
      sys.kernel().DirectMapFrame(pd, (static_cast<Addr>(16 + p) << 20) | (fi << 12), f, fs);
      frames.push_back(f);
    }
  }
  Cap pd_cap;
  pd_cap.type = ObjType::kPageDir;
  pd_cap.obj = pd->base;
  const std::uint32_t pd_cptr = sys.AddCap(pd_cap);
  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t root_cptr = sys.AddCap(root_cap);
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = pd_cptr & 0xFF;
  const Addr pd_base = pd->base;  // |pd| is freed by the delete
  const LongOpResult res = RunLongOpWithTimer(sys, SysOp::kCall, root_cptr, args, 4000);
  EXPECT_GT(res.preemptions, 2u);
  EXPECT_EQ(sys.kernel().objects().Get<PageDirObj>(pd_base), nullptr);
  for (FrameObj* f : frames) {
    EXPECT_FALSE(f->mapped);
  }
  sys.kernel().CheckInvariants();
  EXPECT_LT(res.max_irq_latency, 10'000u);  // bounded by the per-entry chunking
}

TEST(ShadowTest, PtDeleteUnlinksFromPageDirectory) {
  VspaceRig rig(ShadowCfg());
  rig.MapPt();
  ASSERT_EQ(rig.MapFrame(), KError::kOk);
  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = rig.sys.root()->base;
  const std::uint32_t root_cptr = rig.sys.AddCap(root_cap);
  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = rig.pt_cptr & 0xFF;
  const Addr pt_base = rig.pt->base;  // |rig.pt| is freed by the delete
  rig.sys.kernel().Syscall(SysOp::kCall, root_cptr, args);
  EXPECT_EQ(rig.sys.kernel().objects().Get<PageTableObj>(pt_base), nullptr);
  const std::uint32_t pd_index = 0x0040'0000 >> 20;
  EXPECT_EQ(rig.pd->pde[pd_index], 0u);
  EXPECT_FALSE(rig.frame->mapped);
  rig.sys.kernel().CheckInvariants();
}

TEST(ShadowTest, LowestMappedIndexMaintainedByMapUnmap) {
  VspaceRig rig(ShadowCfg());
  rig.MapPt();
  ASSERT_EQ(rig.MapFrame(0x0040'8000), KError::kOk);  // index 8
  EXPECT_EQ(rig.pt->lowest_mapped, 8u);
  FrameObj* f2 = rig.sys.kernel().DirectFrame(12);
  Cap c;
  c.type = ObjType::kFrame;
  c.obj = f2->base;
  CapSlot* s2 = rig.sys.kernel().DirectCap(rig.sys.root(), 180, c);
  rig.sys.kernel().DirectMapFrame(rig.pd, 0x0040'3000, f2, s2);  // index 3
  EXPECT_EQ(rig.pt->lowest_mapped, 3u);
}

TEST(ShadowTest, ObjectSizesDoubleForShadow) {
  // Section 3.6's memory-overhead discussion: PT/PD double with shadows.
  const KernelConfig shadow = ShadowCfg();
  const KernelConfig asid = AsidCfg();
  EXPECT_EQ(ObjSizeBits(ObjType::kPageTable, 0, shadow), 11);
  EXPECT_EQ(ObjSizeBits(ObjType::kPageTable, 0, asid), 10);
  EXPECT_EQ(ObjSizeBits(ObjType::kPageDir, 0, shadow), 15);
  EXPECT_EQ(ObjSizeBits(ObjType::kPageDir, 0, asid), 14);
}

}  // namespace
}  // namespace pmk
