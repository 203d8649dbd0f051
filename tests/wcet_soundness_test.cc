// Soundness property tests: every observed execution on the full machine
// model must be bounded by the conservative analysis — for random workloads,
// both kernels, both L2 settings, and with cache pinning. This is the
// "Computed results are a safe upper bound" claim of Table 2.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/latency.h"
#include "src/wcet/analysis.h"
#include "tests/wcet_oracle.h"

namespace pmk {
namespace {

struct Variant {
  bool after;
  bool l2;
  bool pin;
};

class SoundnessTest : public ::testing::TestWithParam<Variant> {};

std::string VariantName(const ::testing::TestParamInfo<Variant>& info) {
  std::string s = info.param.after ? "After" : "Before";
  s += info.param.l2 ? "L2on" : "L2off";
  s += info.param.pin ? "Pinned" : "";
  return s;
}

TEST_P(SoundnessTest, ObservedNeverExceedsComputed) {
  const Variant v = GetParam();
  const KernelConfig kc = v.after ? KernelConfig::After() : KernelConfig::Before();
  MachineConfig mc = EvalMachine(v.l2);

  AnalysisOptions ao;
  ao.l2_enabled = v.l2;
  ao.cache_pinning = v.pin;

  const std::shared_ptr<const KernelImage> image = SharedKernelImage(kc);
  WcetAnalyzer analyzer(*image, ao);
  const Cycles sys_wcet = analyzer.Analyze(EntryPoint::kSyscall).wcet;

  // Every entry's measured scenario on a fresh System: the observed run is
  // bounded by its own path's computed cost, and that path by the WCET.
  for (const EntryPoint entry : kEntryPoints) {
    SCOPED_TRACE(EntryPointName(entry));
    System sys(kc, mc);
    if (v.pin) {
      sys.kernel().ApplyCachePinning();
    }
    const EntryScenario::Observation run = EntryScenario(sys, entry).Run();
    const Cycles forced = analyzer.EvaluateTrace(run.path);
    EXPECT_LE(run.cycles, forced) << "conservative path model must bound the run";
    EXPECT_LE(forced, analyzer.Analyze(entry).wcet) << "the WCET bounds every path";
  }

  // Randomized syscall storm — every entry bounded.
  {
    System storm(kc, mc);
    if (v.pin) {
      storm.kernel().ApplyCachePinning();
    }
    EndpointObj* ep = nullptr;
    const std::uint32_t ep_cptr = storm.AddEndpoint(&ep);
    const std::uint32_t ut_cptr = storm.AddUntyped(20);
    std::vector<TcbObj*> threads;
    for (int i = 0; i < 6; ++i) {
      TcbObj* t = storm.AddThread(static_cast<std::uint8_t>(10 + i * 17));
      storm.kernel().DirectResume(t);
      threads.push_back(t);
    }
    storm.kernel().DirectSetCurrent(threads[0]);
    std::mt19937 rng(987 + (v.after ? 1 : 0) + (v.l2 ? 2 : 0));
    std::uint32_t dest = 60;
    for (int step = 0; step < 120; ++step) {
      SyscallArgs args;
      storm.machine().PolluteCaches();
      const Cycles t0 = storm.machine().Now();
      switch (rng() % 4) {
        case 0:
          args.msg_len = rng() % 9;
          storm.kernel().Syscall(SysOp::kSend, ep_cptr, args);
          break;
        case 1:
          storm.kernel().Syscall(SysOp::kRecv, ep_cptr, args);
          break;
        case 2:
          storm.kernel().Syscall(SysOp::kYield, 0, args);
          break;
        case 3:
          args.label = InvLabel::kUntypedRetype;
          args.obj_type = ObjType::kEndpoint;
          args.dest_index = dest++;
          storm.kernel().Syscall(SysOp::kCall, ut_cptr, args);
          break;
      }
      const Cycles obs = storm.machine().Now() - t0;
      ASSERT_LE(obs, sys_wcet) << "storm step " << step;
      if (storm.kernel().current() == storm.kernel().idle()) {
        for (TcbObj* t : threads) {
          if (t->blocked_on == 0 && t->state == ThreadState::kRunning) {
            storm.kernel().DirectSetCurrent(t);
            break;
          }
        }
        if (storm.kernel().current() == storm.kernel().idle()) {
          break;  // everything blocked; scenario exhausted
        }
      }
      if (dest > 250) {
        dest = 60;
        break;  // root CNode nearly full
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, SoundnessTest,
                         ::testing::Values(Variant{true, false, false},
                                           Variant{true, true, false},
                                           Variant{true, false, true},
                                           Variant{false, false, false},
                                           Variant{false, true, false}),
                         VariantName);

TEST(ForcedPathTest, TraceEvaluationBoundsObservedRun) {
  // Section 6.2 / Figure 8: force the analysis onto each entry's measured
  // path. The computed path cost must bound the hardware-model observation,
  // the WCET must bound the path, and the production evaluation must equal
  // the oracle's. No recorded path is its entry's worst trace, so this is
  // the only check of trace evaluation off the worst-case paths.
  for (const EntryPoint entry : kEntryPoints) {
    for (const bool l2 : {false, true}) {
      SCOPED_TRACE(std::string(EntryPointName(entry)) + (l2 ? ", L2 on" : ", L2 off"));
      System sys(KernelConfig::After(), EvalMachine(l2));
      const EntryScenario::Observation run = EntryScenario(sys, entry).Run();
      AnalysisOptions ao;
      ao.l2_enabled = l2;
      const WcetAnalyzer an(sys.kernel().image(), ao);
      const Cycles forced = an.EvaluateTrace(run.path);
      EXPECT_LE(run.cycles, forced) << "conservative path model must bound the run";
      EXPECT_LE(forced, an.Analyze(entry).wcet) << "the WCET bounds every path";
      EXPECT_EQ(forced, WcetOracle(sys.kernel().image(), ao).EvaluateTrace(run.path));
    }
  }
}

// Machines around the default, each changing one latency or geometry the
// cost model reads from MachineConfig.
std::vector<std::pair<std::string, MachineConfig>> MachineGrid() {
  std::vector<std::pair<std::string, MachineConfig>> grid;
  const auto add = [&grid](const char* name, const auto& edit) {
    MachineConfig mc;
    edit(mc);
    grid.emplace_back(name, mc);
  };
  const auto l1 = [](MachineConfig& mc, std::uint32_t size, std::uint32_t ways) {
    for (CacheConfig* c : {&mc.l1i, &mc.l1d}) {
      c->size_bytes = size;
      c->ways = ways;
    }
  };
  add("default", [](MachineConfig&) {});
  add("200-cycle memory", [](MachineConfig& mc) {
    mc.memory.mem_latency_l2_off = 200;
    mc.memory.mem_latency_l2_on = 200;
  });
  add("120-cycle L2 hit", [](MachineConfig& mc) { mc.memory.l2_hit_latency = 120; });
  add("4-cycle load-use stall", [](MachineConfig& mc) { mc.memory.load_use_stall = 4; });
  add("64-byte lines", [](MachineConfig& mc) {
    mc.l1i.line_bytes = mc.l1d.line_bytes = mc.l2.line_bytes = 64;
  });
  add("8 KiB 2-way L1", [&l1](MachineConfig& mc) { l1(mc, 8 * 1024, 2); });
  add("4 KiB 4-way L1", [&l1](MachineConfig& mc) { l1(mc, 4 * 1024, 4); });
  add("16 KiB 2-way L1", [&l1](MachineConfig& mc) { l1(mc, 16 * 1024, 2); });
  add("pseudo-random L1", [](MachineConfig& mc) {
    mc.l1i.policy = mc.l1d.policy = ReplacementPolicy::kPseudoRandom;
  });
  add("predictor on", [](MachineConfig& mc) { mc.bpred.enabled = true; });
  add("9-cycle branches", [](MachineConfig& mc) { mc.bpred.disabled_cost = 9; });
  return grid;
}

TEST(ForcedPathTest, MachineGridBoundsObservedRuns) {
  // The cost model prices the machine that runs: each Figure 8 path,
  // observed on a machine around the default, costs no more than its trace
  // evaluation under a cost model built for that machine.
  for (const auto& [name, base] : MachineGrid()) {
    for (const bool l2 : {false, true}) {
      MachineConfig mc = base;
      mc.l2_enabled = l2;
      CostModelOptions copts;
      copts.machine = mc;
      for (const EntryPoint entry : kEntryPoints) {
        SCOPED_TRACE(name + ", " + EntryPointName(entry) + (l2 ? ", L2 on" : ", L2 off"));
        System sys(KernelConfig::After(), mc);
        const EntryScenario::Observation run = EntryScenario(sys, entry).Run();
        const CostModelCache cache(sys.kernel().image().prog, copts);
        EXPECT_LE(run.cycles, EvaluateTraceCost(cache, run.path));
      }
    }
  }
}

TEST(PinningTest, AnalyzerCreditsExactlyTheLinesTheKernelLocks) {
  // Pinned on a fresh machine and then polluted (Section 5.4), each cache
  // holds exactly the kernel lines it locked. Those must be exactly the
  // lines the analyzer credits as always-hit (L1) and as L2 hits.
  for (const bool after : {false, true}) {
    SCOPED_TRACE(after ? "after" : "before");
    System sys(after ? KernelConfig::After() : KernelConfig::Before(), EvalMachine(true));
    sys.kernel().ApplyCachePinning();
    sys.kernel().ApplyL2KernelPinning();
    sys.machine().PolluteCaches();
    AnalysisOptions ao;
    ao.l2_enabled = true;
    ao.cache_pinning = true;
    ao.l2_kernel_pinning = true;
    const CostModelOptions credited = BuildCostModelOptions(sys.kernel().image(), ao);
    const auto resident = [](const Cache& c) {
      std::vector<Addr> lines;
      for (Addr a = Program::kTextBase; a < Program::kStackTop; a += c.config().line_bytes) {
        if (c.Contains(a)) {
          lines.push_back(a);
        }
      }
      return lines;
    };
    EXPECT_FALSE(credited.pinned_ilines.empty());
    EXPECT_FALSE(credited.pinned_dlines.empty());
    EXPECT_FALSE(credited.pinned_l2lines.empty());
    EXPECT_EQ(resident(sys.machine().l1i()), credited.pinned_ilines.lines());
    EXPECT_EQ(resident(sys.machine().l1d()), credited.pinned_dlines.lines());
    EXPECT_EQ(resident(sys.machine().l2()), credited.pinned_l2lines.lines());
  }
}

TEST(ForcedPathTest, OverestimationGrowsWithL2) {
  // Table 2 / Figure 8: enabling the L2 increases the model's pessimism.
  double ratio[2] = {0, 0};
  for (const bool l2 : {false, true}) {
    System sys(KernelConfig::After(), EvalMachine(l2));
    const EntryScenario::Observation run = EntryScenario(sys, EntryPoint::kSyscall).Run();
    AnalysisOptions ao;
    ao.l2_enabled = l2;
    WcetAnalyzer an(sys.kernel().image(), ao);
    ratio[l2 ? 1 : 0] =
        static_cast<double>(an.EvaluateTrace(run.path)) / static_cast<double>(run.cycles);
  }
  EXPECT_GT(ratio[0], 1.0);
  EXPECT_GT(ratio[1], ratio[0]);
}

TEST(LatencyBoundTest, PreemptibleOpsMeetTheResponseBound) {
  // End to end: a long preemptible operation under a periodic timer never
  // exceeds the computed interrupt response bound.
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  sys.QueueSenders(ep, 64, {kBadgeNone});
  TcbObj* t = sys.AddThread(10);
  sys.kernel().DirectSetCurrent(t);
  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t root_cptr = sys.AddCap(root_cap);

  WcetAnalyzer an(sys.kernel().image(), AnalysisOptions{});
  const Cycles bound = an.InterruptResponseBound();

  SyscallArgs args;
  args.label = InvLabel::kCNodeDelete;
  args.arg0 = ep_cptr & 0xFF;
  const LongOpResult res = RunLongOpWithTimer(sys, SysOp::kCall, root_cptr, args, 3000);
  EXPECT_GT(res.preemptions, 0u);
  EXPECT_LE(res.max_irq_latency, bound);
}

}  // namespace
}  // namespace pmk
