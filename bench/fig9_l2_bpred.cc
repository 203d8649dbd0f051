// Figure 9: effect of enabling the L2 cache and/or branch prediction on
// OBSERVED worst-case execution times, normalised to the baseline (both
// disabled). Cold, polluted caches before every run — the paper's worst-case
// measurement condition.
//
// Paper shape: the L2 can HURT these cold-cache worst cases (memory latency
// rises from 60 to 96 cycles and the L2 provides little reuse on short,
// non-repetitive kernel paths — up to +8% on the page-fault path); the
// branch predictor helps only marginally (cold predictor, initial
// mispredictions offset the wins).

#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/latency.h"
#include "src/sim/report.h"
#include "src/sim/workload.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

// Max over repeated in-place runs: the first (unmeasured) execution primes
// the L2, as the paper's maxima over 100,000 executions inevitably do; the
// L1 caches are fully polluted before every measured run, the 128 KiB L2
// only partially displaced.
Cycles Observe(EntryPoint entry, bool l2, bool bpred) {
  const KernelConfig kc = KernelConfig::After();
  const MachineConfig mc = EvalMachine(l2, bpred);
  constexpr int kRuns = 8;
  Cycles worst = 0;
  switch (entry) {
    case EntryPoint::kSyscall: {
      System sys(kc, mc);
      sys.AttachTraceSink(&bench::GlobalTrace());  // representative modelled run
      auto w = sys.BuildWorstCaseIpc();
      for (int run = -1; run < kRuns; ++run) {
        sys.machine().PolluteCaches();
        const Cycles t0 = sys.machine().Now();
        sys.kernel().Syscall(SysOp::kCall, w.ep_cptr, w.args);
        if (run >= 0) {
          worst = std::max(worst, sys.machine().Now() - t0);
        }
        // The receiver replies and re-blocks, restoring the scenario.
        sys.kernel().Syscall(SysOp::kReplyRecv, w.reply_cptr, SyscallArgs{});
      }
      break;
    }
    case EntryPoint::kPageFault:
    case EntryPoint::kUndefined: {
      System sys(kc, mc);
      const System::FaultHandler f = sys.BuildFaultHandlerScenario();
      for (int run = -1; run < kRuns; ++run) {
        sys.machine().PolluteCaches();
        const Cycles t0 = sys.machine().Now();
        if (entry == EntryPoint::kPageFault) {
          sys.kernel().RaisePageFault();
        } else {
          sys.kernel().RaiseUndefined();
        }
        if (run >= 0) {
          worst = std::max(worst, sys.machine().Now() - t0);
        }
        // The pager handles the fault and waits again; the task resumes.
        sys.kernel().Syscall(SysOp::kReplyRecv, f.ep_cptr, SyscallArgs{});
        sys.kernel().DirectSetCurrent(f.task);
      }
      break;
    }
    case EntryPoint::kInterrupt: {
      System sys(kc, mc);
      EndpointObj* ep = nullptr;
      sys.AddEndpoint(&ep);
      TcbObj* handler = sys.AddThread(200);
      TcbObj* task = sys.AddThread(10);
      sys.kernel().DirectBindIrq(0, ep);
      for (int run = -1; run < kRuns; ++run) {
        sys.kernel().DirectBlockOnRecv(handler, ep);
        sys.kernel().DirectSetCurrent(task);
        sys.machine().PolluteCaches();
        sys.machine().irq().Unmask(0);
        sys.machine().irq().Assert(0, sys.machine().Now());
        const Cycles t0 = sys.machine().Now();
        sys.kernel().HandleIrqEntry();
        if (run >= 0) {
          worst = std::max(worst, sys.machine().Now() - t0);
        }
      }
      break;
    }
  }
  return worst;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) {
  using namespace pmk;
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const bool csv = flags.csv;

  if (!csv) {
    std::printf("Figure 9: observed worst-case execution times with the L2 cache and/or\n");
    std::printf("branch predictor enabled, normalised to the baseline (both disabled)\n\n");
  }

  Table t({"Path", "Baseline (cyc)", "L2 on", "B-pred on", "L2+B-pred"});
  for (const auto entry : {EntryPoint::kSyscall, EntryPoint::kUndefined,
                           EntryPoint::kPageFault, EntryPoint::kInterrupt}) {
    const Cycles base = Observe(entry, false, false);
    const Cycles l2 = Observe(entry, true, false);
    const Cycles bp = Observe(entry, false, true);
    const Cycles both = Observe(entry, true, true);
    const auto norm = [&](Cycles c) {
      return Table::Ratio(static_cast<double>(c) / static_cast<double>(base));
    };
    t.AddRow({EntryPointName(entry), Table::Cyc(base), norm(l2), norm(bp), norm(both)});
  }
  if (csv) {
    t.PrintCsv();
    bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
    bench::ExportMetricsJson(flags.metrics_json);
    return 0;
  }
  t.Print();

  std::printf("\npaper shape: L2 on can exceed 1.00 on these cold-cache worst cases\n");
  std::printf("(up to 1.08 on the page-fault path); the branch predictor is a minor,\n");
  std::printf("sometimes sub-1.00 effect. In the average case both features help —\n");
  std::printf("the detriment is specific to cold polluted caches.\n");
  bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
  bench::ExportMetricsJson(flags.metrics_json);
  return 0;
}
