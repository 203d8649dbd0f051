// Ablations for the paper's future-work directions (Sections 6.1, 6.4, 8)
// and the open-vs-closed-system claim (Section 6.1):
//
//  1. Lock the entire kernel into the L2 cache: "would drastically reduce
//     execution time even further ... while also reducing non-determinism".
//  2. Make the atomic send-receive operation preemptible: "could be almost
//     halved by inserting a preemption point between the send and receive
//     phases".
//  3. Open vs closed systems: before the paper's changes, only "closed"
//     systems (restricted to short IPC, shallow cspaces) had acceptable
//     latency; afterwards "the latencies for the open-system scenarios are
//     no more than that of the closed system" modulo the cap-decode worst
//     case, which authority confinement prevents.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/latency.h"
#include "src/sim/report.h"
#include "src/sim/workload.h"
#include "src/wcet/analysis.h"

namespace pmk {
namespace {

// Manual constraints that restrict the analysis to a "closed" system: no
// object invocations from untrusted code and at most two-level cspaces
// (paper Section 6.1: "most seL4-based systems would be designed to require
// at most one or two levels of decoding").
std::vector<ManualConstraint> ClosedSystem(const KernelImage& img) {
  std::vector<ManualConstraint> cons;
  ManualConstraint no_invoke;
  no_invoke.kind = ManualConstraint::Kind::kExecutes;
  no_invoke.a = img.b.inv.entry;
  no_invoke.n = 0;
  cons.push_back(no_invoke);
  ManualConstraint shallow;
  shallow.kind = ManualConstraint::Kind::kExecutes;
  shallow.a = img.b.dec.loop;
  // Up to (1 endpoint + kMaxExtraCaps) decodes per entry, 2 levels each.
  shallow.n = 2 * (1 + KernelConfig::kMaxExtraCaps) * 2;
  cons.push_back(shallow);
  return cons;
}

// Constraints that force the analysis onto the ReplyRecv (atomic
// send-receive) dispatcher branch only.
std::vector<ManualConstraint> OnlyReplyRecv(const KernelImage& img) {
  std::vector<ManualConstraint> cons;
  for (const BlockId b : {img.b.sys.do_call, img.b.sys.do_send, img.b.sys.do_recv,
                          img.b.sys.do_yield, img.b.sys.fast_do}) {
    if (b == kNoBlock) {
      continue;
    }
    ManualConstraint mc;
    mc.kind = ManualConstraint::Kind::kExecutes;
    mc.a = b;
    mc.n = 0;
    cons.push_back(mc);
  }
  return cons;
}

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) {
  using namespace pmk;
  const ClockSpec clk;
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const bool csv = flags.csv;
  const auto show = [csv](const Table& t) {
    if (csv) {
      t.PrintCsv();
    } else {
      t.Print();
    }
  };

  // ---- 1. Whole-kernel L2 pinning ----
  if (!csv) {
    std::printf("Future work 1 (Sections 4, 6.4, 8): lock the whole kernel into the L2\n\n");
  }
  {
    const auto img = BuildKernelImage(KernelConfig::After());
    AnalysisOptions l2_off;
    AnalysisOptions l2_on;
    l2_on.l2_enabled = true;
    AnalysisOptions l2_pinned = l2_on;
    l2_pinned.l2_kernel_pinning = true;
    WcetAnalyzer a_off(*img, l2_off);
    WcetAnalyzer a_on(*img, l2_on);
    WcetAnalyzer a_pin(*img, l2_pinned);
    Table t({"Event handler", "L2 off (us)", "L2 on (us)", "L2 on, kernel pinned (us)"});
    for (const EntryPoint e : kEntryPoints) {
      t.AddRow({EntryPointName(e), Table::Us(clk.ToMicros(a_off.Analyze(e).wcet)),
                Table::Us(clk.ToMicros(a_on.Analyze(e).wcet)),
                Table::Us(clk.ToMicros(a_pin.Analyze(e).wcet))});
    }
    show(t);
    // Runtime check: pin the kernel into the modelled L2 and observe.
    System sys(KernelConfig::After(), EvalMachine(true));
    sys.AttachTraceSink(&bench::GlobalTrace());  // representative modelled run
    const std::size_t pinned = sys.kernel().ApplyL2KernelPinning();
    const Cycles observed = EntryScenario(sys, EntryPoint::kSyscall).Run().cycles;
    if (!csv) {
      std::printf("\n%zu L2 lines pinned; observed worst-case IPC with kernel-in-L2:"
                  " %llu cycles\n", pinned, static_cast<unsigned long long>(observed));
    }
  }

  // ---- 2. Preemptible atomic send-receive ----
  if (!csv) {
    std::printf("\nFuture work 2 (Sections 6.1, 8): split the atomic send-receive\n\n");
  }
  {
    KernelConfig split = KernelConfig::After();
    split.preemptible_send_receive = true;
    const auto atomic_img = BuildKernelImage(KernelConfig::After());
    const auto split_img = BuildKernelImage(split);
    Table t({"variant", "send-receive path WCET (us)", "full syscall WCET (us)"});
    for (const auto& [name, img] :
         {std::pair<const char*, const KernelImage*>{"atomic (as shipped)", atomic_img.get()},
          {"preemption point between phases", split_img.get()}}) {
      AnalysisOptions rr_only;
      rr_only.constraints = OnlyReplyRecv(*img);
      WcetAnalyzer a_rr(*img, rr_only);
      WcetAnalyzer a_all(*img, AnalysisOptions{});
      t.AddRow({name,
                Table::Us(clk.ToMicros(a_rr.Analyze(EntryPoint::kSyscall).wcet)),
                Table::Us(clk.ToMicros(a_all.Analyze(EntryPoint::kSyscall).wcet))});
    }
    show(t);
    if (!csv) {
      std::printf("(paper: \"the execution time of this operation could be almost halved\n"
                  " by inserting a preemption point between the send and receive phases\")\n");
    }
  }

  // ---- 3. Open vs closed systems ----
  if (!csv) {
    std::printf("\nOpen vs closed systems (Section 6.1)\n\n");
  }
  {
    Table t({"kernel", "closed system (us)", "open system (us)", "open/closed"});
    for (const auto& [name, kc] :
         {std::pair<const char*, KernelConfig>{"before", KernelConfig::Before()},
          {"after", KernelConfig::After()}}) {
      const auto img = BuildKernelImage(kc);
      AnalysisOptions open;
      AnalysisOptions closed;
      closed.constraints = ClosedSystem(*img);
      WcetAnalyzer a_open(*img, open);
      WcetAnalyzer a_closed(*img, closed);
      const Cycles wo = a_open.Analyze(EntryPoint::kSyscall).wcet;
      const Cycles wc = a_closed.Analyze(EntryPoint::kSyscall).wcet;
      t.AddRow({name, Table::Us(clk.ToMicros(wc)), Table::Us(clk.ToMicros(wo)),
                Table::Ratio(static_cast<double>(wo) / static_cast<double>(wc))});
    }
    show(t);
    if (!csv) {
      std::printf("(the paper's changes shrink the open/closed gap from orders of\n"
                  " magnitude to the cap-decode factor, which the authority model can\n"
                  " eliminate by denying adversaries their own cspaces)\n");
    }
  }
  bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
  bench::ExportMetricsJson(flags.metrics_json);
  return 0;
}
