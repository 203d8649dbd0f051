// Figure 7: the worst-case capability-address decode. A crafted capability
// space makes every one of the 32 address bits require a separate CNode
// lookup; each level is a fresh set of cache misses. This bench sweeps the
// decode depth from 1 to 32 levels and reports the observed cost of a Send
// through such a cspace (cold, polluted caches), plus the cost of the
// paper's worst-case IPC where up to (1 + kMaxExtraCaps) such decodes stack
// up in one system call.

#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/latency.h"
#include "src/sim/report.h"
#include "src/sim/workload.h"

int main(int argc, char** argv) {
  using namespace pmk;
  const ClockSpec clk;
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const bool csv = flags.csv;

  if (!csv) {
    std::printf("Figure 7: cost of capability decode vs cspace depth\n");
    std::printf("(Send through a chain of 1-bit CNodes; cold polluted caches)\n\n");
  }

  Table t({"levels", "syscall cycles", "us", ""});
  Cycles depth32 = 0;
  Cycles depth1 = 0;
  for (std::uint32_t levels = 1; levels <= 32; ++levels) {
    System sys(KernelConfig::After(), EvalMachine(false));
    EndpointObj* ep = nullptr;
    sys.AddEndpoint(&ep);
    TcbObj* recv = sys.AddThread(10);
    TcbObj* send = sys.AddThread(10);
    sys.kernel().DirectBlockOnRecv(recv, ep);
    Cap target;
    target.type = ObjType::kEndpoint;
    target.obj = ep->base;
    const std::uint32_t cptr = sys.BuildDeepCapSpace(send, target, levels);
    if (levels == 32) {
      sys.AttachTraceSink(&bench::GlobalTrace());  // deepest decode is the figure's point
    }
    sys.kernel().DirectSetCurrent(send);

    SyscallArgs args;
    args.msg_len = 0;
    sys.machine().PolluteCaches();
    const Cycles t0 = sys.machine().Now();
    sys.kernel().Syscall(SysOp::kSend, cptr, args);
    const Cycles cost = sys.machine().Now() - t0;
    if (levels == 1) {
      depth1 = cost;
    }
    if (levels == 32) {
      depth32 = cost;
    }
    if (levels == 1 || levels % 4 == 0) {
      t.AddRow({std::to_string(levels), Table::Cyc(cost), Table::Us(clk.ToMicros(cost)),
                Bar(static_cast<double>(cost), 12000.0, 30)});
    }
  }
  if (csv) {
    t.PrintCsv();
    bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
    bench::ExportMetricsJson(flags.metrics_json);
    return 0;
  }
  t.Print();
  std::printf("\n32-level decode costs %.1fx a 1-level decode\n",
              static_cast<double>(depth32) / static_cast<double>(depth1));

  // The paper's Section 6.1 worst case: several decodes in one syscall.
  {
    System sys(KernelConfig::After(), EvalMachine(false));
    const Cycles cost = EntryScenario(sys, EntryPoint::kSyscall).Run().cycles;
    std::printf(
        "\nworst-case IPC (full message + %u granted caps, every decode 32 levels):\n"
        "  %llu cycles = %.1f us — %u separate 32-level decodes in one syscall\n",
        KernelConfig::kMaxExtraCaps, static_cast<unsigned long long>(cost),
        clk.ToMicros(cost), 1 + KernelConfig::kMaxExtraCaps);
  }
  std::printf(
      "\nNote: practical systems use 1-2 level cspaces; only an adversary crafting\n"
      "its own capability space reaches this worst case (paper Section 6.1).\n");
  bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
  bench::ExportMetricsJson(flags.metrics_json);
  return 0;
}
