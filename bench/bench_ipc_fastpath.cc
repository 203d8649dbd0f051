// Section 6.1: the IPC fastpath against the slowpath, and the paper's claim
// that the preemption points leave the fastpath untouched. Every figure is
// the exact modelled cost of one warm call: each case runs once to warm the
// caches, and the next call is the one reported. The paper measures
// 200-250 cycles for the fastpath on the ARM1136; the per-block table shows
// where this model's fastpath cycles go (EXPERIMENTS.md, Section 6.1).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/pmu.h"
#include "src/obs/trace_sink.h"
#include "src/sim/report.h"
#include "src/sim/workload.h"

namespace pmk {
namespace {

// A client Calls a higher-priority server blocked in Recv, and the server's
// ReplyRecv restores that state, so round trips repeat.
struct PingPong {
  explicit PingPong(const KernelConfig& kc, bool bpred = false)
      : sys(kc, EvalMachine(false, bpred)) {
    ep_cptr = sys.AddEndpoint(&ep);
    TcbObj* server = sys.AddThread(60);
    TcbObj* client = sys.AddThread(10);
    sys.kernel().DirectBlockOnRecv(server, ep);
    sys.kernel().DirectSetCurrent(client);
  }

  // One Call + ReplyRecv round trip; returns the Call's modelled cycles.
  Cycles RoundTrip(std::uint32_t msg_len) {
    SyscallArgs call;
    call.msg_len = msg_len;
    const Cycles t0 = sys.machine().Now();
    sys.kernel().Syscall(SysOp::kCall, ep_cptr, call);
    const Cycles call_cost = sys.machine().Now() - t0;
    sys.kernel().Syscall(SysOp::kReplyRecv, ep_cptr, SyscallArgs{});
    return call_cost;
  }

  System sys;
  EndpointObj* ep = nullptr;
  std::uint32_t ep_cptr = 0;
};

Cycles WarmCall(const KernelConfig& kc, std::uint32_t msg_len, bool bpred = false) {
  PingPong pp(kc, bpred);
  pp.RoundTrip(msg_len);
  return pp.RoundTrip(msg_len);
}

// A Send through a |levels|-deep cspace, measured on its second run. The
// first run is the cold decode that fig7_capdecode reports.
Cycles WarmDeepSend(std::uint32_t levels) {
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  sys.AddEndpoint(&ep);
  TcbObj* recv = sys.AddThread(60);
  TcbObj* send = sys.AddThread(10);
  Cap target;
  target.type = ObjType::kEndpoint;
  target.obj = ep->base;
  const std::uint32_t cptr = sys.BuildDeepCapSpace(send, target, levels);
  Cycles cost = 0;
  for (int run = 0; run < 2; ++run) {
    sys.kernel().DirectBlockOnRecv(recv, ep);
    sys.kernel().DirectSetCurrent(send);
    const Cycles t0 = sys.machine().Now();
    sys.kernel().Syscall(SysOp::kSend, cptr, SyscallArgs{});
    cost = sys.machine().Now() - t0;
    recv->state = ThreadState::kRunning;
  }
  return cost;
}

// Reads the PMU at the close of every block of the first kernel entry it
// sees. The executor counts every event as it charges it, so each read is
// exact.
class BlockPmu : public TraceSink {
 public:
  explicit BlockPmu(System& sys) : sys_(sys) {}

  void OnEvent(const TraceEvent& e) override {
    if (e.kind == TraceEventKind::kKernelEntry && !done_) {
      last_ = ReadPmu(sys_.machine());
    } else if (e.kind == TraceEventKind::kKernelExit) {
      done_ = true;
    } else if (e.kind == TraceEventKind::kBlockCost && !done_) {
      const PmuSnapshot now = ReadPmu(sys_.machine());
      blocks_.push_back({e.id, now - last_});
      last_ = now;
    }
  }

  // block, instructions, raw cycles (exception entry/exit, coprocessor
  // work), data accesses, branches, cycles; then their totals.
  Table Render() const {
    Table t({"block", "instructions", "raw", "data accesses", "branches", "cycles"});
    PmuSnapshot sum;
    Cycles raw_sum = 0;
    for (const auto& [id, d] : blocks_) {
      const Block& b = sys_.kernel().image().prog.block(id);
      t.AddRow({b.name, Table::Cyc(d.instructions), Table::Cyc(b.raw_cycles),
                Table::Cyc(d.l1d_accesses), Table::Cyc(d.branches), Table::Cyc(d.cycles)});
      sum.instructions += d.instructions;
      sum.l1d_accesses += d.l1d_accesses;
      sum.branches += d.branches;
      sum.cycles += d.cycles;
      raw_sum += b.raw_cycles;
    }
    t.AddRow({"total", Table::Cyc(sum.instructions), Table::Cyc(raw_sum),
              Table::Cyc(sum.l1d_accesses), Table::Cyc(sum.branches), Table::Cyc(sum.cycles)});
    return t;
  }

 private:
  System& sys_;
  bool done_ = false;
  PmuSnapshot last_;
  std::vector<std::pair<BlockId, PmuSnapshot>> blocks_;
};

}  // namespace
}  // namespace pmk

int main(int argc, char** argv) {
  using namespace pmk;
  const bench::CommonFlags flags = bench::ParseCommonFlags(argc, argv);
  const bool csv = flags.csv;
  const auto show = [csv](const char* title, const Table& t) {
    if (csv) {
      t.PrintCsv();
    } else {
      std::printf("%s\n", title);
      t.Print();
    }
  };

  KernelConfig no_fastpath = KernelConfig::After();
  no_fastpath.ipc_fastpath = false;
  KernelConfig before = KernelConfig::Before();
  before.scheduler = SchedulerKind::kBenno;  // same IPC path shape
  before.scheduler_bitmap = true;
  before.vspace = VSpaceKind::kShadow;
  const Cycles fast = WarmCall(KernelConfig::After(), 2);

  if (!csv) {
    std::printf("Section 6.1: modelled cycles of one warm IPC\n\n");
  }
  Table calls({"Call", "cycles"});
  calls.AddRow({"fastpath, msg_len 2", Table::Cyc(fast)});
  calls.AddRow({"fastpath, branch predictor on",
                 Table::Cyc(WarmCall(KernelConfig::After(), 2, /*bpred=*/true))});
  calls.AddRow({"slowpath, msg_len 8", Table::Cyc(WarmCall(KernelConfig::After(), 8))});
  calls.AddRow({"ipc_fastpath off, msg_len 2", Table::Cyc(WarmCall(no_fastpath, 2))});
  show("Call, fastpath vs slowpath:", calls);

  Table kernels({"kernel", "fastpath cycles"});
  kernels.AddRow({"before (no preemption points)", Table::Cyc(WarmCall(before, 2))});
  kernels.AddRow({"after", Table::Cyc(fast)});
  show("\nfastpath Call with and without the preemption points:", kernels);

  Table sends({"levels", "cycles"});
  for (const std::uint32_t levels : {1u, 8u, 32u}) {
    sends.AddRow({std::to_string(levels), Table::Cyc(WarmDeepSend(levels))});
  }
  show("\nwarm Send through a deep cspace (cold: fig7_capdecode):", sends);

  // One instrumented fastpath round trip: the PMU read around it, its Call's
  // blocks in execution order and, with --trace-json, a Chrome trace. Trace
  // sinks charge no modelled cycles.
  PingPong pp(KernelConfig::After());
  pp.RoundTrip(2);
  BlockPmu call_blocks(pp.sys);
  MultiSink sinks({&bench::GlobalTrace(), &call_blocks});
  pp.sys.AttachTraceSink(&sinks);
  const PmuSnapshot pmu0 = ReadPmu(pp.sys.machine());
  const Cycles call_cycles = pp.RoundTrip(2);
  const PmuSnapshot d = ReadPmu(pp.sys.machine()) - pmu0;
  show("\nwarm fastpath Call, block by block:", call_blocks.Render());

  Table t({"metric", "value"});
  t.AddRow({"fastpath_call_cycles", Table::Cyc(call_cycles)});
  t.AddRow({"roundtrip_cycles", Table::Cyc(d.cycles)});
  t.AddRow({"instructions", Table::Cyc(d.instructions)});
  t.AddRow({"l1i_misses", Table::Cyc(d.l1i_misses)});
  t.AddRow({"l1d_misses", Table::Cyc(d.l1d_misses)});
  t.AddRow({"branches", Table::Cyc(d.branches)});
  t.AddRow({"mem_stall_cycles", Table::Cyc(d.mem_stall_cycles)});
  show("\nPMU, one warm fastpath round trip:", t);

  bench::WriteTraceJson(bench::GlobalTrace(), flags.trace_json);
  bench::ExportMetricsJson(flags.metrics_json);
  return 0;
}
