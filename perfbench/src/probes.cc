// Fixed-input layer probes for the traced run. Each probe calls one module's
// public functions from outside, inside spans, and reads the program's
// metrics registry and hardware counters around the call. Inputs do not
// depend on the seed, so the probe counts repeat exactly on every run.

#include <algorithm>

#include "perfbench/src/bench.h"
#include "src/engine/checkpoint.h"
#include "src/fault/campaign.h"
#include "src/load/fleet.h"
#include "src/wcet/analysis.h"
#include "src/wcet/cfg.h"
#include "src/wcet/cost.h"
#include "src/wcet/ipet.h"
#include "src/wcet/loopbound.h"

namespace perfbench {

namespace {

using Metrics = std::map<std::string, double>;

// Boots a System with an |n|-client fleet over 16 servers.
std::unique_ptr<pmk::System> BootFleet(std::uint32_t n, double* ns) {
  const std::uint64_t t0 = NowNs();
  std::unique_ptr<pmk::System> sys;
  {
    Tracer::Scope s("sim", "System");
    sys = std::make_unique<pmk::System>(pmk::KernelConfig::After(), pmk::EvalMachine(false));
  }
  {
    Tracer::Scope s("load", "BuildClientFleet");
    pmk::load::FleetSpec spec;
    spec.clients = n;
    spec.servers = 16;
    pmk::load::BuildClientFleet(*sys, spec);
  }
  *ns = static_cast<double>(NowNs() - t0);
  return sys;
}

// Boot and clone cost per object at 1k and 16k clients: the scaling probe for
// "flat from 10^3 to 10^5 objects" (10^5 waits for a sub-quadratic boot).
void ScalingProbe(Metrics& out) {
  for (const auto& [n, reps, suffix] :
       {std::tuple{1000u, 5, ".1k"}, std::tuple{16000u, 1, ".16k"}}) {
    std::vector<double> boot;
    std::vector<double> clone;
    for (int r = 0; r < reps; ++r) {
      double ns = 0;
      const auto sys = BootFleet(n, &ns);
      const double objects = static_cast<double>(sys->kernel().objects().Count());
      boot.push_back(ns / objects);
      for (int c = 0; c < 3; ++c) {
        Tracer::Scope s("sim", "System::Clone");
        const auto copy = sys->Clone();
        clone.push_back(static_cast<double>(s.elapsed_ns()) / objects);
      }
    }
    out[std::string("kernel.boot_ns_per_object") + suffix] = Median(boot);
    out[std::string("kernel.clone_ns_per_object") + suffix] = Median(clone);
  }
}

// Freeze, fork and Find over the traffic workload's 2,000-client fleet.
void CloneProbe(Metrics& out) {
  double boot_ns = 0;
  const auto base = BootFleet(2000, &boot_ns);
  const double objects = static_cast<double>(base->kernel().objects().Count());

  std::vector<double> freeze_ns;
  std::unique_ptr<pmk::engine::SystemCheckpoint> cp;
  for (int r = 0; r < 3; ++r) {
    Tracer::Scope s("engine", "SystemCheckpoint");
    cp = std::make_unique<pmk::engine::SystemCheckpoint>(*base);
    freeze_ns.push_back(static_cast<double>(s.elapsed_ns()));
  }
  out["engine.freeze_s"] = Median(freeze_ns) * 1e-9;

  const RegistryWindow window;
  std::vector<double> fork_ns;
  for (int r = 0; r < 10; ++r) {
    Tracer::Scope s("engine", "Fork");
    const auto copy = cp->Fork();
    fork_ns.push_back(static_cast<double>(s.elapsed_ns()));
  }
  const auto snap = window.Read();
  out["kernel.clone_ns_per_object"] = Median(fork_ns) / objects;
  out["engine.fork_s"] = HistSum(snap, "engine.checkpoint.fork_nanos") /
                         std::max(1.0, HistCount(snap, "engine.checkpoint.fork_nanos")) * 1e-9;

  std::vector<pmk::Addr> bases;
  for (const auto& [addr, obj] : base->kernel().objects().objects()) {
    bases.push_back(addr);
  }
  std::vector<double> find_ns;
  std::size_t found = 0;
  for (int r = 0; r < 5; ++r) {
    Tracer::Scope s("kernel", "ObjectTable::Find");
    for (const pmk::Addr a : bases) {
      found += base->kernel().objects().Find(a) != nullptr ? 1 : 0;
    }
    find_ns.push_back(static_cast<double>(s.elapsed_ns()) / static_cast<double>(bases.size()));
  }
  out["kernel.find_ns"] = found == 5 * bases.size() ? Median(find_ns) : -1;
}

// CheckInvariants on forks of each canonical operation's system, and one
// uninjected Syscall of each operation with the hardware counters around it.
void KernelProbe(Metrics& out) {
  std::vector<double> audit_ns;
  double exec_ns = 0;
  std::uint64_t blocks = 0;
  pmk::HwCounters hw;
  for (const auto& [name, factory] : pmk::CanonicalOps()) {
    const pmk::ScenarioCheckpoint ckpt(factory);
    {
      pmk::OpInstance inst = ckpt.Fork();
      for (int r = 0; r < 5; ++r) {
        Tracer::Scope s("kernel", "CheckInvariants");
        inst.sys->kernel().CheckInvariants();
        audit_ns.push_back(static_cast<double>(s.elapsed_ns()));
      }
    }
    std::vector<double> op_ns;
    for (int r = 0; r < 5; ++r) {
      pmk::OpInstance inst = ckpt.Fork();
      const RegistryWindow window;
      const pmk::HwCounters before = inst.sys->machine().counters();
      {
        Tracer::Scope s("kir", "Kernel::Syscall");
        while (inst.sys->kernel().Syscall(inst.op, inst.cptr, inst.args) ==
               pmk::KernelExit::kPreempted) {
        }
        op_ns.push_back(static_cast<double>(s.elapsed_ns()));
      }
      if (r == 0) {
        const pmk::HwCounters& after = inst.sys->machine().counters();
        hw.l1i_accesses += after.l1i_accesses - before.l1i_accesses;
        hw.l1d_accesses += after.l1d_accesses - before.l1d_accesses;
        hw.l1d_misses += after.l1d_misses - before.l1d_misses;
        blocks += window.Read().CounterValue("sim.exec.blocks_charged");
      }
    }
    exec_ns += Median(op_ns);
  }
  const double accesses = static_cast<double>(hw.l1i_accesses + hw.l1d_accesses);
  out["kernel.audit_ns_per_call"] = Median(audit_ns);
  out["kir.exec_ns_per_block"] = exec_ns / std::max<double>(1, static_cast<double>(blocks));
  out["hw.exec_ns_per_access"] = exec_ns / std::max(1.0, accesses);
  out["hw.l1i_accesses"] = static_cast<double>(hw.l1i_accesses);
  out["hw.l1d_accesses"] = static_cast<double>(hw.l1d_accesses);
  out["hw.l1d_miss_ratio"] =
      static_cast<double>(hw.l1d_misses) / std::max<double>(1, static_cast<double>(hw.l1d_accesses));
}

// Direct Machine calls with the L2 and the branch predictor on: a fixed
// pseudo-random data/instruction/branch stream. Its span is the only one
// whose self time is the hardware model alone, and it gives the L2 and
// predictor counts the canonical operations (L2 and predictor off) cannot.
void HwProbe(Metrics& out) {
  pmk::Machine m(pmk::EvalMachine(true, true));
  Tracer::Scope s("hw", "Machine");
  std::uint64_t x = 1;
  for (int i = 0; i < 200000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    m.DataAccess(0x80000000u + static_cast<pmk::Addr>((x >> 33) % (256 * 1024)), (x & 1) != 0);
    m.InstrFetch(0x1000u + static_cast<pmk::Addr>((x >> 20) % 16384) * 4, 8);
    m.Branch(0x1000u + static_cast<pmk::Addr>((x >> 40) % 512) * 4,
             pmk::BranchKind::kConditional, ((x >> 7) & 3) != 0);
  }
  out["hw.l2_accesses"] = static_cast<double>(m.counters().l2_accesses);
  out["hw.branch_mispredicts"] = static_cast<double>(m.counters().branch_mispredicts);
}

// Replays the cold pipeline stage by stage over both kernels' four entries
// and cross-checks the replay against the analyzer's own wcet.stage timers.
void WcetStageProbe(Metrics& out) {
  const pmk::EntryPoint entries[] = {pmk::EntryPoint::kSyscall, pmk::EntryPoint::kUndefined,
                                     pmk::EntryPoint::kPageFault,
                                     pmk::EntryPoint::kInterrupt};
  const std::shared_ptr<const pmk::KernelImage> images[] = {
      pmk::SharedKernelImage(pmk::KernelConfig::Before()),
      pmk::SharedKernelImage(pmk::KernelConfig::After())};
  const pmk::AnalysisOptions options;
  const char* names[] = {"wcet.graph_s", "wcet.loopbound_s", "wcet.cost_s", "wcet.ipet_build_s",
                         "wcet.ilp_s"};
  std::vector<double> stage[5];
  for (int r = 0; r < 3; ++r) {
    double ns[5] = {};
    for (const auto& img : images) {
      const pmk::CostModelOptions copts = pmk::BuildCostModelOptions(*img, options);
      std::unique_ptr<pmk::CostModelCache> cache;
      for (const pmk::EntryPoint e : entries) {
        Tracer::Scope outer("wcet", "StageReplay");
        std::unique_ptr<pmk::InlinedGraph> graph;
        {
          Tracer::Scope s("wcet", "InlinedGraph");
          graph = std::make_unique<pmk::InlinedGraph>(img->prog, pmk::AnalysisEntryFunc(*img, e));
          ns[0] += static_cast<double>(s.elapsed_ns());
        }
        {
          Tracer::Scope s("wcet", "ComputeLoopBounds");
          pmk::ComputeLoopBounds(*graph);
          ns[1] += static_cast<double>(s.elapsed_ns());
        }
        pmk::CostResult costs;
        {
          Tracer::Scope s("wcet", "ComputeNodeCosts");
          if (!cache) {
            cache = std::make_unique<pmk::CostModelCache>(img->prog, copts);
          }
          costs = pmk::ComputeNodeCosts(*graph, *cache);
          ns[2] += static_cast<double>(s.elapsed_ns());
        }
        pmk::IpetProgram prog;
        {
          Tracer::Scope s("wcet", "BuildIpetProgram");
          pmk::IpetOptions iopts;
          iopts.irq_pending = options.irq_pending;
          prog = pmk::BuildIpetProgram(*graph, costs, iopts, options.constraints);
          ns[3] += static_cast<double>(s.elapsed_ns());
        }
        {
          Tracer::Scope s("wcet", "SolveIpetProgram");
          pmk::SolveIpetProgram(*graph, prog);
          ns[4] += static_cast<double>(s.elapsed_ns());
        }
      }
    }
    for (int k = 0; k < 5; ++k) {
      stage[k].push_back(ns[k]);
    }
  }
  double replay_ns = 0;
  for (int k = 0; k < 5; ++k) {
    out[names[k]] = Median(stage[k]) * 1e-9;
    replay_ns += Median(stage[k]);
  }

  std::vector<double> ratio;
  for (int r = 0; r < 3; ++r) {
    const RegistryWindow window;
    for (const auto& img : images) {
      Tracer::Scope s("wcet", "WcetAnalyzer");
      const pmk::WcetAnalyzer analyzer(*img, options);
      for (const pmk::EntryPoint e : entries) {
        analyzer.Analyze(e);
      }
    }
    const auto snap = window.Read();
    const double timers =
        HistSum(snap, "wcet.stage.graph_nanos") + HistSum(snap, "wcet.stage.loopbound_nanos") +
        HistSum(snap, "wcet.stage.cost_nanos") + HistSum(snap, "wcet.stage.ipet_nanos");
    ratio.push_back(timers > 0 ? replay_ns / timers : 0);
  }
  out["wcet.stage_timer_ratio"] = Median(ratio);
}

// 32 fixed-seed wcet_edit rounds: p50 of the Handle spans per request type.
void ServeProbe(Metrics& out) {
  RunOptions opts;
  opts.seed = 1;
  opts.record = true;  // no recorded-table lookups; replies are still checked
  const auto w = MakeWorkload("wcet_edit", opts);
  w->Setup();
  const std::size_t mark = Tracer::Get().spans().size();
  for (std::uint64_t i = 0; i < 32; ++i) {
    w->RunUnit(i);
  }
  out["wcet.serve.edit_us"] = Median(Tracer::Get().Durations("Handle.edit", mark)) * 1e-3;
  out["wcet.serve.bound_us"] = Median(Tracer::Get().Durations("Handle.bound", mark)) * 1e-3;
  out["wcet.serve.analyze_us"] = Median(Tracer::Get().Durations("Handle.analyze", mark)) * 1e-3;
}

// One fixed-seed traffic sweep and one campaign: the engine job pool, the
// load boot and the runner's step cost, from the registry's own timers.
void SweepProbe(Metrics& out) {
  const pmk::load::TrafficOptions opts = TrafficSweepOptions(1);
  const RegistryWindow window;
  pmk::load::TrafficReport report;
  {
    Tracer::Scope s("load", "RunTrafficSweep");
    report = pmk::load::RunTrafficSweep(opts);
  }
  const auto snap = window.Read();
  std::uint64_t steps = 0;
  for (const pmk::load::TrafficResult& r : report.results) {
    steps += r.steps;
  }
  const double job_wall = HistSum(snap, "engine.jobs.job_wall_nanos");
  const double batch_wall = HistSum(snap, "engine.jobs.batch_nanos");
  out["engine.job_wall_p50_ms"] = HistPercentile(snap, "engine.jobs.job_wall_nanos", 50) * 1e-6;
  out["engine.parallel_efficiency"] =
      batch_wall > 0 ? job_wall / (static_cast<double>(opts.jobs) * batch_wall) : 0;
  out["load.boot_s"] = HistSum(snap, "load.traffic.boot_nanos") * 1e-9;
  out["sim.ns_per_step"] = job_wall / std::max<double>(1, static_cast<double>(steps));

  pmk::CampaignConfig cfg;
  cfg.seed = 1;
  Tracer::Scope s("fault", "RunCampaign");
  pmk::RunCampaign(cfg);
  out["fault.seed_s"] = static_cast<double>(s.elapsed_ns()) * 1e-9;
}

}  // namespace

void RunLayerProbes(Metrics& out) {
  ScalingProbe(out);
  CloneProbe(out);
  KernelProbe(out);
  HwProbe(out);
  WcetStageProbe(out);
  ServeProbe(out);
  SweepProbe(out);
}

}  // namespace perfbench
