#include "src/load/traffic.h"

#include <cstdio>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "src/engine/checkpoint.h"
#include "src/engine/shard.h"
#include "src/engine/wire.h"
#include "src/kernel/image.h"
#include "src/load/driver.h"
#include "src/load/ring.h"
#include "src/load/source.h"
#include "src/obs/metrics.h"
#include "src/sim/latency.h"
#include "src/sim/rng.h"

namespace pmk::load {

namespace {

// The modelled world every sweep runs in. Sweeps vary only the seed, the
// fleet size, the load points and the run length.
constexpr std::uint8_t kDriverPrio = 200;    // drains above everything else
constexpr std::uint32_t kNicLine = 1;        // line 0 is the timer
constexpr std::uint32_t kRingCapacity = 64;  // NIC descriptor slots
constexpr Cycles kTimerPeriod = 8192;        // periodic tick, bounds idle fast-forward
constexpr Cycles kComputeSlice = 400;        // Runner compute slicing granularity
constexpr Cycles kClientThink = 200;         // closed-loop think time

// One point in the scenario grid (shape-major, load-minor ordinal order).
struct ScenarioSpec {
  ArrivalShape shape = ArrivalShape::kOpenLoop;
  std::uint32_t load_point = 0;
  Cycles frame_gap = 0;
};

std::vector<ScenarioSpec> BuildGrid(const TrafficOptions& opts) {
  std::vector<ScenarioSpec> grid;
  grid.reserve(TrafficOptions::shapes.size() * opts.load_gaps.size());
  for (const ArrivalShape shape : TrafficOptions::shapes) {
    for (std::uint32_t li = 0; li < opts.load_gaps.size(); ++li) {
      grid.push_back({shape, li, opts.load_gaps[li]});
    }
  }
  return grid;
}

// Journal key of one scenario: stable across processes and sessions.
std::string ScenarioKey(const ScenarioSpec& scen) {
  char key[128];
  std::snprintf(key, sizeof(key), "traffic|%s|%u|%llu", ArrivalShapeName(scen.shape),
                scen.load_point, static_cast<unsigned long long>(scen.frame_gap));
  return key;
}

// Kernel-side world shared by every scenario: fleet + driver thread + NIC
// binding, built once and checkpointed. Only addresses/cptrs cross the fork.
struct BootInfo {
  Fleet fleet;
  Addr driver_addr = 0;
  std::uint32_t ack_cptr = 0;
  std::uint32_t recv_cptr = 0;
};

BootInfo BootTrafficWorld(System& sys, const TrafficOptions& opts) {
  BootInfo boot;
  FleetSpec fs;
  fs.clients = opts.clients;
  fs.servers = opts.servers;
  boot.fleet = BuildClientFleet(sys, fs);

  Kernel& k = sys.kernel();
  EndpointObj* irq_ep = nullptr;
  boot.recv_cptr = sys.AddEndpoint(&irq_ep);
  TcbObj* driver = sys.AddThread(kDriverPrio);
  k.DirectResume(driver);
  boot.driver_addr = driver->base;
  IrqHandlerObj* handler = k.DirectIrqHandler(kNicLine);
  Cap hcap;
  hcap.type = ObjType::kIrqHandler;
  hcap.obj = handler->base;
  boot.ack_cptr = sys.AddCap(hcap);
  k.DirectBindIrq(kNicLine, irq_ep);
  k.DirectSetCurrent(driver);
  return boot;
}

// Client i's arrival process. Every draw comes from the per-(scenario,
// client) child stream, so the program is a pure function of (seed, ordinal,
// i). A scenario keeps all its clients in one vector and each generator
// captures one pointer into it, which std::function stores without
// allocating.
struct Client {
  std::uint32_t cptr = 0;
  ArrivalShape shape = ArrivalShape::kOpenLoop;
  Cycles gap = 0;
  SplitMix64 rng;
  std::uint64_t* calls = nullptr;  // the scenario's total
  bool next_is_call = false;
  std::uint32_t burst_pos = 0;

  std::optional<UserStep> Next() {
    if (!next_is_call) {
      next_is_call = true;
      Cycles think = kClientThink;
      switch (shape) {
        case ArrivalShape::kClosedLoop:
          break;  // fixed short think: re-request as soon as replied
        case ArrivalShape::kOpenLoop:
          think = gap / 2 + rng.Below(gap);
          break;
        case ArrivalShape::kBurstyStorm:
          // Eight back-to-back requests, then a long synchronized silence.
          burst_pos = (burst_pos + 1) % 8;
          think = burst_pos != 0 ? 50 : gap * 16;
          break;
      }
      return UserStep::Compute(think);
    }
    next_is_call = false;
    ++*calls;
    SyscallArgs call;
    call.msg_len = 2;
    return UserStep::Syscall(SysOp::kCall, cptr, call);
  }
};

TrafficResult RunScenario(const engine::SystemCheckpoint& cp, const BootInfo& boot,
                          const TrafficOptions& opts, const ScenarioSpec& scen,
                          std::size_t ordinal) {
  std::unique_ptr<System> sys = cp.Fork();
  const Fleet fleet = ResolveFleet(*sys, boot.fleet);
  TcbObj* driver_tcb = sys->kernel().objects().Get<TcbObj>(boot.driver_addr);
  if (driver_tcb == nullptr) {
    throw std::logic_error("traffic: driver TCB missing in forked clone");
  }

  // Device side: ring + frame source on the disturbance seam. A storm
  // scenario fires 32-frame back-to-back bursts; steady shapes use the
  // jittered open-loop schedule. All draws come from Split(ordinal).
  const SplitMix64 base = SplitMix64(opts.seed).Split(ordinal);
  DeviceRing ring(kRingCapacity);
  FrameSource::Config sc;
  sc.line = kNicLine;
  sc.mean_gap = scen.frame_gap;
  if (scen.shape == ArrivalShape::kBurstyStorm) {
    sc.burst = 32;
    sc.burst_silence = scen.frame_gap * 8;
  }
  FrameSource source(sc, base.Split(0));

  TwoPhaseDriver driver(&ring, {.ack_cptr = boot.ack_cptr, .recv_cptr = boot.recv_cptr});

  Runner runner(sys.get());
  runner.SetComputeSliceCycles(kComputeSlice);
  runner.SetDisturbance([&](Cycles now) { source.Tick(now, ring, sys->machine().irq()); });
  runner.SetProgram(driver_tcb, {UserStep::Dynamic(driver.Program())});
  for (std::size_t s = 0; s < fleet.servers.size(); ++s) {
    runner.SetProgram(fleet.servers[s],
                      {UserStep::Syscall(SysOp::kReplyRecv, fleet.ep_cptrs[s])});
  }
  std::uint64_t client_calls = 0;
  std::vector<Client> clients;
  clients.reserve(fleet.clients.size());  // never reallocates: generators point in
  for (std::uint32_t i = 0; i < fleet.clients.size(); ++i) {
    Client& c = clients.emplace_back(Client{.cptr = fleet.client_cptrs[i],
                                            .shape = scen.shape,
                                            .gap = scen.frame_gap,
                                            .rng = base.Split(i + 1),
                                            .calls = &client_calls});
    runner.SetProgram(fleet.clients[i],
                      {UserStep::Dynamic([&c](System&) { return c.Next(); })});
  }

  sys->machine().timer().set_period(kTimerPeriod);
  sys->machine().timer().Restart(sys->machine().Now());
  const std::uint64_t steps = runner.Run(opts.run_cycles);
  sys->machine().timer().set_period(0);
  sys->kernel().CheckInvariants();

  TrafficResult res;
  res.shape = ArrivalShapeName(scen.shape);
  res.load_point = scen.load_point;
  res.frame_gap = scen.frame_gap;
  for (const Cycles lat : sys->kernel().irq_latencies()) {
    res.irq_hist.Record(lat);
  }
  res.frame_delay = driver.frame_delay();
  res.frames_offered = source.offered();
  res.frames_dropped = ring.dropped();
  res.frames_processed = driver.frames_processed();
  res.driver_acks = driver.acks_issued();
  res.client_calls = client_calls;
  // Each completed server ReplyRecv after a server's first one delivered a
  // reply to a waiting client — the goodput measure. Counting server-side is
  // exact even when the replied client is never rescheduled before the run
  // ends (at 1000+ runnable clients, most aren't).
  for (const TcbObj* s : fleet.servers) {
    const std::uint64_t n = runner.StepsCompleted(s);
    res.requests_served += n > 0 ? n - 1 : 0;
  }
  res.spurious_acks = sys->machine().irq().spurious_acks();
  res.coalesced_asserts = sys->machine().irq().coalesced_asserts();
  res.steps = steps;
  return res;
}

// Journal context: the kernel image plus every TrafficOptions field that
// changes a result. Parallelism knobs are left out.
std::uint64_t TrafficContextDigest(const TrafficOptions& opts) {
  engine::WireWriter w;
  w.U64(KernelImageDigest(KernelConfig::After()));
  w.U64(opts.seed);
  w.U32(opts.clients);
  w.U32(opts.servers);
  w.U64(opts.run_cycles);
  for (const Cycles g : opts.load_gaps) {
    w.U64(g);
  }
  const std::vector<std::uint8_t>& b = w.bytes();
  return engine::Fnv1a64(b.data(), b.size());
}

}  // namespace

std::vector<std::uint8_t> EncodeTrafficResult(const TrafficResult& r) {
  engine::WireWriter w;
  w.Str(r.shape);
  w.U32(r.load_point);
  w.U64(r.frame_gap);
  engine::WriteHistogram(w, r.irq_hist);
  engine::WriteHistogram(w, r.frame_delay);
  w.U64(r.frames_offered);
  w.U64(r.frames_dropped);
  w.U64(r.frames_processed);
  w.U64(r.driver_acks);
  w.U64(r.client_calls);
  w.U64(r.requests_served);
  w.U64(r.spurious_acks);
  w.U64(r.coalesced_asserts);
  w.U64(r.steps);
  return w.Take();
}

TrafficResult DecodeTrafficResult(const std::vector<std::uint8_t>& bytes) {
  engine::WireReader rd(bytes.data(), bytes.size());
  TrafficResult r;
  r.shape = rd.Str();
  r.load_point = rd.U32();
  r.frame_gap = rd.U64();
  r.irq_hist = engine::ReadHistogram(rd);
  r.frame_delay = engine::ReadHistogram(rd);
  r.frames_offered = rd.U64();
  r.frames_dropped = rd.U64();
  r.frames_processed = rd.U64();
  r.driver_acks = rd.U64();
  r.client_calls = rd.U64();
  r.requests_served = rd.U64();
  r.spurious_acks = rd.U64();
  r.coalesced_asserts = rd.U64();
  r.steps = rd.U64();
  rd.ExpectEnd("traffic result");
  return r;
}

TrafficReport RunTrafficSweep(const TrafficOptions& opts) {
  static obs::Counter sweeps("load.traffic.sweeps");
  static obs::Timer boot_nanos("load.traffic.boot_nanos");
  sweeps.Inc();

  const std::vector<ScenarioSpec> grid = BuildGrid(opts);
  TrafficReport report;
  report.seed = opts.seed;
  if (grid.empty()) {
    return report;
  }

  // Boot once, checkpoint, fork per scenario.
  std::unique_ptr<engine::SystemCheckpoint> cp;
  BootInfo boot;
  {
    const auto scope = boot_nanos.Measure();
    System base(KernelConfig::After(), EvalMachine(false));
    boot = BootTrafficWorld(base, opts);
    cp = std::make_unique<engine::SystemCheckpoint>(base);
  }

  engine::ShardOptions sopts;
  sopts.shards = opts.shards;
  sopts.jobs_per_shard = opts.jobs;
  sopts.journal_dir = opts.journal_dir;
  sopts.journal_digest = TrafficContextDigest(opts);
  sopts.seed = opts.seed;
  std::vector<engine::ShardTask> tasks;
  tasks.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const ScenarioSpec& scen = grid[i];
    tasks.push_back({ScenarioKey(scen), [&cp, &boot, &opts, scen, i] {
                       return EncodeTrafficResult(RunScenario(*cp, boot, opts, scen, i));
                     }});
  }
  const engine::ShardOutcome out = engine::ShardSupervisor(std::move(tasks), sopts).Run();
  report.results.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!out.completed[i]) {
      throw std::runtime_error("traffic: scenario failed: " + ScenarioKey(grid[i]));
    }
    report.results.push_back(DecodeTrafficResult(out.payloads[i]));
  }
  report.shard = out.stats;

  // Telemetry feed — observer only, after every deterministic byte is fixed.
  std::uint64_t offered = 0, dropped = 0, processed = 0, served = 0;
  std::uint64_t spurious = 0, coalesced = 0;
  for (const TrafficResult& r : report.results) {
    offered += r.frames_offered;
    dropped += r.frames_dropped;
    processed += r.frames_processed;
    served += r.requests_served;
    spurious += r.spurious_acks;
    coalesced += r.coalesced_asserts;
  }
  static obs::Counter m_offered("load.frames.offered");
  static obs::Counter m_dropped("load.frames.dropped");
  static obs::Counter m_processed("load.frames.processed");
  static obs::Counter m_served("load.requests.served");
  m_offered.Inc(offered);
  m_dropped.Inc(dropped);
  m_processed.Inc(processed);
  m_served.Inc(served);
  RecordIrqControllerMetrics(spurious, coalesced);
  return report;
}

std::string RenderTrafficTable(const TrafficReport& report) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-7s %8s %8s %7s %9s %7s %7s %8s %8s %8s %9s\n",
                "shape", "gap", "offered", "drops", "processed", "calls", "served",
                "irq_p50", "irq_p99", "irq_max", "coalesced");
  out += buf;
  for (const TrafficResult& r : report.results) {
    const LatencyHistogram::Summary s = r.irq_hist.Summarize();
    std::snprintf(buf, sizeof(buf),
                  "  %-7s %8llu %8llu %7llu %9llu %7llu %7llu %8llu %8llu %8llu %9llu\n",
                  r.shape.c_str(), static_cast<unsigned long long>(r.frame_gap),
                  static_cast<unsigned long long>(r.frames_offered),
                  static_cast<unsigned long long>(r.frames_dropped),
                  static_cast<unsigned long long>(r.frames_processed),
                  static_cast<unsigned long long>(r.client_calls),
                  static_cast<unsigned long long>(r.requests_served),
                  static_cast<unsigned long long>(s.p50),
                  static_cast<unsigned long long>(s.p99),
                  static_cast<unsigned long long>(s.max),
                  static_cast<unsigned long long>(r.coalesced_asserts));
    out += buf;
  }
  return out;
}

void WriteTrafficCsv(const TrafficReport& report, std::ostream& os) {
  os << "shape,load_point,frame_gap,frames_offered,frames_dropped,frames_processed,"
        "driver_acks,client_calls,requests_served,irq_count,irq_p50,irq_p90,irq_p99,"
        "irq_max,delay_p50,delay_max,spurious_acks,coalesced_asserts,steps\n";
  for (const TrafficResult& r : report.results) {
    const LatencyHistogram::Summary s = r.irq_hist.Summarize();
    const LatencyHistogram::Summary d = r.frame_delay.Summarize();
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s,%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                  "%llu,%llu,%llu,%llu,%llu\n",
                  r.shape.c_str(), r.load_point,
                  static_cast<unsigned long long>(r.frame_gap),
                  static_cast<unsigned long long>(r.frames_offered),
                  static_cast<unsigned long long>(r.frames_dropped),
                  static_cast<unsigned long long>(r.frames_processed),
                  static_cast<unsigned long long>(r.driver_acks),
                  static_cast<unsigned long long>(r.client_calls),
                  static_cast<unsigned long long>(r.requests_served),
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.p50),
                  static_cast<unsigned long long>(s.p90),
                  static_cast<unsigned long long>(s.p99),
                  static_cast<unsigned long long>(s.max),
                  static_cast<unsigned long long>(d.p50),
                  static_cast<unsigned long long>(d.max),
                  static_cast<unsigned long long>(r.spurious_acks),
                  static_cast<unsigned long long>(r.coalesced_asserts),
                  static_cast<unsigned long long>(r.steps));
    os << buf;
  }
}

void FeedObservatory(const TrafficReport& report, obs::TailObservatory& observatory,
                     const std::string& config_label) {
  for (const TrafficResult& r : report.results) {
    char label[96];
    std::snprintf(label, sizeof(label), "traffic/%s/g%llu", r.shape.c_str(),
                  static_cast<unsigned long long>(r.frame_gap));
    const std::string scenario(label);
    if (r.shape == ArrivalShapeName(ArrivalShape::kBurstyStorm)) {
      observatory.SetUnenforced(scenario);
    }
    observatory.Touch(config_label, scenario);
    observatory.RecordHistogram(config_label, scenario, r.irq_hist);
    observatory.RecordIrqCounters(config_label, scenario, r.spurious_acks,
                                  r.coalesced_asserts);
  }
}

}  // namespace pmk::load
