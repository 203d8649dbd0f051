#include "src/fault/campaign.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "src/engine/checkpoint.h"
#include "src/engine/shard.h"
#include "src/engine/wire.h"
#include "src/kernel/error.h"
#include "src/kernel/image.h"
#include "src/obs/metrics.h"
#include "src/sim/latency.h"
#include "src/sim/rng.h"
#include "src/sim/runner.h"

namespace pmk {

namespace {

// Keep CSV cells single-token: commas and newlines in failure details would
// break the column structure (and with it byte-identical diffing).
std::string Sanitize(std::string s) {
  for (char& c : s) {
    if (c == ',' || c == '\n' || c == '\r') {
      c = ';';
    }
  }
  return s;
}

ScenarioResult FromRun(const std::string& mode, const std::string& op, const RunRecord& rec) {
  ScenarioResult r;
  r.mode = mode;
  r.op = op;
  r.plan = rec.plan;
  r.ok = rec.ok();
  r.restarts = rec.restarts;
  r.preempt_points = rec.preempt_points;
  r.irq_hist = rec.irq_hist;
  r.detail = Sanitize(rec.detail);
  return r;
}

// ------------------------------------------------------------- task model
//
// Every CSV row is one CampaignTask: a (mode, op, plan) identity — which is
// also its journal key — plus a closure that produces the row. Closures are
// pure functions of their captured state, so a row computes identically
// in-process, in a forked shard worker, on a retry after a worker death, or
// never (journal hit). The task list order IS the historical row order.

struct CampaignTask {
  std::string mode;
  std::string op;
  std::string plan;
  std::function<ScenarioResult()> run;

  std::string Key() const { return mode + "|" + op + "|" + plan; }
};

// One canonical operation as its tasks see it: the factory every run of it
// builds its system with, and its uninjected dry run, which pins the
// boundary count the other rows of the op depend on.
struct CanonicalRun {
  std::string name;
  OpFactory factory;
  ScenarioResult dry;  // the exhaustive mode's "<name>/dry" row
};

std::vector<CanonicalRun> DryRunCanonicalOps() {
  std::vector<CanonicalRun> ops;
  for (auto& [name, factory] : CanonicalOps()) {
    ScenarioResult dry =
        FromRun("exhaustive", name + "/dry", RunWithInstance(factory(), InjectionPlan{}));
    ops.push_back({name, std::move(factory), std::move(dry)});
  }
  return ops;
}

// ------------------------------------------------------------- builders
//
// Each builder appends its mode's tasks in the exact historical row order and
// reproduces the historical RNG draw sequence (plans drawn serially at build
// time, or per-ordinal child streams), so the assembled CSV is byte-identical
// to the pre-sharding in-process campaign.

void BuildExhaustive(const std::vector<CanonicalRun>& ops, std::vector<CampaignTask>& tasks) {
  for (const CanonicalRun& op : ops) {
    // The dry run already executed at boot; its task hands back that row.
    tasks.push_back({"exhaustive", op.dry.op, op.dry.plan, [dry = op.dry] { return dry; }});
    for (std::uint64_t k = 0; k < op.dry.preempt_points; ++k) {
      InjectionPlan plan = BoundaryPlan(k);
      std::string plan_str = plan.ToString();
      tasks.push_back({"exhaustive", op.name, plan_str,
                       [factory = op.factory, plan, name = op.name] {
                         return FromRun("exhaustive", name, RunWithInstance(factory(), plan));
                       }});
    }
  }
}

void BuildRandom(const CampaignConfig& cfg, const std::vector<CanonicalRun>& ops,
                 std::vector<CampaignTask>& tasks) {
  SplitMix64 rng(cfg.seed ^ 0xA5A5'0001ull);
  for (const CanonicalRun& op : ops) {
    const std::uint64_t pp = op.dry.preempt_points;
    // Plans are drawn serially before any run executes: the RNG stream is a
    // function of the seed alone, never of run results or thread timing.
    std::vector<InjectionPlan> plans(cfg.random_runs);
    for (InjectionPlan& plan : plans) {
      const std::uint64_t n_actions = 1 + rng.Below(3);
      for (std::uint64_t i = 0; i < n_actions; ++i) {
        InjectionAction a;
        if (rng.Below(2) == 0 && pp > 0) {
          a.trigger = InjectionAction::Trigger::kPreemptOrdinal;
          a.at = rng.Below(pp);
        } else {
          a.trigger = InjectionAction::Trigger::kCycleAtLeast;
          a.at = rng.Below(60'000);
        }
        a.line = 1 + static_cast<std::uint32_t>(rng.Below(20));
        a.burst = 1 + static_cast<std::uint32_t>(rng.Below(4));
        plan.actions.push_back(a);
      }
    }
    for (InjectionPlan& plan : plans) {
      std::string plan_str = plan.ToString();
      tasks.push_back({"random", op.name, plan_str, [factory = op.factory, plan, name = op.name] {
                         return FromRun("random", name, RunWithInstance(factory(), plan));
                       }});
    }
  }
}

ScenarioResult RunStormOrdinal(const SplitMix64& base, std::size_t run) {
  // Storm draws interleave with execution, so the runs cannot share one RNG
  // stream without becoming schedule-dependent. Each run owns a child stream
  // split off by its ordinal: a pure function of (seed, run), identical no
  // matter which thread — or process — executes it, or in what order.
  SplitMix64 rng = base.Split(run);
  System sys(KernelConfig::After(), EvalMachine(false));
  const std::uint32_t ut_cptr = sys.AddUntyped(16, nullptr);
  // Equal priorities: Yield round-robins all three under the storm.
  TcbObj* a = sys.AddThread(30);
  TcbObj* b = sys.AddThread(30);
  TcbObj* c = sys.AddThread(30);
  sys.kernel().DirectSetCurrent(a);

  Runner runner(&sys);
  runner.SetProgram(a, {UserStep::Compute(400), UserStep::Syscall(SysOp::kYield, 0)});
  runner.SetProgram(b, {UserStep::Compute(700), UserStep::Syscall(SysOp::kYield, 0)});
  // c retypes repeatedly: the first iteration exercises the preemptible
  // clear under storm, later ones fail fast on the occupied slot.
  SyscallArgs retype;
  retype.label = InvLabel::kUntypedRetype;
  retype.obj_type = ObjType::kFrame;
  retype.obj_bits = 15;
  retype.dest_index = 90;
  runner.SetProgram(c, {UserStep::Compute(300), UserStep::Syscall(SysOp::kCall, ut_cptr, retype)});

  runner.SetDisturbance([&rng, &sys](Cycles now) {
    if (rng.Below(100) < 25) {
      // Bursty multi-line assertion.
      const std::uint32_t first = 1 + static_cast<std::uint32_t>(rng.Below(20));
      const std::uint32_t burst = 1 + static_cast<std::uint32_t>(rng.Below(6));
      for (std::uint32_t i = 0; i < burst; ++i) {
        sys.machine().irq().Assert((first + i) % InterruptController::kNumLines, now);
      }
    }
    if (rng.Below(100) < 15) {
      // Misbehaving driver: acknowledge a line it does not own — usually
      // never-asserted, occasionally racing a real pending assertion.
      sys.machine().irq().Acknowledge(1 + static_cast<std::uint32_t>(rng.Below(20)));
    }
  });

  ScenarioResult res;
  res.mode = "storm";
  res.op = "runner";
  res.plan = "storm#" + std::to_string(run);
  std::uint64_t steps = 0;
  try {
    steps = runner.Run(150'000);
    sys.kernel().CheckInvariants();
    res.ok = steps > 0;
    if (!res.ok) {
      res.detail = "no userland progress under storm";
    }
  } catch (const std::exception& ex) {
    res.ok = false;
    res.detail = Sanitize(ex.what());
  }
  res.spurious_acks = sys.machine().irq().spurious_acks();
  res.coalesced = sys.machine().irq().coalesced_asserts();
  for (const Cycles lat : sys.kernel().irq_latencies()) {
    res.irq_hist.Record(lat);
  }
  return res;
}

void BuildStorm(const CampaignConfig& cfg, std::vector<CampaignTask>& tasks) {
  const SplitMix64 base(cfg.seed ^ 0xA5A5'0002ull);
  for (std::size_t run = 0; run < cfg.storm_runs; ++run) {
    tasks.push_back({"storm", "runner", "storm#" + std::to_string(run),
                     [base, run] { return RunStormOrdinal(base, run); }});
  }
}

void BuildHostile(const CampaignConfig& cfg, std::vector<CampaignTask>& tasks) {
  SplitMix64 rng(cfg.seed ^ 0xA5A5'0003ull);
  System sys(KernelConfig::After(), EvalMachine(false));
  EndpointObj* ep = nullptr;
  const std::uint32_t ep_cptr = sys.AddEndpoint(&ep);
  const std::uint32_t ut_cptr = sys.AddUntyped(19, nullptr);
  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t cnode_cptr = sys.AddCap(root_cap);
  TcbObj* actor = sys.AddThread(50);
  TcbObj* deep_actor = sys.AddThread(50);
  const std::uint32_t deep_cptr =
      sys.BuildDeepCapSpace(deep_actor, sys.SlotOf(ep_cptr)->cap, 32);
  sys.kernel().DirectSetCurrent(actor);

  // Freeze the built system; every hostile syscall executes against its own
  // fork, so runs are independent (a malformed input that somehow mutated
  // state could never leak into the next run) and free to execute on any
  // worker thread or shard. The actors are re-resolved per fork by base.
  const auto bank = std::make_shared<const engine::SystemCheckpoint>(sys);
  const Addr actor_base = actor->base;
  const Addr deep_actor_base = deep_actor->base;

  // Inputs are drawn serially up front, a pure function of the seed.
  struct HostileCase {
    std::string kind;
    std::uint32_t cptr = 0;
    SyscallArgs args;
    bool deep = false;
  };
  std::vector<HostileCase> cases(cfg.hostile_runs);
  for (HostileCase& hc : cases) {
    SyscallArgs& args = hc.args;
    std::uint32_t& cptr = hc.cptr;
    std::string& kind = hc.kind;
    bool& deep = hc.deep;
    cptr = ep_cptr;
    switch (rng.Below(8)) {
      case 0:
        kind = "huge-msg-len";
        args.msg_len = 65 + static_cast<std::uint32_t>(rng.Below(1u << 20));
        break;
      case 1:
        kind = "huge-n-extra";
        args.msg_len = static_cast<std::uint32_t>(rng.Below(65));
        args.n_extra = 4 + static_cast<std::uint32_t>(rng.Below(1000));
        break;
      case 2:
        kind = "huge-obj-bits";
        cptr = ut_cptr;
        args.label = InvLabel::kUntypedRetype;
        args.obj_type = ObjType::kFrame;
        args.obj_bits = static_cast<std::uint8_t>(20 + rng.Below(236));
        args.dest_index = 1000 + static_cast<std::uint32_t>(rng.Below(1u << 20));
        break;
      case 3:
        kind = "huge-obj-count";
        cptr = ut_cptr;
        args.label = InvLabel::kUntypedRetype;
        args.obj_type = ObjType::kEndpoint;
        args.obj_count = 9 + static_cast<std::uint32_t>(rng.Below(1u << 20));
        args.dest_index = 120;
        break;
      case 4:
        kind = "delete-oob-index";
        cptr = cnode_cptr;
        args.label = InvLabel::kCNodeDelete;
        args.arg0 = 256 + rng.Below(1u << 24);
        break;
      case 5:
        kind = "revoke-oob-index";
        cptr = cnode_cptr;
        args.label = InvLabel::kCNodeRevoke;
        args.arg0 = 256 + rng.Below(1u << 24);
        break;
      case 6:
        // Guard mismatch in the one-level root cspace: the top 24 bits must
        // be zero, so this cptr always fails decode (never a stray send).
        kind = "garbage-cptr";
        cptr = 0xFF00'0000u | static_cast<std::uint32_t>(rng.Below(1u << 24));
        break;
      default:
        // One bit flipped somewhere along a 32-level decode chain: the walk
        // diverges from the installed path and dies mid-depth.
        kind = "deep-decode-miss";
        deep = true;
        cptr = deep_cptr ^ (1u << rng.Below(32));
        break;
    }
  }

  for (std::size_t run = 0; run < cases.size(); ++run) {
    const HostileCase hc = cases[run];
    tasks.push_back(
        {"hostile", hc.kind, "h#" + std::to_string(run),
         [bank, hc, run, actor_base, deep_actor_base] {
           ScenarioResult res;
           res.mode = "hostile";
           res.op = hc.kind;
           res.plan = "h#" + std::to_string(run);
           std::unique_ptr<System> fork = bank->Fork();
           TcbObj* run_actor =
               fork->kernel().objects().Get<TcbObj>(hc.deep ? deep_actor_base : actor_base);
           fork->kernel().DirectSetCurrent(run_actor);
           try {
             fork->kernel().Syscall(SysOp::kCall, hc.cptr, hc.args);
             fork->kernel().CheckInvariants();
             res.ok = run_actor->last_error != KError::kOk;
             if (!res.ok) {
               res.detail = "hostile input reported success";
             }
           } catch (const std::exception& ex) {
             // Any escaping exception — ExecError, KernelError or a bare
             // assert surrogate — means the malformed input crossed the
             // structured-error boundary: a defect by definition here.
             res.ok = false;
             res.detail = Sanitize(ex.what());
           }
           return res;
         }});
  }
}

ScenarioResult RunSpuriousOrdinal(const SplitMix64& base, std::size_t run) {
  // Per-run child streams (see the storm mode): draws interleave with the
  // shadow model, so every run gets a stream derived from its ordinal.
  SplitMix64 rng = base.Split(run);
  // Property test of the controller against a shadow model: interleaved
  // asserts, spurious acks, masks. Acknowledge must return the first
  // assertion time iff the line was pending, nullopt otherwise.
  InterruptController ic;
  std::array<bool, InterruptController::kNumLines> shadow_pending{};
  std::array<Cycles, InterruptController::kNumLines> shadow_time{};
  std::uint64_t expected_spurious = 0;
  std::uint64_t expected_coalesced = 0;
  ScenarioResult res;
  res.mode = "spurious";
  res.op = "controller";
  res.plan = "sp#" + std::to_string(run);
  res.ok = true;
  Cycles now = 0;
  for (std::uint32_t step = 0; step < 200 && res.ok; ++step) {
    now += 1 + rng.Below(50);
    const std::uint32_t line =
        static_cast<std::uint32_t>(rng.Below(InterruptController::kNumLines));
    switch (rng.Below(3)) {
      case 0:
        ic.Assert(line, now);
        if (shadow_pending[line]) {
          ++expected_coalesced;
        } else {
          shadow_pending[line] = true;
          shadow_time[line] = now;
        }
        break;
      case 1: {
        const auto got = ic.Acknowledge(line);
        if (shadow_pending[line]) {
          if (!got.has_value() || *got != shadow_time[line]) {
            res.ok = false;
            res.detail = "ack of pending line returned wrong assert time";
          }
          shadow_pending[line] = false;
        } else {
          ++expected_spurious;
          if (got.has_value()) {
            res.ok = false;
            res.detail = "spurious ack returned a value";
          }
        }
        break;
      }
      default:
        if (ic.IsPending(line) != shadow_pending[line]) {
          res.ok = false;
          res.detail = "pending state diverged from model";
        }
        break;
    }
  }
  if (res.ok && (ic.spurious_acks() != expected_spurious ||
                 ic.coalesced_asserts() != expected_coalesced)) {
    res.ok = false;
    res.detail = "spurious/coalesce counters diverged from model";
  }
  res.spurious_acks = ic.spurious_acks();
  res.coalesced = ic.coalesced_asserts();
  return res;
}

void BuildSpurious(const CampaignConfig& cfg, std::vector<CampaignTask>& tasks) {
  const SplitMix64 base(cfg.seed ^ 0xA5A5'0004ull);
  for (std::size_t run = 0; run < cfg.spurious_runs; ++run) {
    tasks.push_back({"spurious", "controller", "sp#" + std::to_string(run),
                     [base, run] { return RunSpuriousOrdinal(base, run); }});
  }

  // One kernel-level spurious entry: an IRQ kernel entry with nothing
  // pending must take the h.spurious path and leave the kernel consistent.
  tasks.push_back({"spurious", "kernel-entry", "sp#kernel", [] {
                     ScenarioResult res;
                     res.mode = "spurious";
                     res.op = "kernel-entry";
                     res.plan = "sp#kernel";
                     try {
                       System sys(KernelConfig::After(), EvalMachine(false));
                       TcbObj* t = sys.AddThread(10);
                       sys.kernel().DirectSetCurrent(t);
                       sys.kernel().HandleIrqEntry();
                       sys.kernel().CheckInvariants();
                       res.ok = true;
                     } catch (const std::exception& ex) {
                       res.ok = false;
                       res.detail = Sanitize(ex.what());
                     }
                     return res;
                   }});
}

}  // namespace

std::vector<std::pair<std::string, OpFactory>> CanonicalOps() {
  std::vector<std::pair<std::string, OpFactory>> ops;
  ops.emplace_back("retype", MakeRetypeCase());
  ops.emplace_back("ep-delete", MakeEpDeleteCase());
  ops.emplace_back("badged-abort", MakeBadgedAbortCase());
  return ops;
}

std::uint64_t CampaignReport::failures() const {
  std::uint64_t n = 0;
  for (const ScenarioResult& r : results) {
    if (!r.ok) {
      ++n;
    }
  }
  return n;
}

void CampaignReport::WriteCsv(std::ostream& os) const {
  os << "mode,op,plan,ok,restarts,preempt_points,spurious_acks,coalesced,detail\n";
  for (const ScenarioResult& r : results) {
    os << r.mode << ',' << r.op << ',' << r.plan << ',' << (r.ok ? 1 : 0) << ',' << r.restarts
       << ',' << r.preempt_points << ',' << r.spurious_acks << ',' << r.coalesced << ','
       << r.detail << '\n';
  }
}

std::string CampaignReport::Summary() const {
  std::ostringstream os;
  os << "fault campaign seed=" << seed << ": " << results.size() << " scenarios, " << failures()
     << " failures";
  return os.str();
}

std::vector<std::uint8_t> EncodeScenarioResult(const ScenarioResult& r) {
  engine::WireWriter w;
  w.Str(r.mode);
  w.Str(r.op);
  w.Str(r.plan);
  w.Bool(r.ok);
  w.U32(r.restarts);
  w.U64(r.preempt_points);
  w.U64(r.spurious_acks);
  w.U64(r.coalesced);
  engine::WriteHistogram(w, r.irq_hist);
  w.Str(r.detail);
  return w.Take();
}

ScenarioResult DecodeScenarioResult(const std::vector<std::uint8_t>& bytes) {
  engine::WireReader rd(bytes.data(), bytes.size());
  ScenarioResult r;
  r.mode = rd.Str();
  r.op = rd.Str();
  r.plan = rd.Str();
  r.ok = rd.Bool();
  r.restarts = rd.U32();
  r.preempt_points = rd.U64();
  r.spurious_acks = rd.U64();
  r.coalesced = rd.U64();
  r.irq_hist = engine::ReadHistogram(rd);
  r.detail = rd.Str();
  rd.ExpectEnd("scenario result");
  return r;
}

std::uint64_t CampaignContextDigest(const CampaignConfig& config) {
  engine::WireWriter w;
  w.U64(KernelImageDigest(KernelConfig::After()));
  w.Bool(config.exhaustive);
  w.U32(config.random_runs);
  w.U32(config.storm_runs);
  w.U32(config.hostile_runs);
  w.U32(config.spurious_runs);
  return engine::Fnv1a64(w.bytes().data(), w.bytes().size());
}

namespace {

// The observatory config label: the campaign runs the "after" kernel.
constexpr char kObservatoryConfig[] = "after";

// The observatory scenario label for one result row: per-op for the modes
// that sweep the canonical operations, per-mode for the rest (hostile fans
// out over dozens of input kinds; one row each would drown the report).
std::string ObservatoryScenario(const ScenarioResult& r) {
  if (r.mode == "exhaustive" || r.mode == "random") {
    std::string op = r.op;
    const std::string dry = "/dry";
    if (op.size() > dry.size() && op.compare(op.size() - dry.size(), dry.size(), dry) == 0) {
      op.resize(op.size() - dry.size());
    }
    return r.mode + "/" + op;
  }
  return r.mode;
}

}  // namespace

CampaignReport RunCampaign(const CampaignConfig& config) {
  CampaignReport report;
  report.seed = config.seed;

  // Build the complete run list — row order and RNG draws exactly match the
  // historical in-process campaign.
  std::vector<CampaignTask> tasks;
  if (config.exhaustive || config.random_runs > 0) {
    const std::vector<CanonicalRun> ops = DryRunCanonicalOps();
    if (config.exhaustive) {
      BuildExhaustive(ops, tasks);
    }
    if (config.random_runs > 0) {
      BuildRandom(config, ops, tasks);
    }
  }
  if (config.storm_runs > 0) {
    BuildStorm(config, tasks);
  }
  if (config.hostile_runs > 0) {
    BuildHostile(config, tasks);
  }
  if (config.spurious_runs > 0) {
    BuildSpurious(config, tasks);
  }

  // Poison hook: one designated run aborts when executing inside a shard
  // worker — the supervisor must quarantine exactly that row.
  if (config.poison_ordinal >= 0 &&
      static_cast<std::size_t>(config.poison_ordinal) < tasks.size()) {
    const auto inner = tasks[static_cast<std::size_t>(config.poison_ordinal)].run;
    tasks[static_cast<std::size_t>(config.poison_ordinal)].run = [inner] {
      if (engine::ShardSupervisor::InWorker()) {
        std::abort();
      }
      return inner();
    };
  }

  engine::ShardOptions sopts;
  sopts.shards = config.shards;
  sopts.jobs_per_shard = config.jobs;
  sopts.task_timeout_ms = config.shard_timeout_ms;
  sopts.max_attempts = config.shard_max_attempts;
  sopts.journal_dir = config.journal_dir;
  sopts.journal_digest = CampaignContextDigest(config);
  sopts.seed = config.seed;
  sopts.chaos_kill_shard = config.chaos_kill_shard;
  sopts.chaos_kill_after_results = config.chaos_kill_after_results;

  std::vector<engine::ShardTask> stasks;
  stasks.reserve(tasks.size());
  for (const CampaignTask& t : tasks) {
    stasks.push_back({t.Key(), [run = t.run] { return EncodeScenarioResult(run()); }});
  }
  const engine::ShardOutcome out = engine::ShardSupervisor(std::move(stasks), sopts).Run();

  report.results.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (out.completed[i]) {
      try {
        report.results.push_back(DecodeScenarioResult(out.payloads[i]));
        continue;
      } catch (const std::exception& ex) {
        ScenarioResult r;
        r.mode = tasks[i].mode;
        r.op = tasks[i].op;
        r.plan = tasks[i].plan;
        r.ok = false;
        r.detail = Sanitize(std::string("result decode failed: ") + ex.what());
        report.results.push_back(r);
        continue;
      }
    }
    // Quarantined-and-failed: the run kept killing workers (or aborted in
    // isolation). It is reported — visibly failed — without sinking any
    // other row.
    ScenarioResult r;
    r.mode = tasks[i].mode;
    r.op = tasks[i].op;
    r.plan = tasks[i].plan;
    r.ok = false;
    r.detail = "quarantined: run failed its isolated attempt";
    report.results.push_back(r);
  }

  report.shard = out.stats;

  // Telemetry + observatory feed: both consume the assembled report, after
  // every deterministic byte of it is fixed.
  std::uint64_t total_spurious = 0;
  std::uint64_t total_coalesced = 0;
  for (const ScenarioResult& r : report.results) {
    obs::Counter(obs::ObsLabeled("fault.campaign.scenarios", "mode", r.mode).c_str()).Inc();
    total_spurious += r.spurious_acks;
    total_coalesced += r.coalesced;
  }
  RecordIrqControllerMetrics(total_spurious, total_coalesced);
  if (config.observatory != nullptr) {
    config.observatory->SetUnenforced("storm");
    for (const ScenarioResult& r : report.results) {
      const std::string scenario = ObservatoryScenario(r);
      config.observatory->Touch(kObservatoryConfig, scenario);
      config.observatory->RecordHistogram(kObservatoryConfig, scenario, r.irq_hist);
      config.observatory->RecordIrqCounters(kObservatoryConfig, scenario, r.spurious_acks,
                                            r.coalesced);
    }
  }
  return report;
}

}  // namespace pmk
