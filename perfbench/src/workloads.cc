// The four benchmark workloads. Each is a closed loop over units whose inputs
// are a pure function of (--seed, unit index); every unit's modelled output
// is checked before the next one starts.

#include <sstream>
#include <stdexcept>

#include "perfbench/src/bench.h"
#include "src/engine/wire.h"
#include "src/fault/campaign.h"
#include "src/load/traffic.h"
#include "src/obs/tail_observatory.h"
#include "src/sim/rng.h"
#include "src/wcet/analysis.h"
#include "src/wcet/serve.h"

namespace perfbench {

using pmk::SplitMix64;

namespace {

constexpr std::uint64_t kCampaignPool = 64;   // campaign seeds 1..64
constexpr std::uint64_t kTrafficPool = 24;    // traffic seeds 1..24
// Edited bounds rise by 1..8: every such single edit has a recorded cold
// digest, so each wcet_cold unit is checked exactly.
constexpr std::uint32_t kValueSpan = 8;
constexpr std::uint64_t kEditPrefixRounds = 32;
constexpr std::uint64_t kEditPrefixSeeds = 16;  // recorded for seeds 1..16
constexpr std::size_t kEditCrossChecks = 16;
// Rounds kept for the cross-check; a bound keeps memory flat in run length.
constexpr std::size_t kKeptRounds = 4096;

// Unit |i|'s private random stream.
SplitMix64 UnitRng(std::uint64_t seed, std::uint64_t i) { return SplitMix64(seed).Split(i + 1); }

// The check every unit makes against the recorded table. Outside --record a
// missing row counts as a mismatch.
bool CheckDigest(const RunOptions& opts, const std::string& table, const std::string& key,
                 std::uint64_t got) {
  if (opts.record) {
    return true;
  }
  std::uint64_t want = 0;
  return opts.expected != nullptr && opts.expected->Lookup(table, key, &want) && want == got;
}

pmk::Cycles ShippedBound() {
  const auto img = pmk::BuildKernelImage(pmk::KernelConfig::After());
  const pmk::WcetAnalyzer analyzer(*img, pmk::AnalysisOptions{});
  return analyzer.InterruptResponseBound();
}

// ------------------------------------------------------------------ campaign

// One default (non-quick) seeded fault campaign per unit, jobs=1.
class CampaignWorkload : public Workload {
 public:
  explicit CampaignWorkload(const RunOptions& opts) : opts_(opts) {}

  void Setup() override {
    Tracer::Scope s("wcet", "InterruptResponseBound");
    bound_ = ShippedBound();
  }

  UnitOutcome RunUnit(std::uint64_t i) override {
    const std::uint64_t seed = 1 + UnitRng(opts_.seed, i).Below(kCampaignPool);
    UnitOutcome out;
    bool ok = true;
    std::uint64_t digest = 0;
    out.busy_ns = RunCampaignSeed(seed, &ok, &digest, &out.ops);
    out.latencies_ns.push_back(static_cast<double>(out.busy_ns));
    ok = ok && CheckDigest(opts_, "campaign", std::to_string(seed), digest);
    if (opts_.sabotage) {
      // The fault_campaign --demo-shrink sabotage: every injection corrupts
      // an endpoint queue length, which the invariant audit must catch.
      out.ops += 1;
      ok = ok && SabotagedRunPasses();
    }
    out.failed = ok ? 0 : out.ops;
    return out;
  }

  std::uint64_t ReplayUnits() const override { return 8; }
  std::uint64_t BlockUnits() const override { return 4; }

  void Record(ExpectedTable& table) override {
    for (std::uint64_t seed = 1; seed <= kCampaignPool; ++seed) {
      bool ok = true;
      std::uint64_t digest = 0;
      std::uint64_t ops = 0;
      RunCampaignSeed(seed, &ok, &digest, &ops);
      if (!ok) {
        throw std::runtime_error("campaign seed " + std::to_string(seed) + " fails its checks");
      }
      table.Set("campaign", std::to_string(seed), digest);
    }
  }

 private:
  // Returns the host nanoseconds spent in RunCampaign.
  std::uint64_t RunCampaignSeed(std::uint64_t seed, bool* ok, std::uint64_t* digest,
                                std::uint64_t* ops) const {
    pmk::obs::TailObservatory observatory;
    observatory.SetBound("after", bound_);
    pmk::CampaignConfig cfg;
    cfg.seed = seed;
    cfg.jobs = 1;
    cfg.observatory = &observatory;
    pmk::CampaignReport report;
    std::uint64_t ns = 0;
    {
      Tracer::Scope s("fault", "RunCampaign");
      report = pmk::RunCampaign(cfg);
      ns = s.elapsed_ns();
    }
    std::ostringstream csv;
    report.WriteCsv(csv);
    Digest d;
    d.Add(csv.str());
    *digest = d.value();
    *ops = report.results.size();
    *ok = report.failures() == 0 && !observatory.AnyExceedance();
    return ns;
  }

  static bool SabotagedRunPasses() {
    const auto sabotage = [](pmk::System& sys) {
      for (const auto& [base, obj] : sys.kernel().objects().objects()) {
        if (obj->type == pmk::ObjType::kEndpoint) {
          static_cast<pmk::EndpointObj*>(obj.get())->q_len += 1;
          return;
        }
      }
    };
    pmk::InjectionPlan plan;
    pmk::InjectionAction a;
    a.trigger = pmk::InjectionAction::Trigger::kPreemptOrdinal;
    a.at = 3;
    a.line = 4;
    plan.actions.push_back(a);
    return pmk::RunWithPlan(pmk::MakeEpDeleteCase(), plan, pmk::SweepOptions{}, sabotage).ok();
  }

  RunOptions opts_;
  pmk::Cycles bound_ = 0;
};

// ------------------------------------------------------------------ traffic

// One full-shape traffic sweep per unit (2,000 clients, 16 servers, 3 shapes
// x 4 load gaps, 600k modelled cycles per scenario) on two job threads.
class TrafficWorkload : public Workload {
 public:
  explicit TrafficWorkload(const RunOptions& opts) : opts_(opts) {}

  void Setup() override {
    Tracer::Scope s("wcet", "InterruptResponseBound");
    bound_ = ShippedBound();
  }

  UnitOutcome RunUnit(std::uint64_t i) override {
    const std::uint64_t seed = 1 + UnitRng(opts_.seed, i).Below(kTrafficPool);
    UnitOutcome out;
    bool ok = true;
    std::uint64_t digest = 0;
    out.busy_ns = RunSweep(seed, &ok, &digest, &out.ops);
    out.latencies_ns.push_back(static_cast<double>(out.busy_ns));
    ok = ok && CheckDigest(opts_, "traffic", std::to_string(seed), digest);
    out.failed = ok ? 0 : out.ops;
    return out;
  }

  std::uint64_t ReplayUnits() const override { return 4; }
  std::uint64_t BlockUnits() const override { return 2; }
  std::uint64_t runner_steps() const override { return steps_; }

  void Record(ExpectedTable& table) override {
    for (std::uint64_t seed = 1; seed <= kTrafficPool; ++seed) {
      bool ok = true;
      std::uint64_t digest = 0;
      std::uint64_t ops = 0;
      RunSweep(seed, &ok, &digest, &ops);
      if (!ok) {
        throw std::runtime_error("traffic seed " + std::to_string(seed) + " fails its checks");
      }
      table.Set("traffic", std::to_string(seed), digest);
    }
  }

 private:
  std::uint64_t RunSweep(std::uint64_t seed, bool* ok, std::uint64_t* digest,
                         std::uint64_t* ops) {
    const pmk::load::TrafficOptions o = TrafficSweepOptions(seed);
    *ops = o.shapes.size() * o.load_gaps.size();
    pmk::load::TrafficReport report;
    std::uint64_t ns = 0;
    try {
      Tracer::Scope s("load", "RunTrafficSweep");
      report = pmk::load::RunTrafficSweep(o);
      ns = s.elapsed_ns();
    } catch (const std::exception&) {
      *ok = false;
      return ns;
    }
    pmk::obs::TailObservatory observatory;
    observatory.SetBound("after", bound_);
    pmk::load::FeedObservatory(report, observatory, "after");
    std::ostringstream csv;
    pmk::load::WriteTrafficCsv(report, csv);
    Digest d;
    d.Add(csv.str());
    *digest = d.value();
    *ok = report.results.size() == *ops && !observatory.AnyExceedance();
    for (const pmk::load::TrafficResult& r : report.results) {
      steps_ += r.steps;
    }
    return ns;
  }

  RunOptions opts_;
  pmk::Cycles bound_ = 0;
  std::uint64_t steps_ = 0;
};

// ------------------------------------------------------------------ WCET edits

enum class Field : std::uint8_t { kLoopBound = 1, kExecBound = 2, kPreemptionPoint = 3 };

// A block whose analysis-only metadata an edit may change.
struct Candidate {
  pmk::BlockId block = 0;
  Field field = Field::kLoopBound;
  std::uint32_t original = 0;
};

// |exec_bounds| false leaves out absolute-exec-bound edits (see the
// wcet_edit workload).
std::vector<Candidate> EditCandidates(const pmk::Program& prog, bool exec_bounds) {
  std::vector<Candidate> out;
  for (pmk::BlockId id = 0; id < prog.num_blocks(); ++id) {
    const pmk::Block& b = prog.block(id);
    if (b.loop_bound_annotation > 0) {
      out.push_back({id, Field::kLoopBound, b.loop_bound_annotation});
    }
    if (exec_bounds && b.absolute_exec_bound > 0) {
      out.push_back({id, Field::kExecBound, b.absolute_exec_bound});
    }
    if (b.is_preemption_point) {
      out.push_back({id, Field::kPreemptionPoint, 1});
    }
  }
  return out;
}

void SetField(pmk::Program& prog, const Candidate& c, std::uint32_t value) {
  pmk::Block& b = prog.mutable_block(c.block);
  switch (c.field) {
    case Field::kLoopBound:
      b.loop_bound_annotation = value;
      break;
    case Field::kExecBound:
      b.absolute_exec_bound = value;
      break;
    case Field::kPreemptionPoint:
      b.is_preemption_point = value != 0;
      break;
  }
}

// New value for |c|: a preemption point is toggled off; a bound rises by
// 1..span.
std::uint32_t DrawValue(const Candidate& c, SplitMix64& rng, std::uint32_t span) {
  const std::uint32_t bump = 1 + static_cast<std::uint32_t>(rng.Below(span));
  return c.field == Field::kPreemptionPoint ? 0 : c.original + bump;
}

constexpr pmk::EntryPoint kEntries[] = {pmk::EntryPoint::kSyscall, pmk::EntryPoint::kUndefined,
                                        pmk::EntryPoint::kPageFault,
                                        pmk::EntryPoint::kInterrupt};

// The Table 2 / Fig 8 cache configurations: L2 off/on x pinning off/on.
std::vector<pmk::AnalysisOptions> CacheConfigs() {
  std::vector<pmk::AnalysisOptions> out;
  for (const bool l2 : {false, true}) {
    for (const bool pin : {false, true}) {
      pmk::AnalysisOptions o;
      o.l2_enabled = l2;
      o.cache_pinning = pin;
      out.push_back(o);
    }
  }
  return out;
}

// ------------------------------------------------------------------ wcet_cold

// Per unit: one seeded single edit on each of the before/after kernels, then a
// fresh WcetAnalyzer per (kernel, cache config) analysing all four entries
// plus InterruptResponseBound.
class WcetColdWorkload : public Workload {
 public:
  explicit WcetColdWorkload(const RunOptions& opts) : opts_(opts) {}

  void Setup() override {
    for (int k = 0; k < 2; ++k) {
      Tracer::Scope s("kernel", "BuildKernelImage");
      images_[k] = pmk::BuildKernelImage(k == 0 ? pmk::KernelConfig::Before()
                                                : pmk::KernelConfig::After());
      candidates_[k] = EditCandidates(images_[k]->prog, true);
    }
    configs_ = CacheConfigs();
  }

  UnitOutcome RunUnit(std::uint64_t i) override {
    SplitMix64 rng = UnitRng(opts_.seed, i);
    UnitOutcome out;
    bool ok = true;
    std::uint64_t ns = 0;
    for (int k = 0; k < 2; ++k) {
      const Candidate& c = candidates_[k][rng.Below(candidates_[k].size())];
      const std::uint32_t value = DrawValue(c, rng, kValueSpan);
      std::uint64_t digest = 0;
      ok = AnalyseEdited(k, c, value, &digest, &ns) && ok;
      ok = CheckDigest(opts_, kTable[k], Key(c, value), digest) && ok;
      out.ops += configs_.size() * std::size(kEntries);
    }
    out.busy_ns = ns;
    out.latencies_ns.push_back(static_cast<double>(ns));
    out.failed = ok ? 0 : out.ops;
    return out;
  }

  std::uint64_t ReplayUnits() const override { return 2; }
  std::uint64_t BlockUnits() const override { return 2; }

  void Record(ExpectedTable& table) override {
    for (int k = 0; k < 2; ++k) {
      for (const Candidate& c : candidates_[k]) {
        const std::uint32_t span = c.field == Field::kPreemptionPoint ? 1 : kValueSpan;
        for (std::uint32_t v = 1; v <= span; ++v) {
          const std::uint32_t value = c.field == Field::kPreemptionPoint ? 0 : c.original + v;
          std::uint64_t digest = 0;
          std::uint64_t ns = 0;
          if (!AnalyseEdited(k, c, value, &digest, &ns)) {
            throw std::runtime_error("wcet_cold: an edit has no optimal solution");
          }
          table.Set(kTable[k], Key(c, value), digest);
        }
      }
    }
  }

 private:
  static constexpr const char* kTable[2] = {"cold_before", "cold_after"};

  static std::string Key(const Candidate& c, std::uint32_t value) {
    return std::to_string(c.block) + ":" + std::to_string(static_cast<int>(c.field)) + ":" +
           std::to_string(value);
  }

  // Applies the edit to kernel |k|, analyses every config, reverts. Adds the
  // analysis wall time to |ns|; false if any solve is not optimal.
  bool AnalyseEdited(int k, const Candidate& c, std::uint32_t value, std::uint64_t* digest,
                     std::uint64_t* ns) {
    pmk::KernelImage& img = *images_[k];
    SetField(img.prog, c, value);
    bool ok = true;
    Digest d;
    for (const pmk::AnalysisOptions& o : configs_) {
      Tracer::Scope s("wcet", "WcetAnalyzer");
      const pmk::WcetAnalyzer analyzer(img, o);
      for (const pmk::EntryPoint e : kEntries) {
        const pmk::EntryResult r = analyzer.Analyze(e);
        ok = ok && r.status == pmk::SolveStatus::kOptimal;
        d.Add(static_cast<std::uint64_t>(r.status));
        d.Add(r.wcet);
        d.Add(r.worst_trace.blocks.data(), r.worst_trace.blocks.size() * sizeof(pmk::BlockId));
      }
      d.Add(analyzer.InterruptResponseBound());
      *ns += s.elapsed_ns();
    }
    SetField(img.prog, c, c.original);
    *digest = d.value();
    return ok;
  }

  RunOptions opts_;
  std::unique_ptr<pmk::KernelImage> images_[2];
  std::vector<Candidate> candidates_[2];
  std::vector<pmk::AnalysisOptions> configs_;
};

// ------------------------------------------------------------------ wcet_edit

// Request encoders for the WcetService wire protocol (src/wcet/serve.h).
std::vector<std::uint8_t> EditRequest(const Candidate& c, std::uint32_t value) {
  pmk::engine::WireWriter w;
  w.U8(static_cast<std::uint8_t>(pmk::wcet::ServeOp::kEdit));
  w.U32(c.block);
  w.U8(static_cast<std::uint8_t>(c.field));
  w.U64(value);
  return w.Take();
}

std::vector<std::uint8_t> BoundRequest() {
  pmk::engine::WireWriter w;
  w.U8(static_cast<std::uint8_t>(pmk::wcet::ServeOp::kResponseBound));
  return w.Take();
}

std::vector<std::uint8_t> AnalyzeRequest(pmk::EntryPoint e) {
  pmk::engine::WireWriter w;
  w.U8(static_cast<std::uint8_t>(pmk::wcet::ServeOp::kAnalyze));
  w.U8(static_cast<std::uint8_t>(e));
  return w.Take();
}

// 0 on an error reply or a malformed body.
pmk::Cycles ParseBound(const std::vector<std::uint8_t>& reply) {
  try {
    pmk::engine::WireReader r(reply);
    if (r.U8() != 0) {
      return 0;
    }
    const pmk::Cycles c = r.U64();
    r.ExpectEnd("bound reply");
    return c;
  } catch (const pmk::engine::WireError&) {
    return 0;
  }
}

bool ReplyOk(const std::vector<std::uint8_t>& reply) { return !reply.empty() && reply[0] == 0; }

// One resident WcetService on the after kernel, driven through Handle by one
// client: edit, bound, analyze, revert, bound per round. Edits toggle
// preemption points and raise loop-bound annotations. Absolute-exec-bound
// edits are left out: on this engine some of them (e.g. block 124's bound
// 256 -> 258 after certain earlier rounds) make the service answer the
// syscall entry as unbounded and return a response bound of 40168 cycles,
// where a cold WcetAnalyzer on the same image gives 69326, so every run
// would report failures.
class WcetEditWorkload : public Workload {
 public:
  explicit WcetEditWorkload(const RunOptions& opts) : opts_(opts) {}

  void Setup() override {
    {
      Tracer::Scope s("kernel", "BuildKernelImage");
      mirror_ = pmk::BuildKernelImage(pmk::KernelConfig::After());
    }
    candidates_ = EditCandidates(mirror_->prog, false);
    {
      Tracer::Scope s("wcet", "WcetService");
      service_ = std::make_unique<pmk::wcet::WcetService>(
          pmk::BuildKernelImage(pmk::KernelConfig::After()), pmk::AnalysisOptions{});
    }
    baseline_ = ParseBound(Handle(BoundRequest(), "Handle.bound"));
    for (const pmk::EntryPoint e : kEntries) {
      Handle(AnalyzeRequest(e), "Handle.analyze");
    }
    rounds_.clear();
    prefix_ = Digest();
    prefix_rounds_ = 0;
  }

  UnitOutcome RunUnit(std::uint64_t i) override {
    SplitMix64 rng = UnitRng(opts_.seed, i);
    Round rd;
    rd.candidate = static_cast<std::uint32_t>(rng.Below(candidates_.size()));
    const Candidate& c = candidates_[rd.candidate];
    rd.value = DrawValue(c, rng, kValueSpan);
    rd.entry = kEntries[rng.Below(std::size(kEntries))];

    UnitOutcome out;
    out.ops = 5;
    const std::uint64_t t0 = NowNs();
    const auto edit = Handle(EditRequest(c, rd.value), "Handle.edit");
    const auto bound = Handle(BoundRequest(), "Handle.bound");
    const std::uint64_t t1 = NowNs();
    const auto analyze = Handle(AnalyzeRequest(rd.entry), "Handle.analyze");
    const std::uint64_t t2 = NowNs();
    const auto revert = Handle(EditRequest(c, c.original), "Handle.edit");
    const auto restored = Handle(BoundRequest(), "Handle.bound");
    const std::uint64_t t3 = NowNs();
    out.busy_ns = t3 - t0;
    out.latencies_ns = {static_cast<double>(t1 - t0), static_cast<double>(t3 - t2)};

    rd.bound = ParseBound(bound);
    bool ok = ReplyOk(edit) && ReplyOk(revert) && rd.bound != 0 &&
              ParseBound(restored) == baseline_;
    try {
      const pmk::wcet::AnalyzeReply a = pmk::wcet::WcetService::ParseAnalyzeReply(analyze);
      rd.wcet = a.wcet;
      ok = ok && a.status == static_cast<std::uint8_t>(pmk::SolveStatus::kOptimal);
    } catch (const pmk::engine::WireError&) {
      ok = false;
    }
    if (i < kEditPrefixRounds && i == prefix_rounds_) {
      for (const auto* reply : {&edit, &bound, &analyze, &revert, &restored}) {
        prefix_.Add(reply->data(), reply->size());
      }
      ++prefix_rounds_;
    }
    if (rounds_.size() < kKeptRounds) {
      rounds_.push_back(rd);
    }
    out.failed = ok ? 0 : out.ops;
    return out;
  }

  // The recorded prefix digest (seeds 1..16) and the cold cross-check.
  bool VerifyAfterRun() override {
    std::uint64_t want = 0;
    if (prefix_rounds_ == kEditPrefixRounds && opts_.expected != nullptr &&
        opts_.expected->Lookup("edit_prefix", std::to_string(opts_.seed), &want) &&
        want != prefix_.value()) {
      return false;
    }
    return CrossCheck();
  }

  std::uint64_t ReplayUnits() const override { return 64; }
  std::uint64_t BlockUnits() const override { return 32; }

  void Record(ExpectedTable& table) override {
    const std::uint64_t saved = opts_.seed;
    for (std::uint64_t seed = 1; seed <= kEditPrefixSeeds; ++seed) {
      opts_.seed = seed;
      Setup();
      for (std::uint64_t i = 0; i < kEditPrefixRounds; ++i) {
        if (RunUnit(i).failed != 0) {
          throw std::runtime_error("wcet_edit: a recorded round fails its checks");
        }
      }
      if (!CrossCheck()) {
        throw std::runtime_error("wcet_edit: service disagrees with a cold analyzer");
      }
      table.Set("edit_prefix", std::to_string(seed), prefix_.value());
    }
    opts_.seed = saved;
  }

 private:
  struct Round {
    std::uint32_t candidate = 0;
    std::uint32_t value = 0;
    pmk::EntryPoint entry = pmk::EntryPoint::kSyscall;
    pmk::Cycles bound = 0;
    pmk::Cycles wcet = 0;
  };

  std::vector<std::uint8_t> Handle(const std::vector<std::uint8_t>& req, const char* span) {
    Tracer::Scope s("wcet", span);
    return service_->Handle(req);
  }

  // Compares seed-sampled rounds' replies with a fresh WcetAnalyzer on a
  // mirror image carrying the same edit (the wcet_tool --edit-demo check).
  bool CrossCheck() {
    if (rounds_.empty()) {
      return true;
    }
    SplitMix64 rng = SplitMix64(opts_.seed).Split(0);
    for (std::size_t n = 0; n < kEditCrossChecks; ++n) {
      const Round& rd = rounds_[rng.Below(rounds_.size())];
      const Candidate& c = candidates_[rd.candidate];
      SetField(mirror_->prog, c, rd.value);
      const pmk::WcetAnalyzer cold(*mirror_, pmk::AnalysisOptions{});
      const bool same =
          cold.InterruptResponseBound() == rd.bound && cold.Analyze(rd.entry).wcet == rd.wcet;
      SetField(mirror_->prog, c, c.original);
      if (!same) {
        return false;
      }
    }
    return true;
  }

  RunOptions opts_;
  std::unique_ptr<pmk::KernelImage> mirror_;
  std::vector<Candidate> candidates_;
  std::unique_ptr<pmk::wcet::WcetService> service_;
  pmk::Cycles baseline_ = 0;
  std::vector<Round> rounds_;
  Digest prefix_;  // over every reply of rounds 0..kEditPrefixRounds-1
  std::uint64_t prefix_rounds_ = 0;
};

}  // namespace

pmk::load::TrafficOptions TrafficSweepOptions(std::uint64_t seed) {
  pmk::load::TrafficOptions o;
  o.seed = seed;
  o.clients = 2000;
  o.servers = 16;
  o.jobs = 2;
  return o;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const RunOptions& opts) {
  if (name == "campaign") {
    return std::make_unique<CampaignWorkload>(opts);
  }
  if (name == "traffic") {
    return std::make_unique<TrafficWorkload>(opts);
  }
  if (name == "wcet_cold") {
    return std::make_unique<WcetColdWorkload>(opts);
  }
  if (name == "wcet_edit") {
    return std::make_unique<WcetEditWorkload>(opts);
  }
  return nullptr;
}

}  // namespace perfbench
