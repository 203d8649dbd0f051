#include "src/wcet/analysis.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/obs/metrics.h"

namespace pmk {

namespace {

// Analyzer telemetry: whole-entry cache hits (wcet.memo.*), per-stage
// re-derivation wall time (wcet.stage.*) and per-stage cache hits
// (wcet.inc.*). Pure observers — the analysis result is a function of
// (image content, options) regardless of what gets counted.
obs::Counter& MemoHitCounter() {
  static obs::Counter c("wcet.memo.hit");
  return c;
}
obs::Counter& MemoMissCounter() {
  static obs::Counter c("wcet.memo.miss");
  return c;
}
obs::Timer& GraphTimer() {
  static obs::Timer t("wcet.stage.graph_nanos");
  return t;
}
obs::Timer& LoopBoundTimer() {
  static obs::Timer t("wcet.stage.loopbound_nanos");
  return t;
}
obs::Timer& CostTimer() {
  static obs::Timer t("wcet.stage.cost_nanos");
  return t;
}
obs::Timer& IpetTimer() {
  static obs::Timer t("wcet.stage.ipet_nanos");
  return t;
}
// Per-stage cache effectiveness plus invalidation/rebase telemetry.
// Warm-vs-cold simplex counts live in src/wcet/ilp.cc (wcet.inc.simplex.*).
obs::Counter& GraphHit() {
  static obs::Counter c("wcet.inc.graph.hit");
  return c;
}
obs::Counter& GraphMiss() {
  static obs::Counter c("wcet.inc.graph.miss");
  return c;
}
obs::Counter& LoopHit() {
  static obs::Counter c("wcet.inc.loopbound.hit");
  return c;
}
obs::Counter& LoopMiss() {
  static obs::Counter c("wcet.inc.loopbound.miss");
  return c;
}
obs::Counter& CostHit() {
  static obs::Counter c("wcet.inc.cost.hit");
  return c;
}
obs::Counter& CostMiss() {
  static obs::Counter c("wcet.inc.cost.miss");
  return c;
}
obs::Counter& IpetHit() {
  static obs::Counter c("wcet.inc.ipet.hit");
  return c;
}
obs::Counter& IpetMiss() {
  static obs::Counter c("wcet.inc.ipet.miss");
  return c;
}
obs::Counter& InvalidatedEntries() {
  static obs::Counter c("wcet.inc.invalidated");
  return c;
}
// Rows of an entry's previous program that the rebuilt one no longer holds
// (IlpWarmStart::Rebase), summed over the rebuilds of a known graph.
obs::Counter& RowsPatched() {
  static obs::Counter c("wcet.inc.rows_patched");
  return c;
}

const char* SolveStatusName(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "at the iteration limit";
  }
  return "?";
}

}  // namespace

CostModelOptions BuildCostModelOptions(const KernelImage& image, const AnalysisOptions& options) {
  CostModelOptions cost_opts;
  MachineConfig& mc = cost_opts.machine;
  mc.l2_enabled = options.l2_enabled;
  if (options.cache_pinning) {
    const std::vector<Addr> i = SelectPinnedLines(image, PinTarget::kL1I, mc.l1i, kL1PinnedWays);
    const std::vector<Addr> d = SelectPinnedLines(image, PinTarget::kL1D, mc.l1d, kL1PinnedWays);
    cost_opts.pinned_ilines.insert(i.begin(), i.end());
    cost_opts.pinned_dlines.insert(d.begin(), d.end());
  }
  if (options.l2_kernel_pinning) {
    const std::vector<Addr> l2 = SelectPinnedLines(image, PinTarget::kL2, mc.l2, kL2PinnedWays);
    cost_opts.pinned_l2lines.insert(l2.begin(), l2.end());
  }
  return cost_opts;
}

FuncId AnalysisEntryFunc(const KernelImage& image, EntryPoint e) {
  switch (e) {
    case EntryPoint::kSyscall:
      return image.b.sys.fn;
    case EntryPoint::kUndefined:
      return image.b.undef.fn;
    case EntryPoint::kPageFault:
      return image.b.fault.fn;
    case EntryPoint::kInterrupt:
      return image.b.irq.fn;
  }
  return kNoFunc;
}

WcetAnalyzer::WcetAnalyzer(const KernelImage& image, const AnalysisOptions& options)
    : image_(&image),
      opts_(options),
      block_cache_(image.prog, BuildCostModelOptions(image, options)),
      digests_(image.prog) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const FuncId fn = AnalysisEntryFunc(image, static_cast<EntryPoint>(i));
    closure_blocks_[i] = ClosureBlocks(image.prog, CallClosure(image.prog, fn));
  }
}

WcetAnalyzer::StageKeys WcetAnalyzer::ComputeKeys(std::size_t entry_idx) const {
  const std::vector<BlockId>& blocks = closure_blocks_[entry_idx];
  StageKeys k;
  k.graph = digests_.Chain(blocks, DigestStage::kStructure);
  k.loops = digests_.Chain(blocks, DigestStage::kLoops, k.graph);
  k.cost = digests_.Chain(blocks, DigestStage::kCost, k.loops);
  k.ipet = digests_.Chain(blocks, DigestStage::kIpet, k.cost);
  return k;
}

EntryResult WcetAnalyzer::Analyze(EntryPoint entry) const {
  const std::size_t i = static_cast<std::size_t>(entry);
  const StageKeys keys = ComputeKeys(i);
  EntryCache& ec = entries_[i];
  const std::lock_guard<std::mutex> lock(ec.mu);
  const bool graph_hit = ec.valid && ec.keys.graph == keys.graph;
  const bool loop_hit = graph_hit && ec.keys.loops == keys.loops;
  const bool cost_hit = loop_hit && ec.keys.cost == keys.cost;
  const bool ipet_hit = cost_hit && ec.keys.ipet == keys.ipet;
  (graph_hit ? GraphHit() : GraphMiss()).Inc();
  (loop_hit ? LoopHit() : LoopMiss()).Inc();
  (cost_hit ? CostHit() : CostMiss()).Inc();
  (ipet_hit ? IpetHit() : IpetMiss()).Inc();
  (ipet_hit ? MemoHitCounter() : MemoMissCounter()).Inc();
  if (ipet_hit) {
    return ec.result;
  }

  EntryResult& res = ec.result;
  if (!graph_hit) {
    const auto scope = GraphTimer().Measure();
    ec.graph = std::make_unique<InlinedGraph>(image_->prog, AnalysisEntryFunc(*image_, entry));
    res.entry = entry;
    res.nodes = ec.graph->nodes().size();
    res.edges = ec.graph->edges().size();
  }
  if (!loop_hit) {
    const auto scope = LoopBoundTimer().Measure();
    res.loops_bounded_auto = 0;
    res.loops_bounded_annot = 0;
    for (const LoopBoundResult& b : ComputeLoopBounds(*ec.graph)) {
      if (b.source == LoopBoundResult::Source::kComputed) {
        res.loops_bounded_auto++;
      } else if (b.source != LoopBoundResult::Source::kUnknown) {
        res.loops_bounded_annot++;
      }
    }
  }
  if (!cost_hit) {
    // First-miss edge extras depend on the loop bounds, so a loop-stage move
    // re-runs the costs too.
    const auto scope = CostTimer().Measure();
    ec.costs = ComputeNodeCosts(*ec.graph, block_cache_);
  }

  const auto scope = IpetTimer().Measure();
  // The program is rebuilt whole. Over the same graph the stored basis
  // follows the rows by content onto the rebuild; a different edge set makes
  // it meaningless.
  IpetProgram lp =
      BuildIpetProgram(*ec.graph, ec.costs, IpetOptions{opts_.irq_pending}, opts_.constraints);
  if (graph_hit) {
    RowsPatched().Inc(ec.warm.Rebase(ec.lp, lp));
  } else {
    ec.warm.Reset();
  }
  ec.lp = std::move(lp);
  const IpetResult ipet = SolveIpetProgramWarm(*ec.graph, ec.lp, ec.warm);
  res.status = ipet.status;
  res.wcet = 0;
  res.micros = 0;
  res.worst_trace = Trace{};
  if (ipet.status == SolveStatus::kOptimal) {
    res.wcet = ipet.wcet;
    res.micros = ClockSpec{}.ToMicros(ipet.wcet);
    res.worst_trace = ExtractWorstTrace(*ec.graph, ipet);
  }
  ec.keys = keys;
  ec.valid = true;
  return res;
}

Cycles WcetAnalyzer::EvaluateTrace(const Trace& trace) const {
  return EvaluateTraceCost(block_cache_, trace);
}

std::vector<Cycles> WcetAnalyzer::PerBlockBounds() const {
  std::vector<Cycles> bounds(image_->prog.num_blocks(), 0);
  for (BlockId id = 0; id < bounds.size(); ++id) {
    bounds[id] = block_cache_.worst_case(id);
  }
  return bounds;
}

Cycles WcetAnalyzer::InterruptResponseBound() const {
  const EntryResult r[] = {Analyze(EntryPoint::kSyscall), Analyze(EntryPoint::kUndefined),
                           Analyze(EntryPoint::kPageFault), Analyze(EntryPoint::kInterrupt)};
  return ResponseBoundOf({&r[0], &r[1], &r[2], &r[3]});
}

bool WcetAnalyzer::NotifyBlockEdited(BlockId block) {
  if (!digests_.Refresh(block)) {
    return false;
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const EntryCache& ec = entries_[i];
    // Only entries whose call closure contains the block can go stale.
    const std::vector<BlockId>& blocks = closure_blocks_[i];
    if (ec.valid && std::find(blocks.begin(), blocks.end(), block) != blocks.end() &&
        ComputeKeys(i).ipet != ec.keys.ipet) {
      InvalidatedEntries().Inc();
    }
  }
  return true;
}

Cycles ResponseBoundOf(const std::array<const EntryResult*, 4>& by_entry) {
  for (std::size_t i = 0; i < by_entry.size(); ++i) {
    if (by_entry[i]->status != SolveStatus::kOptimal) {
      throw std::runtime_error(
          std::string("interrupt response bound: the ") +
          EntryPointName(static_cast<EntryPoint>(i)) + " entry is " +
          SolveStatusName(by_entry[i]->status) + ", not optimal, so it bounds nothing");
    }
  }
  Cycles longest = 0;
  for (EntryPoint e : {EntryPoint::kSyscall, EntryPoint::kUndefined, EntryPoint::kPageFault}) {
    longest = std::max(longest, by_entry[static_cast<std::size_t>(e)]->wcet);
  }
  return longest + by_entry[static_cast<std::size_t>(EntryPoint::kInterrupt)]->wcet;
}

}  // namespace pmk
