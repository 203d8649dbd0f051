#include "src/wcet/incremental.h"

#include <algorithm>

#include "src/obs/metrics.h"

namespace pmk {

namespace {

// Per-stage cache effectiveness plus invalidation/patch telemetry. Pure
// observers: the analysis results are a function of (image content, options)
// regardless of what gets counted. Warm-vs-cold simplex counts live in
// src/wcet/ilp.cc (wcet.inc.simplex.*).
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
obs::Counter& RowsPatched() {
  static obs::Counter c("wcet.inc.rows_patched");
  return c;
}

void CountBounds(const std::vector<LoopBoundResult>& bounds, EntryResult& res) {
  res.loops_bounded_auto = 0;
  res.loops_bounded_annot = 0;
  for (const LoopBoundResult& b : bounds) {
    if (b.source == LoopBoundResult::Source::kComputed) {
      res.loops_bounded_auto++;
    } else if (b.source != LoopBoundResult::Source::kUnknown) {
      res.loops_bounded_annot++;
    }
  }
}

}  // namespace

IncrementalWcetAnalyzer::IncrementalWcetAnalyzer(const KernelImage& image,
                                                 const AnalysisOptions& options)
    : image_(&image),
      opts_(options),
      cost_opts_(BuildCostModelOptions(image, options)),
      block_cache_(std::make_unique<CostModelCache>(image.prog, cost_opts_)),
      digests_(image.prog) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const FuncId fn = AnalysisEntryFunc(image, static_cast<EntryPoint>(i));
    closure_blocks_[i] = ClosureBlocks(image.prog, CallClosure(image.prog, fn));
  }
}

IncrementalWcetAnalyzer::StageKeys IncrementalWcetAnalyzer::ComputeKeys(
    std::size_t entry_idx) const {
  const std::vector<BlockId>& blocks = closure_blocks_[entry_idx];
  StageKeys k;
  k.graph = digests_.Chain(blocks, DigestStage::kStructure);
  k.loops = digests_.Chain(blocks, DigestStage::kLoops, k.graph);
  k.cost = digests_.Chain(blocks, DigestStage::kCost, k.loops);
  k.ipet = digests_.Chain(blocks, DigestStage::kIpet, k.cost);
  return k;
}

void IncrementalWcetAnalyzer::FinishSolve(EntryCache& ec, EntryPoint entry) {
  const IpetResult ipet = SolveIpetProgramWarm(*ec.graph, ec.prog, ec.warm);
  EntryResult& res = ec.result;
  res.entry = entry;
  res.status = ipet.status;
  res.nodes = ec.graph->nodes().size();
  res.edges = ec.graph->edges().size();
  CountBounds(ec.bounds, res);
  res.wcet = 0;
  res.micros = 0;
  res.worst_trace = Trace{};
  if (ipet.status == SolveStatus::kOptimal) {
    res.wcet = ipet.wcet;
    res.micros = ClockSpec{}.ToMicros(ipet.wcet);
    res.worst_trace = ExtractWorstTrace(*ec.graph, ipet);
  }
  ec.valid = true;
}

const EntryResult& IncrementalWcetAnalyzer::Analyze(EntryPoint entry) {
  const std::size_t i = static_cast<std::size_t>(entry);
  EntryCache& ec = entries_[i];
  const StageKeys keys = ComputeKeys(i);
  const IpetOptions iopts{opts_.irq_pending};

  if (!ec.valid || ec.keys.graph != keys.graph) {
    // Structural change (or first query): everything below re-derives and
    // the stored basis is meaningless for a different edge set.
    GraphMiss().Inc();
    LoopMiss().Inc();
    CostMiss().Inc();
    IpetMiss().Inc();
    ec.graph = std::make_unique<InlinedGraph>(image_->prog, AnalysisEntryFunc(*image_, entry));
    ec.bounds = ComputeLoopBounds(*ec.graph);
    ec.costs = ComputeNodeCosts(*ec.graph, *block_cache_);
    ec.prog = BuildIpetProgram(*ec.graph, ec.costs, iopts, opts_.constraints);
    ec.warm.Reset();
    ec.keys = keys;
    FinishSolve(ec, entry);
    return ec.result;
  }
  GraphHit().Inc();

  if (ec.keys.loops != keys.loops) {
    // Loop-control content moved: re-derive bounds on the cached graph,
    // re-run node costs (first-miss edge extras depend on the bounds), and
    // re-emit only the dirtied row families; the solve restarts warm.
    LoopMiss().Inc();
    CostMiss().Inc();
    IpetMiss().Inc();
    ec.bounds = ComputeLoopBounds(*ec.graph);
    ec.costs = ComputeNodeCosts(*ec.graph, *block_cache_);
    PatchIpetObjective(*ec.graph, ec.costs, ec.prog);
    std::size_t patched = PatchIpetLoopRows(*ec.graph, ec.prog, &ec.warm);
    // Absolute-exec bounds feed both the loop stage and the exec rows, so a
    // loop-stage move may dirty the extra families too.
    patched += PatchIpetExtraRows(*ec.graph, iopts, ec.prog, &ec.warm);
    RowsPatched().Inc(patched);
    ec.keys = keys;
    FinishSolve(ec, entry);
    return ec.result;
  }
  LoopHit().Inc();

  if (ec.keys.cost != keys.cost) {
    // Cost content moved with identical structure and loops: only the
    // objective coefficients change; every constraint row is reused as-is.
    CostMiss().Inc();
    IpetMiss().Inc();
    ec.costs = ComputeNodeCosts(*ec.graph, *block_cache_);
    PatchIpetObjective(*ec.graph, ec.costs, ec.prog);
    ec.keys = keys;
    FinishSolve(ec, entry);
    return ec.result;
  }
  CostHit().Inc();

  if (ec.keys.ipet != keys.ipet) {
    // Only ILP extras moved (preemption flags / absolute bounds): patch the
    // two trailing row families, keep graph/bounds/costs/objective.
    IpetMiss().Inc();
    RowsPatched().Inc(PatchIpetExtraRows(*ec.graph, iopts, ec.prog, &ec.warm));
    ec.keys = keys;
    FinishSolve(ec, entry);
    return ec.result;
  }
  IpetHit().Inc();
  return ec.result;
}

Cycles IncrementalWcetAnalyzer::InterruptResponseBound() {
  std::array<const EntryResult*, 4> by_entry;
  for (std::size_t i = 0; i < by_entry.size(); ++i) {
    by_entry[i] = &Analyze(static_cast<EntryPoint>(i));
  }
  return ResponseBoundOf(by_entry);
}

std::vector<Cycles> IncrementalWcetAnalyzer::PerBlockBounds() const {
  std::vector<Cycles> bounds(image_->prog.num_blocks(), 0);
  for (BlockId id = 0; id < bounds.size(); ++id) {
    bounds[id] = block_cache_->worst_case(id);
  }
  return bounds;
}

bool IncrementalWcetAnalyzer::NotifyBlockEdited(BlockId block) {
  const bool moved = digests_.Refresh(block);
  if (!moved) {
    return false;
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const EntryCache& ec = entries_[i];
    if (!ec.valid) {
      continue;
    }
    // Only entries whose call closure contains the block can go stale.
    const std::vector<BlockId>& blocks = closure_blocks_[i];
    if (std::find(blocks.begin(), blocks.end(), block) == blocks.end()) {
      continue;
    }
    if (ComputeKeys(i).ipet != ec.keys.ipet) {
      InvalidatedEntries().Inc();
    }
  }
  return true;
}

bool IncrementalWcetAnalyzer::Fresh(EntryPoint e) const {
  const std::size_t i = static_cast<std::size_t>(e);
  const EntryCache& ec = entries_[i];
  // The ipet key chains every stage above it, so one comparison covers the
  // whole pipeline.
  return ec.valid && ComputeKeys(i).ipet == ec.keys.ipet;
}

}  // namespace pmk
