#include "src/wcet/analysis.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"
#include "src/wcet/refmode.h"

namespace pmk {

namespace {

// Analyzer telemetry: memoization effectiveness plus per-stage wall time.
// Pure observers — the analysis result is a function of (image, options)
// regardless of what gets counted.
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

const char* EntryPointName(EntryPoint e) {
  switch (e) {
    case EntryPoint::kSyscall:
      return "System call";
    case EntryPoint::kUndefined:
      return "Undefined instruction";
    case EntryPoint::kPageFault:
      return "Page fault";
    case EntryPoint::kInterrupt:
      return "Interrupt";
  }
  return "?";
}

CostModelOptions BuildCostModelOptions(const KernelImage& image, const AnalysisOptions& options) {
  CostModelOptions cost_opts;
  cost_opts.l2_enabled = options.l2_enabled;
  if (options.l2_kernel_pinning) {
    // The whole kernel (text, data, stack) is way-locked into the L2: any
    // statically-addressed kernel access misses no further than the L2.
    cost_opts.l2_kernel_pinned = true;
    cost_opts.l2_pinned_lo = Program::kTextBase;
    cost_opts.l2_pinned_hi = Program::kStackTop;
  }
  if (options.cache_pinning) {
    const std::size_t capacity = (4096 / cost_opts.line_bytes) * options.pin_ways;
    const PinnedLines pins = SelectPinnedLines(image, cost_opts.line_bytes, capacity);
    cost_opts.pinned_ilines.insert(pins.ilines.begin(), pins.ilines.end());
    cost_opts.pinned_dlines.insert(pins.dlines.begin(), pins.dlines.end());
    // The locked region shrinks the cache available to everything else: the
    // direct-mapped approximation loses the locked ways.
    cost_opts.way_bytes = 4096;  // unchanged: one way is already the model
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
    : image_(&image), opts_(options) {
  cost_opts_ = BuildCostModelOptions(image, options);
  memoize_ = !wcet::ReferenceMode();
}

FuncId WcetAnalyzer::EntryFunc(EntryPoint e) const { return AnalysisEntryFunc(*image_, e); }

const CostModelCache& WcetAnalyzer::BlockCache() const {
  std::call_once(block_cache_once_, [&] {
    block_cache_ = std::make_unique<CostModelCache>(image_->prog, cost_opts_);
  });
  return *block_cache_;
}

EntryResult WcetAnalyzer::AnalyzeUncached(EntryPoint entry) const {
  EntryResult res;
  res.entry = entry;

  std::unique_ptr<InlinedGraph> graph;
  {
    const auto scope = GraphTimer().Measure();
    graph = std::make_unique<InlinedGraph>(image_->prog, EntryFunc(entry));
  }
  res.nodes = graph->nodes().size();
  res.edges = graph->edges().size();

  std::vector<LoopBoundResult> bounds;
  {
    const auto scope = LoopBoundTimer().Measure();
    bounds = ComputeLoopBounds(*graph);
  }
  for (const LoopBoundResult& b : bounds) {
    if (b.source == LoopBoundResult::Source::kComputed) {
      res.loops_bounded_auto++;
    } else if (b.source != LoopBoundResult::Source::kUnknown) {
      res.loops_bounded_annot++;
    }
  }

  CostResult costs;
  {
    const auto scope = CostTimer().Measure();
    costs = memoize_ ? ComputeNodeCosts(*graph, BlockCache())
                     : ComputeNodeCosts(*graph, cost_opts_);
  }

  IpetOptions iopts;
  iopts.irq_pending = opts_.irq_pending;
  const auto ipet_scope = IpetTimer().Measure();
  const IpetResult ipet = RunIpet(*graph, costs, iopts, opts_.constraints);
  res.status = ipet.status;
  if (ipet.status == SolveStatus::kOptimal) {
    res.wcet = ipet.wcet;
    res.micros = ClockSpec{}.ToMicros(ipet.wcet);
    res.worst_trace = ExtractWorstTrace(*graph, ipet);
  }
  return res;
}

EntryResult WcetAnalyzer::Analyze(EntryPoint entry) const {
  if (!memoize_) {
    MemoMissCounter().Inc();
    return AnalyzeUncached(entry);
  }
  EntryState& st = entries_[static_cast<std::size_t>(entry)];
  if (st.ready.load(std::memory_order_acquire)) {
    MemoHitCounter().Inc();
  } else {
    MemoMissCounter().Inc();
  }
  std::call_once(st.once, [&] {
    st.result = std::make_unique<EntryResult>(AnalyzeUncached(entry));
    st.ready.store(true, std::memory_order_release);
  });
  return *st.result;
}

Cycles WcetAnalyzer::EvaluateTrace(const Trace& trace) const {
  if (!memoize_) {
    return EvaluateTraceCost(image_->prog, trace, cost_opts_);
  }
  return EvaluateTraceCost(BlockCache(), trace);
}

std::vector<Cycles> WcetAnalyzer::PerBlockBounds() const {
  std::vector<Cycles> bounds(image_->prog.num_blocks(), 0);
  if (memoize_) {
    const CostModelCache& cache = BlockCache();
    for (BlockId id = 0; id < bounds.size(); ++id) {
      bounds[id] = cache.worst_case(id);
    }
    return bounds;
  }
  for (BlockId id = 0; id < bounds.size(); ++id) {
    bounds[id] = BlockWorstCaseCost(image_->prog, id, cost_opts_);
  }
  return bounds;
}

Cycles WcetAnalyzer::InterruptResponseBound() const {
  const EntryResult r[] = {Analyze(EntryPoint::kSyscall), Analyze(EntryPoint::kUndefined),
                           Analyze(EntryPoint::kPageFault), Analyze(EntryPoint::kInterrupt)};
  return ResponseBoundOf({&r[0], &r[1], &r[2], &r[3]});
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
