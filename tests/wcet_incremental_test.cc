// Incremental re-analysis: a resident WcetAnalyzer told about edits through
// NotifyBlockEdited against a fresh cold analyzer and the oracle, digest
// stage precision, warm-started simplex bookkeeping, and the query-daemon
// core under concurrent queries and edits.
//
// The load-bearing property is the identity gate: after ANY sequence of
// supported post-layout edits (loop-bound annotations, absolute execution
// bounds, preemption-point toggles), every answer the resident analyzer
// gives must be bit-identical to a fresh cold WcetAnalyzer over the same
// edited image, and to WcetOracle — randomized edit scripts probe that
// across both kernel configurations. The service tests double as the TSan
// workload for the shared/exclusive lock discipline (ctest -R
// "WcetService|IncrementalWcet" under -fsanitize=thread in CI).

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/wire.h"
#include "src/kir/digest.h"
#include "src/obs/metrics.h"
#include "src/wcet/analysis.h"
#include "src/wcet/serve.h"
#include "tests/wcet_oracle.h"

namespace pmk {
namespace {

using engine::WireReader;
using engine::WireWriter;
using wcet::EditField;
using wcet::ServeOp;
using wcet::WcetService;

// One randomized supported edit. Drawn from the live block table so scripts
// stay within the post-layout mutation contract.
struct Edit {
  BlockId block = 0;
  EditField field = EditField::kLoopBoundAnnotation;
  std::uint64_t value = 0;
};

Edit RandomEdit(const Program& prog, std::mt19937& rng) {
  std::vector<Edit> candidates;
  for (BlockId id = 0; id < prog.num_blocks(); ++id) {
    const Block& b = prog.block(id);
    if (b.loop_bound_annotation > 0) {
      // Perturb within a small range so bounds stay feasible.
      candidates.push_back({id, EditField::kLoopBoundAnnotation,
                            b.loop_bound_annotation + (rng() % 4)});
    }
    if (b.absolute_exec_bound > 0) {
      candidates.push_back({id, EditField::kAbsoluteExecBound,
                            b.absolute_exec_bound + (rng() % 4)});
    }
    if (b.is_preemption_point) {
      candidates.push_back({id, EditField::kIsPreemptionPoint, rng() % 2});
    }
  }
  EXPECT_FALSE(candidates.empty());
  return candidates[rng() % candidates.size()];
}

std::uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Get().Snapshot().CounterValue(name);
}

// ------------------------------------------------------------ digest stages

TEST(BlockDigests, StagePrecision) {
  const auto image = BuildKernelImage(KernelConfig::After());
  Program& prog = image->prog;

  // Find one annotated loop head and one preemption point.
  BlockId annot = kNoBlock;
  BlockId preempt = kNoBlock;
  for (BlockId id = 0; id < prog.num_blocks(); ++id) {
    if (annot == kNoBlock && prog.block(id).loop_bound_annotation > 0) {
      annot = id;
    }
    if (preempt == kNoBlock && prog.block(id).is_preemption_point) {
      preempt = id;
    }
  }
  ASSERT_NE(annot, kNoBlock);
  ASSERT_NE(preempt, kNoBlock);

  const BlockStageDigests before_annot = ComputeBlockDigests(prog, annot);
  prog.mutable_block(annot).loop_bound_annotation += 1;
  const BlockStageDigests after_annot = ComputeBlockDigests(prog, annot);
  // An annotation edit moves exactly the loop stage.
  EXPECT_EQ(before_annot.of(DigestStage::kStructure), after_annot.of(DigestStage::kStructure));
  EXPECT_NE(before_annot.of(DigestStage::kLoops), after_annot.of(DigestStage::kLoops));
  EXPECT_EQ(before_annot.of(DigestStage::kCost), after_annot.of(DigestStage::kCost));
  EXPECT_EQ(before_annot.of(DigestStage::kIpet), after_annot.of(DigestStage::kIpet));
  prog.mutable_block(annot).loop_bound_annotation -= 1;

  const BlockStageDigests before_pp = ComputeBlockDigests(prog, preempt);
  prog.mutable_block(preempt).is_preemption_point = false;
  const BlockStageDigests after_pp = ComputeBlockDigests(prog, preempt);
  // A preemption toggle moves exactly the ILP-extras stage.
  EXPECT_EQ(before_pp.of(DigestStage::kStructure), after_pp.of(DigestStage::kStructure));
  EXPECT_EQ(before_pp.of(DigestStage::kLoops), after_pp.of(DigestStage::kLoops));
  EXPECT_EQ(before_pp.of(DigestStage::kCost), after_pp.of(DigestStage::kCost));
  EXPECT_NE(before_pp.of(DigestStage::kIpet), after_pp.of(DigestStage::kIpet));
  prog.mutable_block(preempt).is_preemption_point = true;
}

TEST(BlockDigests, RefreshReportsChange) {
  const auto image = BuildKernelImage(KernelConfig::After());
  Program& prog = image->prog;
  ProgramDigests digests(prog);

  BlockId annot = kNoBlock;
  for (BlockId id = 0; id < prog.num_blocks() && annot == kNoBlock; ++id) {
    if (prog.block(id).loop_bound_annotation > 0) {
      annot = id;
    }
  }
  ASSERT_NE(annot, kNoBlock);

  EXPECT_FALSE(digests.Refresh(annot));  // nothing edited
  prog.mutable_block(annot).loop_bound_annotation += 1;
  EXPECT_TRUE(digests.Refresh(annot));
  EXPECT_FALSE(digests.Refresh(annot));  // digest already refreshed
}

// ------------------------------------------------------- incremental engine

TEST(IncrementalWcet, MatchesColdAnalyzerOnFreshImage) {
  const auto image = BuildKernelImage(KernelConfig::After());
  const AnalysisOptions opts;
  const WcetAnalyzer an(*image, opts);
  const WcetOracle oracle(*image, opts);
  EXPECT_EQ(DiffFromOracle(an, oracle), "");
  EXPECT_EQ(an.InterruptResponseBound(), oracle.InterruptResponseBound());
  EXPECT_EQ(an.PerBlockBounds(), oracle.PerBlockBounds());
}

TEST(IncrementalWcet, RepeatQueriesArePureHits) {
  const auto image = BuildKernelImage(KernelConfig::After());
  const WcetAnalyzer an(*image, AnalysisOptions{});
  const Cycles first = an.InterruptResponseBound();
  const std::uint64_t hits = CounterValue("wcet.memo.hit");
  const std::uint64_t misses = CounterValue("wcet.memo.miss");
  EXPECT_EQ(an.InterruptResponseBound(), first);
  EXPECT_EQ(CounterValue("wcet.memo.hit") - hits, 4u);
  EXPECT_EQ(CounterValue("wcet.memo.miss"), misses);
}

class RandomEditScriptTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomEditScriptTest, IncrementalIdenticalToColdAfterEveryEdit) {
  // Both kernel configurations, alternating by seed; 24 cumulative edits per
  // script, cold-checked after every one and oracle-checked after every
  // eighth.
  const KernelConfig kc =
      (GetParam() % 2 == 0) ? KernelConfig::After() : KernelConfig::Before();
  const auto image = BuildKernelImage(kc);
  Program& prog = image->prog;
  AnalysisOptions opts;
  WcetAnalyzer resident(*image, opts);
  resident.InterruptResponseBound();  // prime the caches

  std::mt19937 rng(GetParam() * 7919 + 17);
  for (int step = 0; step < 24; ++step) {
    const Edit e = RandomEdit(prog, rng);
    wcet::ApplyEdit(prog, e.block, e.field, e.value);
    resident.NotifyBlockEdited(e.block);
    const WcetAnalyzer cold(*image, opts);
    for (EntryPoint entry : kEntryPoints) {
      EXPECT_EQ(DiffEntryResults(cold.Analyze(entry), resident.Analyze(entry)), "")
          << "step " << step << ", " << EntryPointName(entry);
    }
    EXPECT_EQ(resident.InterruptResponseBound(), cold.InterruptResponseBound());
    if (step % 8 == 7) {
      EXPECT_EQ(DiffFromOracle(resident, WcetOracle(*image, opts)), "") << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomEditScriptTest, ::testing::Values(0u, 1u, 2u, 3u));

BlockId FindBlock(const Program& prog, const std::string& name) {
  for (BlockId id = 0; id < prog.num_blocks(); ++id) {
    if (prog.block(id).name == name) {
      return id;
    }
  }
  ADD_FAILURE() << "no block " << name;
  return kNoBlock;
}

// A warm-started simplex may only speed a solve up, never change its status.
// Two preemption-point toggles leave a stored basis whose warm restart of the
// next solve's root relaxation ends kUnbounded; that solve must still return
// the cold verdict — the syscall entry optimal at 64,016 cycles and a
// response bound of 69,326, not an unbounded entry summed as 0.
TEST(IncrementalWcet, WarmStartNeverChangesSolveStatus) {
  const auto image = BuildKernelImage(KernelConfig::After());
  Program& prog = image->prog;
  const AnalysisOptions opts;
  WcetAnalyzer resident(*image, opts);
  const BlockId preempt = FindBlock(prog, "eca.preempt");
  const BlockId deq = FindBlock(prog, "eca.deq");
  ASSERT_EQ(prog.block(deq).absolute_exec_bound, 256u);
  for (int round = 0; round < 2; ++round) {
    for (const bool on : {false, true}) {
      prog.mutable_block(preempt).is_preemption_point = on;
      resident.NotifyBlockEdited(preempt);
      resident.InterruptResponseBound();
    }
  }
  prog.mutable_block(deq).absolute_exec_bound = 259;
  resident.NotifyBlockEdited(deq);

  const WcetAnalyzer cold(*image, opts);
  const EntryResult want = cold.Analyze(EntryPoint::kSyscall);
  ASSERT_EQ(want.status, SolveStatus::kOptimal);
  EXPECT_EQ(want.wcet, 64'016u);
  EXPECT_EQ(DiffEntryResults(want, resident.Analyze(EntryPoint::kSyscall)), "");
  EXPECT_EQ(cold.InterruptResponseBound(), 69'326u);
  EXPECT_EQ(resident.InterruptResponseBound(), cold.InterruptResponseBound());
}

// Annotation edits move the loop-bound rows only of loops the bounded search
// cannot bound, and the shipped kernels have none. With urt.more's loop-input
// range removed, the Before kernel's retype clear loop falls back to its
// annotation, so each annotation edit changes a loop-bound row of the
// rebuilt program and moves the syscall bound; the resident analyzer must
// still match the oracle after every edit.
TEST(IncrementalWcet, AnnotationBoundedLoopMatchesOracle) {
  const auto image = BuildKernelImage(KernelConfig::Before());
  Program& prog = image->prog;
  const AnalysisOptions opts;
  WcetAnalyzer resident(*image, opts);
  const EntryResult computed = resident.Analyze(EntryPoint::kSyscall);

  const BlockId more = FindBlock(prog, "urt.more");
  prog.mutable_block(more).loop_inputs.clear();
  resident.NotifyBlockEdited(more);
  const EntryResult annotated = resident.Analyze(EntryPoint::kSyscall);
  EXPECT_EQ(annotated.loops_bounded_annot, computed.loops_bounded_annot + 1);
  EXPECT_EQ(DiffFromOracle(resident, WcetOracle(*image, opts)), "");

  const std::uint32_t annot = prog.block(more).loop_bound_annotation;
  for (const std::uint32_t v : {annot + 3, annot / 2, annot}) {
    wcet::ApplyEdit(prog, more, EditField::kLoopBoundAnnotation, v);
    resident.NotifyBlockEdited(more);
    const Cycles wcet = resident.Analyze(EntryPoint::kSyscall).wcet;
    EXPECT_EQ(wcet == annotated.wcet, v == annot) << "annotation " << v;
    EXPECT_EQ(DiffFromOracle(resident, WcetOracle(*image, opts)), "") << "annotation " << v;
  }
}

TEST(IncrementalWcet, WarmStartsAfterMetadataEdits) {
  const auto image = BuildKernelImage(KernelConfig::After());
  Program& prog = image->prog;
  WcetAnalyzer resident(*image, AnalysisOptions{});
  resident.InterruptResponseBound();

  const std::uint64_t warm_before = CounterValue("wcet.inc.simplex.warm");
  std::mt19937 rng(42);
  for (int step = 0; step < 8; ++step) {
    const Edit e = RandomEdit(prog, rng);
    wcet::ApplyEdit(prog, e.block, e.field, e.value);
    resident.NotifyBlockEdited(e.block);
    resident.InterruptResponseBound();
  }
  const std::uint64_t warm_after = CounterValue("wcet.inc.simplex.warm");
  // Metadata-only edits keep a valid stored basis, so at least some of the
  // re-solves must have started warm.
  EXPECT_GT(warm_after, warm_before);
}

// The counters of one query's stage re-derivations and of the solves they
// ran, in the order EditRederivesOnlyTheStagesItMoved lists its expected
// moves.
constexpr const char* kStageCounters[] = {
    "wcet.inc.graph.miss",   "wcet.inc.loopbound.miss",       "wcet.inc.cost.miss",
    "wcet.inc.ipet.miss",    "wcet.inc.rows_patched",         "wcet.inc.simplex.cold",
    "wcet.inc.simplex.warm", "wcet.simplex.pivots",           "wcet.simplex.refactorisations",
    "wcet.simplex.imports",  "wcet.bb.nodes"};
using StageCounts = std::array<std::uint64_t, std::size(kStageCounters)>;

StageCounts ReadStageCounters() {
  StageCounts counts{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = CounterValue(kStageCounters[i]);
  }
  return counts;
}

// An edit re-derives only the stages whose digests it moved, only in the
// entry whose closure holds the block, and re-solves warm. Each edit kind's
// re-query moves the stage counters by an exact amount, so a stage that
// re-runs needlessly (say the cost fixpoint on a preemption toggle, which
// moves only IPET rows) fails here, where timing would only make it slower.
// The solver's moves pin the warm pivot path: a stored basis carried onto
// the wrong rows still reaches the same bound, but not in the same pivots,
// refactorisations, imports and branch-and-bound nodes.
TEST(IncrementalWcet, EditRederivesOnlyTheStagesItMoved) {
  const auto image = BuildKernelImage(KernelConfig::After());
  Program& prog = image->prog;
  WcetAnalyzer resident(*image, AnalysisOptions{});
  const Cycles pristine = resident.InterruptResponseBound();

  const BlockId more = FindBlock(prog, "urt.more");
  const BlockId preempt = FindBlock(prog, "ptd.preempt");
  const BlockId deq = FindBlock(prog, "eca.deq");
  ASSERT_TRUE(prog.block(preempt).is_preemption_point);
  struct Case {
    const char* what;
    BlockId block;
    EditField field;
    std::uint64_t value;
    std::uint64_t revert;
    // graph, loop bound, cost and IPET misses, rows of the previous program
    // the rebuild no longer holds, cold and warm simplex solves, then
    // pivots, refactorisations, imports and B&B nodes: the kStageCounters
    // moves of the re-query.
    StageCounts moves;
  };
  const std::uint32_t annot = prog.block(more).loop_bound_annotation;
  const std::uint32_t bound = prog.block(deq).absolute_exec_bound;
  const Case cases[] = {
      {"urt.more annotation +1", more, EditField::kLoopBoundAnnotation, annot + 1u, annot,
       {0, 1, 1, 1, 0, 0, 1, 2, 0, 1, 1}},
      {"ptd.preempt off", preempt, EditField::kIsPreemptionPoint, 0, 1,
       {0, 0, 0, 1, 4, 0, 1, 8, 0, 1, 1}},
      {"eca.deq bound +1", deq, EditField::kAbsoluteExecBound, bound + 1u, bound,
       {0, 1, 1, 1, 1, 0, 1, 2, 0, 1, 1}},
  };
  const auto expect_moves = [](const StageCounts& before, const StageCounts& after,
                               const StageCounts& moves) {
    for (std::size_t i = 0; i < moves.size(); ++i) {
      EXPECT_EQ(after[i] - before[i], moves[i]) << kStageCounters[i];
    }
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    wcet::ApplyEdit(prog, c.block, c.field, c.value);
    ASSERT_TRUE(resident.NotifyBlockEdited(c.block));
    const StageCounts before = ReadStageCounters();
    resident.InterruptResponseBound();
    expect_moves(before, ReadStageCounters(), c.moves);
    wcet::ApplyEdit(prog, c.block, c.field, c.revert);
    resident.NotifyBlockEdited(c.block);
    EXPECT_EQ(resident.InterruptResponseBound(), pristine);
  }

  // A fixed script of 16 cumulative edits of every kind, each re-queried:
  // the summed moves pin the warm path across edits that grow and shrink
  // the row families and re-solve from bases carried over many rebuilds.
  SCOPED_TRACE("16-edit script");
  std::mt19937 rng(21);
  const StageCounts before = ReadStageCounters();
  for (int step = 0; step < 16; ++step) {
    const Edit e = RandomEdit(prog, rng);
    wcet::ApplyEdit(prog, e.block, e.field, e.value);
    resident.NotifyBlockEdited(e.block);
    resident.InterruptResponseBound();
  }
  expect_moves(before, ReadStageCounters(), {0, 8, 8, 14, 16, 0, 14, 207, 0, 48, 48});
}

// ------------------------------------------------------------- service core

std::vector<std::uint8_t> AnalyzeRequest(EntryPoint e) {
  WireWriter w;
  w.U8(static_cast<std::uint8_t>(ServeOp::kAnalyze));
  w.U8(static_cast<std::uint8_t>(e));
  return w.Take();
}

std::vector<std::uint8_t> ResponseBoundRequest() {
  WireWriter w;
  w.U8(static_cast<std::uint8_t>(ServeOp::kResponseBound));
  return w.Take();
}

std::vector<std::uint8_t> EditRequest(BlockId block, EditField field, std::uint64_t value) {
  WireWriter w;
  w.U8(static_cast<std::uint8_t>(ServeOp::kEdit));
  w.U32(block);
  w.U8(static_cast<std::uint8_t>(field));
  w.U64(value);
  return w.Take();
}

Cycles ParseBound(const std::vector<std::uint8_t>& reply) {
  WireReader r(reply);
  EXPECT_EQ(r.U8(), 0);
  return r.U64();
}

// The refusal every response-bound query gives when an entry is not optimal.
void ExpectRefusal(const std::string& what) {
  EXPECT_NE(what.find("the System call entry is unbounded, not optimal"), std::string::npos)
      << what;
}

// A response bound never counts an entry that is not optimal as 0 cycles.
// Clearing choose.lz_deq's absolute bound on the Before image leaves every
// entry unbounded: the analyzer and the oracle throw, and the service
// answers an error both when it re-derives every entry and when it finds
// them all cached.
TEST(ResponseBound, RefusesEntriesThatAreNotOptimal) {
  const auto image = BuildKernelImage(KernelConfig::Before());
  const BlockId lz = FindBlock(image->prog, "choose.lz_deq");
  ASSERT_GT(image->prog.block(lz).absolute_exec_bound, 0u);
  image->prog.mutable_block(lz).absolute_exec_bound = 0;
  const AnalysisOptions opts;

  const WcetAnalyzer cold(*image, opts);
  for (EntryPoint e : kEntryPoints) {
    EXPECT_EQ(cold.Analyze(e).status, SolveStatus::kUnbounded);
  }
  try {
    cold.InterruptResponseBound();
    ADD_FAILURE() << "WcetAnalyzer summed unbounded entries";
  } catch (const std::runtime_error& e) {
    ExpectRefusal(e.what());
  }
  try {
    WcetOracle(*image, opts).InterruptResponseBound();
    ADD_FAILURE() << "WcetOracle summed unbounded entries";
  } catch (const std::runtime_error& e) {
    ExpectRefusal(e.what());
  }

  WcetService service(BuildKernelImage(KernelConfig::Before()), opts);
  ASSERT_GT(ParseBound(service.Handle(ResponseBoundRequest())), 0u);
  service.Handle(EditRequest(lz, EditField::kAbsoluteExecBound, 0));
  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t hits = CounterValue("wcet.memo.hit");
    const std::uint64_t misses = CounterValue("wcet.memo.miss");
    const std::vector<std::uint8_t> reply = service.Handle(ResponseBoundRequest());
    WireReader r(reply);
    EXPECT_EQ(r.U8(), 1) << "pass " << pass;  // error reply
    ExpectRefusal(r.Str());
    // Pass 0 re-derives every entry; pass 1 finds them all cached.
    EXPECT_EQ(CounterValue("wcet.memo.hit") - hits, pass == 0 ? 0u : 4u) << "pass " << pass;
    EXPECT_EQ(CounterValue("wcet.memo.miss") - misses, pass == 0 ? 4u : 0u) << "pass " << pass;
  }
}

TEST(WcetService, AnswersMatchDirectAnalyzer) {
  const AnalysisOptions opts;
  WcetService service(BuildKernelImage(KernelConfig::After()), opts);
  const auto image = BuildKernelImage(KernelConfig::After());
  const WcetAnalyzer direct(*image, opts);

  for (EntryPoint e : kEntryPoints) {
    const auto reply = WcetService::ParseAnalyzeReply(service.Handle(AnalyzeRequest(e)));
    const EntryResult want = direct.Analyze(e);
    EXPECT_EQ(reply.status, static_cast<std::uint8_t>(want.status));
    EXPECT_EQ(reply.wcet, want.wcet);
    EXPECT_EQ(reply.micros, want.micros);
    EXPECT_EQ(reply.nodes, want.nodes);
    EXPECT_EQ(reply.edges, want.edges);
    EXPECT_EQ(reply.trace_blocks, want.worst_trace.blocks.size());
  }
  EXPECT_EQ(ParseBound(service.Handle(ResponseBoundRequest())), direct.InterruptResponseBound());
}

TEST(WcetService, EditInvalidatesAndReanswers) {
  const AnalysisOptions opts;
  WcetService service(BuildKernelImage(KernelConfig::After()), opts);
  const Cycles baseline = ParseBound(service.Handle(ResponseBoundRequest()));

  // Mirror image carries the cold reference for the edited state.
  const auto mirror = BuildKernelImage(KernelConfig::After());
  Program& prog = mirror->prog;
  BlockId annot = kNoBlock;
  for (BlockId id = 0; id < prog.num_blocks() && annot == kNoBlock; ++id) {
    if (prog.block(id).loop_bound_annotation > 0) {
      annot = id;
    }
  }
  ASSERT_NE(annot, kNoBlock);
  const std::uint32_t orig = prog.block(annot).loop_bound_annotation;

  service.Handle(EditRequest(annot, EditField::kLoopBoundAnnotation, orig + 3));
  prog.mutable_block(annot).loop_bound_annotation = orig + 3;
  EXPECT_EQ(ParseBound(service.Handle(ResponseBoundRequest())),
            WcetAnalyzer(*mirror, opts).InterruptResponseBound());

  service.Handle(EditRequest(annot, EditField::kLoopBoundAnnotation, orig));
  EXPECT_EQ(ParseBound(service.Handle(ResponseBoundRequest())), baseline);
}

TEST(WcetService, MalformedRequestsAnswerErrorsNotCrashes) {
  WcetService service(BuildKernelImage(KernelConfig::After()), AnalysisOptions{});
  const std::vector<std::vector<std::uint8_t>> bad = {
      {},                      // empty
      {99},                    // unknown op
      {1},                     // analyze without entry byte
      {1, 200},                // analyze with bogus entry
      {4, 1, 2, 3},            // truncated edit
      {1, 0, 0xFF},            // trailing garbage
  };
  for (const auto& request : bad) {
    const auto reply = service.Handle(request);
    WireReader r(reply);
    EXPECT_EQ(r.U8(), 1) << "request should have been rejected";
    EXPECT_FALSE(r.Str().empty());
  }
  // Well-formed edits the service must refuse: an out-of-range block id, an
  // unknown field, and bounds that do not fit 32 bits. The first annotated
  // loop head carries 512, so 2^32 + 515 would otherwise be stored as 515.
  const Cycles baseline = ParseBound(service.Handle(ResponseBoundRequest()));
  const auto mirror = BuildKernelImage(KernelConfig::After());
  BlockId annot = kNoBlock;
  for (BlockId id = 0; id < mirror->prog.num_blocks() && annot == kNoBlock; ++id) {
    if (mirror->prog.block(id).loop_bound_annotation > 0) {
      annot = id;
    }
  }
  ASSERT_NE(annot, kNoBlock);
  ASSERT_EQ(mirror->prog.block(annot).loop_bound_annotation, 512u);
  const std::uint64_t wrapped = (std::uint64_t{1} << 32) + 515;
  for (const auto& request :
       {EditRequest(0xFFFFFF, EditField::kLoopBoundAnnotation, 1),
        EditRequest(annot, static_cast<EditField>(9), 1),
        EditRequest(annot, EditField::kLoopBoundAnnotation, wrapped),
        EditRequest(annot, EditField::kAbsoluteExecBound, wrapped)}) {
    const auto reply = service.Handle(request);
    WireReader r(reply);
    EXPECT_EQ(r.U8(), 1) << "edit should have been rejected";
    EXPECT_FALSE(r.Str().empty());
  }
  EXPECT_EQ(ParseBound(service.Handle(ResponseBoundRequest())), baseline);

  // The service still answers normal queries afterwards.
  const auto ok = WcetService::ParseAnalyzeReply(service.Handle(AnalyzeRequest(EntryPoint::kSyscall)));
  EXPECT_EQ(ok.status, static_cast<std::uint8_t>(SolveStatus::kOptimal));
}

TEST(WcetService, PingEchoesAndShutdownLatches) {
  WcetService service(BuildKernelImage(KernelConfig::After()), AnalysisOptions{});
  WireWriter ping;
  ping.U8(static_cast<std::uint8_t>(ServeOp::kPing));
  ping.U64(0xDEADBEEFCAFEF00DULL);
  const auto reply = service.Handle(ping.Take());
  WireReader r(reply);
  EXPECT_EQ(r.U8(), 0);
  EXPECT_EQ(r.U64(), 0xDEADBEEFCAFEF00DULL);

  EXPECT_FALSE(service.shutdown_requested());
  WireWriter down;
  down.U8(static_cast<std::uint8_t>(ServeOp::kShutdown));
  service.Handle(down.Take());
  EXPECT_TRUE(service.shutdown_requested());
}

// The TSan workload: concurrent queries against concurrent edit
// notifications must be race-free and every answer must equal one of the
// values the edit sequence can produce; after the writers drain, the answer
// must equal the cold bound of the final state.
TEST(WcetService, ConcurrentQueriesAndEditsAreRaceFree) {
  const AnalysisOptions opts;
  auto image = BuildKernelImage(KernelConfig::After());
  BlockId annot = kNoBlock;
  for (BlockId id = 0; id < image->prog.num_blocks() && annot == kNoBlock; ++id) {
    if (image->prog.block(id).loop_bound_annotation > 0) {
      annot = id;
    }
  }
  ASSERT_NE(annot, kNoBlock);
  const std::uint32_t orig = image->prog.block(annot).loop_bound_annotation;
  WcetService service(std::move(image), opts);

  constexpr int kQueryThreads = 6;
  constexpr int kQueriesPerThread = 40;
  constexpr int kEdits = 30;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(kQueryThreads);
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&service, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        const EntryPoint e = kEntryPoints[(t + q) % kEntryPoints.size()];
        const auto reply = service.Handle(AnalyzeRequest(e));
        WireReader r(reply);
        ASSERT_EQ(r.U8(), 0);
        service.Handle(ResponseBoundRequest());
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < kEdits; ++i) {
      // Bounce the annotation between orig and orig+2: every edit moves the
      // loop-stage digest and forces invalidation + warm re-solves under the
      // readers' feet.
      const std::uint32_t v = (i % 2 == 0) ? orig + 2 : orig;
      const auto reply = service.Handle(EditRequest(annot, EditField::kLoopBoundAnnotation, v));
      WireReader r(reply);
      ASSERT_EQ(r.U8(), 0);
    }
    stop.store(true);
  });
  for (std::thread& t : readers) {
    t.join();
  }
  writer.join();
  EXPECT_TRUE(stop.load());

  // Final state: kEdits is even, so the annotation is back at orig — the
  // settled answer must equal the cold bound of the pristine image.
  const auto mirror = BuildKernelImage(KernelConfig::After());
  EXPECT_EQ(ParseBound(service.Handle(ResponseBoundRequest())),
            WcetAnalyzer(*mirror, opts).InterruptResponseBound());
}

}  // namespace
}  // namespace pmk
