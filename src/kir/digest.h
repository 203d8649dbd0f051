// Content digests of laid-out kernel IR blocks.
//
// The WCET analyzer (src/wcet/analysis.h) keys every analysis
// stage on WHAT the blocks say, not on which analyzer object derived it.
// Each block gets four chained FNV-1a digests, one per field subset a
// pipeline stage consumes:
//
//   kStructure — CFG shape: successor edges, callee, return/path-end flags.
//                Invalidates graph construction (and everything below).
//   kLoops     — loop-control semantics: branch condition, register ops,
//                loop-input ranges, manual annotations, absolute bounds.
//                Invalidates the loop-bound stage.
//   kCost      — cycle-cost inputs: addresses, instruction counts, memory
//                accesses, raw cycles. Invalidates the block-cost + cache
//                fixpoint stage.
//   kIpet      — ILP-only extras: preemption-point flag and absolute
//                execution bounds. Invalidates only the constraint rows.
//
// A stage cache key is the chain of that stage's digests (plus all digests
// of the stages above it) over the entry point's transitive call closure —
// an edit to one block re-derives only the stages whose chained key moved.

#ifndef SRC_KIR_DIGEST_H_
#define SRC_KIR_DIGEST_H_

#include <cstdint>
#include <vector>

#include "src/base/digest.h"
#include "src/kir/program.h"

namespace pmk {

enum class DigestStage : std::uint8_t { kStructure = 0, kLoops, kCost, kIpet };
inline constexpr std::size_t kNumDigestStages = 4;

struct BlockStageDigests {
  std::uint64_t stage[kNumDigestStages] = {0, 0, 0, 0};
  std::uint64_t of(DigestStage s) const { return stage[static_cast<std::size_t>(s)]; }
};

// Digests one block of a laid-out program. Deterministic in the block's
// field values only (host-independent: every scalar is chained as
// little-endian bytes).
BlockStageDigests ComputeBlockDigests(const Program& prog, BlockId id);

// The transitive callee closure of |entry| (including |entry| itself), as a
// sorted function-id list. Static after Layout(): callee edges are
// structural and may not change post-layout.
std::vector<FuncId> CallClosure(const Program& prog, FuncId entry);

// Every block of the closure functions, in (function id, declaration order)
// — the canonical order for chaining per-block digests into a stage key.
std::vector<BlockId> ClosureBlocks(const Program& prog, const std::vector<FuncId>& closure);

// Per-block digest table for one laid-out program, refreshable block-by-
// block after post-layout metadata edits (Program::mutable_block).
class ProgramDigests {
 public:
  explicit ProgramDigests(const Program& prog);

  // Recomputes |id|'s digests after an edit. Returns true if any stage
  // digest actually changed.
  bool Refresh(BlockId id);

  const BlockStageDigests& of(BlockId id) const { return blocks_[id]; }

  // Chained digest of |s| over |blocks| in order. Seeding with a previous
  // chain composes multi-stage keys.
  std::uint64_t Chain(const std::vector<BlockId>& blocks, DigestStage s,
                      std::uint64_t seed = kFnv64Offset) const;

 private:
  const Program* prog_;
  std::vector<BlockStageDigests> blocks_;
};

}  // namespace pmk

#endif  // SRC_KIR_DIGEST_H_
