// Compiled executor backend: threaded-code charge streams.
//
// Program::CompiledFor lowers every block, once per machine geometry, into a
// straight-lined "charge function": a flat stream of fixed-size fused ops in
// which everything that is constant for a (CacheConfig, policy) specialisation
// has been folded away at compile time —
//
//   * cache geometry: each I-fetch line and each resolved static access is
//     stored as its precomputed {L1 set, L1 tag, L2 set, L2 tag}, so the
//     runner performs no shift/mask address arithmetic at all;
//   * I-fetch line spans: one kILine op per consecutive line of the block's
//     instruction footprint;
//   * per-block base cost: instruction cycles + raw cycles + the load-use
//     stall of every static access, pre-summed into the terminating kEnd op;
//   * branch-predictor indices: branch_pc % btb_entries per block
//     (CompiledBlock::btb_index, consumed by Machine::BranchSlot).
//
// The runner (CompiledProgram::Run) executes a stream with computed-goto
// dispatch — one indirect jump per op, no loop bookkeeping. Event counts
// stay in locals until the kEnd op adds them to the machine's counters and
// advances the cycle counter once for the whole block (Machine::ChargeBlock);
// docs/performance.md walks through why every observable (timer assertion
// times, fault hooks, trace windows, counter reads, cache state) is
// bit-identical to the interpreter oracle's per-access charging
// (Executor::ChargeMode::kInterpreted). hotpath_equivalence_test enforces the
// identity.

#ifndef SRC_KIR_COMPILED_H_
#define SRC_KIR_COMPILED_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/hw/machine.h"
#include "src/kir/program.h"

namespace pmk {

// The specialisation key: every machine parameter folded into the streams.
// Parameters consulted at run time through the live Machine (l2_enabled,
// bpred.enabled, miss latencies) are deliberately absent — they may change
// between runs without invalidating a compiled program.
struct CompiledSpec {
  CacheConfig l1i;
  CacheConfig l1d;
  CacheConfig l2;
  Cycles load_use_stall = 0;
  std::uint32_t btb_entries = 0;

  static CompiledSpec Of(const MachineConfig& mc);
  bool Matches(const MachineConfig& mc) const;
};

// One fused op of a block's charge stream. Fixed size; the field meaning
// depends on kind (mem for kILine/kDAcc, imm for register ops, end for the
// stream terminator).
struct CompiledOp {
  enum class Kind : std::uint8_t {
    kILine,     // one I-cache line lookup (miss path folded for the L2 too)
    kDAcc,      // one resolved static data access
    kRegConst,  // regs[dst] = imm
    kRegAdd,    // regs[dst] += imm
    kRegMov,    // regs[dst] = regs[src]
    kEnd,       // count events, advance base_cost + accumulated penalties
  };

  Kind kind = Kind::kEnd;
  std::uint8_t dst = 0;  // register ops
  std::uint8_t src = 0;  // kRegMov
  union {
    struct {
      std::uint32_t l1_set;
      std::uint32_t l2_set;
      Addr l1_tag;
      Addr l2_tag;
    } mem;
    struct {
      std::int64_t imm;
    } reg;
    struct {
      std::uint32_t n_lines;     // kILine ops in this stream
      std::uint32_t n_accesses;  // kDAcc ops in this stream
      std::uint32_t n_instr;     // instruction count (counted at kEnd)
      Cycles base_cost;          // n_instr + raw_cycles + n_accesses * load_use_stall
    } end;
  } u = {};
};

// Per-block record: the block's charge stream, folded BTB index and the
// CFG facts the executor validates every transition against, in one
// contiguous record.
struct CompiledBlock {
  const CompiledOp* ops = nullptr;  // into CompiledProgram::ops_
  // The same stream with every kILine op removed. The executor runs this
  // instead of |ops| when its I-fetch memo proves all of the block's lines
  // are still resident (Cache::Gen unchanged since a fully-hitting run):
  // hits mutate no cache state, so skipping them is bit-identical, and the
  // shared kEnd op still counts the full n_lines with zero misses.
  const CompiledOp* hit_ops = nullptr;
  Addr branch_pc = 0;
  std::uint32_t btb_index = 0;  // branch_pc % btb_entries
  BlockEdges edges;
};

class CompiledProgram {
 public:
  // Lowers |p| (which must be laid out) for |mc|'s geometry. Every geometry
  // a Machine accepts lowers. Prefer Program::CompiledFor, which caches one
  // instance per distinct geometry.
  CompiledProgram(const Program& p, const MachineConfig& mc);

  bool Matches(const MachineConfig& mc) const { return spec_.Matches(mc); }
  const CompiledSpec& spec() const { return spec_; }
  const CompiledBlock& block(BlockId id) const { return blocks_[id]; }
  std::size_t num_blocks() const { return blocks_.size(); }

  // Executes one charge stream against |m|: cache lookups in declaration
  // order, then at kEnd the block's event counts and cycles in one
  // Machine::ChargeBlock. Register ops are interpreted into |regs|/|written|
  // exactly like the interpreter does. Returns the number of I-line misses
  // the stream took, so the executor can arm the hit_ops memo after a
  // fully-hitting run.
  static std::uint32_t Run(const CompiledOp* op, Machine& m,
                           std::array<std::int64_t, 16>& regs, std::uint16_t& written);

 private:
  CompiledSpec spec_;
  std::vector<CompiledBlock> blocks_;
  std::vector<CompiledOp> ops_;
  std::vector<CompiledOp> hit_ops_;  // kILine-free twins, see CompiledBlock::hit_ops
};

}  // namespace pmk

#endif  // SRC_KIR_COMPILED_H_
