// Kernel IR: basic-block descriptors.
//
// The paper analyzes the compiled seL4 binary: basic blocks with addresses,
// instruction counts, memory accesses and branches. We mirror that with a
// synthetic but structurally faithful "binary": every kernel code path in
// src/kernel is expressed as a graph of Block descriptors. The same
// descriptors are (a) executed against the machine model to charge cycles and
// (b) fed to the static WCET analysis. Tests verify that every dynamic
// execution is a path of the declared control-flow graph, which is the
// correspondence the paper gets for free by analyzing the real binary.

#ifndef SRC_KIR_BLOCK_H_
#define SRC_KIR_BLOCK_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/hw/branch_predictor.h"
#include "src/hw/cache.h"

namespace pmk {

using BlockId = std::uint32_t;
using FuncId = std::uint32_t;
using SymId = std::uint32_t;

inline constexpr BlockId kNoBlock = std::numeric_limits<BlockId>::max();
inline constexpr FuncId kNoFunc = std::numeric_limits<FuncId>::max();

// A memory access whose address is statically known (stack slot or global
// data symbol). Dynamic accesses (heap objects, user frames) are performed by
// the kernel code via Executor::Touch and summarized per block by
// |max_dynamic_accesses|.
struct StaticAccess {
  enum class Region : std::uint8_t { kStack, kGlobal };
  Region region = Region::kStack;
  SymId symbol = 0;        // for kGlobal: data symbol id
  std::uint32_t offset = 0;  // byte offset within frame or symbol
  bool write = false;
};

// A static access with its address already resolved (frame or symbol base
// plus offset folded in at Program::Layout() time). The compiled executor
// backend lowers these into its charge streams.
struct PreparedAccess {
  Addr addr = 0;
  bool write = false;
};

// A tiny register-machine operation. Blocks participating in counter loops
// carry these so the loop-bound analysis (paper Section 5.3) can slice out
// the loop-control computation and bound the iteration count automatically.
// The executor also interprets them and cross-checks predicted branch
// directions against the directions the real C++ code takes.
struct RegOp {
  enum class Kind : std::uint8_t { kConst, kAdd, kMovReg };
  Kind kind = Kind::kConst;
  std::uint8_t dst = 0;
  std::uint8_t src = 0;    // for kMovReg
  std::int64_t imm = 0;    // for kConst (value) / kAdd (addend)
};

// Condition of a conditional branch, over the register machine.
struct BranchCond {
  enum class Cmp : std::uint8_t { kNone, kLt, kGe, kEq, kNe };
  Cmp cmp = Cmp::kNone;
  std::uint8_t lhs = 0;
  bool rhs_is_imm = true;
  std::uint8_t rhs_reg = 0;
  std::int64_t rhs_imm = 0;

  // One-sided ("guard") semantics: the condition is necessary for the taken
  // edge but the not-taken edge may be followed even when it holds (e.g. a
  // search loop that can exit early). Loop bounds derived from a one-sided
  // guard are still sound upper bounds.
  bool one_sided = false;

  bool HasSemantics() const { return cmp != Cmp::kNone; }
};

// Declares that register |reg| is an input of the loop headed at this block,
// with a guaranteed value range. The loop-bound analysis maximizes the
// iteration count over the declared range; the executor validates every
// runtime value the kernel injects (Executor::SetReg) against it.
struct LoopInput {
  std::uint8_t reg = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

struct Block {
  BlockId id = kNoBlock;
  FuncId func = kNoFunc;
  std::string name;

  std::uint32_t instr_count = 1;
  std::vector<StaticAccess> static_accesses;
  std::uint32_t max_dynamic_accesses = 0;

  BranchKind branch = BranchKind::kNone;
  BranchCond cond;               // optional semantics for kConditional
  std::vector<RegOp> reg_ops;    // executed before the branch condition

  // Intra-function successors. Convention: succs[0] is the fall-through /
  // not-taken edge, succs[1] (if present) is the taken edge.
  std::vector<BlockId> succs;

  // If this block ends in a call, the callee; control resumes at succs[0].
  FuncId callee = kNoFunc;

  bool is_return = false;  // function exit block (branch kind kReturn)

  // Manual loop-bound annotation for loops the automatic analysis cannot
  // bound (0 = none). Applied to the loop headed at this block.
  std::uint32_t loop_bound_annotation = 0;

  // Input-range declarations for the loop headed at this block.
  std::vector<LoopInput> loop_inputs;

  // Absolute execution-count bound across the whole path: the paper's
  // "a executes n times" manual ILP constraint form (Section 5.2). 0 = none.
  std::uint32_t absolute_exec_bound = 0;

  // Preemption point (Section 2): a conditional block that reads the pending
  // interrupt state; succs[0] continues the operation, succs[1] is the
  // preempted exit. Interrupt-latency analysis forbids continuing past one
  // (an interrupt is assumed pending for the whole analyzed path).
  bool is_preemption_point = false;

  // Terminates an analyzed path: either control returns to the user with
  // interrupts re-enabled, or the kernel's interrupt handler starts (the
  // paper's path-end conditions (a) and (b) in Section 5.2).
  bool is_path_end = false;

  // First block of the kernel's interrupt handler: interrupt response time is
  // measured from IRQ assertion to this block's execution.
  bool is_irq_handler_start = false;

  // Extra non-memory cycles (TLB ops, coprocessor writes) per execution.
  std::uint32_t raw_cycles = 0;

  // Assigned by Program::Layout().
  Addr address = 0;

  // --- Precomputed execution data, assigned by Program::Layout(). ---
  // Blocks must not be structurally mutated (instr_count, static_accesses,
  // addresses) after Layout(); post-layout mutation of analysis-only metadata
  // (loop bounds, path flags) is fine. Only the compiled executor backend
  // (Program::CompiledFor) reads these; the interpreter oracle recomputes
  // them from the fields above on every execution, so the two cross-check.

  // Address of the block's final (branching) instruction.
  Addr branch_pc = 0;

  // static_accesses with absolute addresses resolved (same order).
  std::vector<PreparedAccess> prepared_accesses;
};

struct Function {
  FuncId id = kNoFunc;
  std::string name;
  BlockId entry = kNoBlock;
  std::vector<BlockId> blocks;
  std::uint32_t frame_bytes = 32;
  // Assigned by Program::Layout(): fixed frame address (single kernel stack;
  // no recursion, so a per-function static frame address is sound).
  Addr frame_addr = 0;
};

struct DataSymbol {
  SymId id = 0;
  std::string name;
  std::uint32_t size = 4;
  Addr address = 0;  // assigned by Program::Layout()
};

}  // namespace pmk

#endif  // SRC_KIR_BLOCK_H_
