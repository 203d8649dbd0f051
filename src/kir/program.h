// Kernel IR: the program ("kernel binary image").
//
// Owns all functions, blocks and data symbols; assigns text and data
// addresses at Layout() time the way a linker would. The compiled seL4 binary
// of the paper is 36 KiB of text; our image lands in the same ballpark so the
// I-cache behaviour (16 KiB L1, 128 KiB L2) is comparable.

#ifndef SRC_KIR_PROGRAM_H_
#define SRC_KIR_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/kir/block.h"

namespace pmk {

class CompiledProgram;
struct MachineConfig;

namespace detail {
struct CompiledCache;
std::shared_ptr<CompiledCache> NewCompiledCache();
}  // namespace detail

// The CFG facts of one block that the executor validates each transition
// out of it against (Executor::At): edges, call/return shape, dynamic-access
// budget and branch semantics. Program::EdgesOf gathers them from the Block;
// the compiled backend snapshots them per block (CompiledBlock::edges) and
// the interpreter oracle regathers them on every transition.
struct BlockEdges {
  std::uint32_t max_dynamic_accesses = 0;
  FuncId callee = kNoFunc;
  BlockId callee_entry = kNoBlock;  // entry block of |callee|
  BlockId succ0 = kNoBlock;         // fall-through / not-taken edge
  BlockId succ1 = kNoBlock;         // taken edge (two-successor blocks)
  std::uint8_t nsuccs = 0;
  BranchKind branch = BranchKind::kNone;
  bool is_return = false;
  bool is_preemption_point = false;
  BranchCond cond;
};

// One loop-input declaration of a function, flattened by Program::Layout()
// into the per-function table Executor::SetReg validates against — O(declared
// inputs) per injection instead of a walk over every block of the function.
// |block| is the declaring loop-header block, kept for the error message.
struct LoopInputDecl {
  std::uint8_t reg = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  BlockId block = kNoBlock;
};

class Program {
 public:
  // Text / data / stack layout constants (physical addresses on the modelled
  // 128 MiB board; kernel lives at the top like seL4's kernel window).
  static constexpr Addr kTextBase = 0x0010'0000;
  static constexpr Addr kDataBase = 0x0020'0000;
  static constexpr Addr kStackTop = 0x0030'0000;  // grows down

  FuncId AddFunction(std::string_view name, std::uint32_t frame_bytes = 32);
  SymId AddSymbol(std::string_view name, std::uint32_t size);

  // Adds a block to |func|; the first block added becomes the entry.
  BlockId AddBlock(FuncId func, Block block);

  // Adds the intra-function edge from -> to. Edge order defines the
  // fall-through (first) vs. taken (second) convention.
  void AddEdge(BlockId from, BlockId to);

  // Assigns addresses to blocks (sequential within each function, functions
  // laid out in id order), to data symbols, and per-function frame addresses
  // from call-graph depth. Must be called once after construction; validates
  // structural well-formedness (entry exists, successors consistent with
  // branch kinds, no recursion).
  void Layout();
  bool laid_out() const { return laid_out_; }

  const Block& block(BlockId id) const { return blocks_[id]; }
  Block& mutable_block(BlockId id) {
    // Post-layout mutation (a single-threaded test/bench affordance) may add
    // or change loop-input declarations; mark the flattened table for a lazy
    // rebuild so loop_inputs_of() stays in sync with the Block structs.
    if (laid_out_) {
      loop_inputs_stale_ = true;
    }
    return blocks_[id];
  }

  // |id|'s CFG facts, gathered from the Block and its callee's Function.
  BlockEdges EdgesOf(BlockId id) const;
  // All loop-input declarations of |f|, in block order (valid after Layout()).
  const std::vector<LoopInputDecl>& loop_inputs_of(FuncId f) const {
    if (loop_inputs_stale_) {
      RebuildLoopInputs();
    }
    return func_loop_inputs_[f];
  }
  const Function& function(FuncId id) const { return funcs_[id]; }
  const DataSymbol& symbol(SymId id) const { return syms_[id]; }

  std::size_t num_blocks() const { return blocks_.size(); }
  std::size_t num_functions() const { return funcs_.size(); }
  std::size_t num_symbols() const { return syms_.size(); }

  // Total text size in bytes (valid after Layout()).
  std::uint64_t text_bytes() const { return text_bytes_; }

  // Returns the compiled-backend specialisation for |mc|'s machine geometry
  // (src/kir/compiled.h), lowering the program on first use and caching one
  // CompiledProgram per distinct geometry for the image's lifetime.
  // Thread-safe: Programs are shared across cloned Systems and campaign
  // worker threads; lookups are lock-free, builders serialise on a mutex.
  const CompiledProgram* CompiledFor(const MachineConfig& mc) const;

  // Resolves a static access to its absolute address.
  Addr ResolveStatic(const Block& b, const StaticAccess& a) const;

 private:
  std::uint32_t CallDepth(FuncId f, std::vector<int>& state) const;
  // Reflattens func_loop_inputs_ from the Block structs (Layout(), and the
  // lazy refresh after a post-layout mutable_block()). Mutation after layout
  // is single-threaded by contract, so the lazy rebuild never races the
  // shared-Program campaign readers — they only ever see a clean flag.
  void RebuildLoopInputs() const;

  std::vector<Function> funcs_;
  std::vector<Block> blocks_;
  std::vector<DataSymbol> syms_;
  // Flattened loop-input declarations, indexed by FuncId; rebuilt lazily when
  // a post-layout mutable_block() may have changed the declarations.
  mutable std::vector<std::vector<LoopInputDecl>> func_loop_inputs_;
  mutable bool loop_inputs_stale_ = false;
  std::uint64_t text_bytes_ = 0;
  bool laid_out_ = false;
  // Compiled-backend specialisations, created (empty) at Layout() time so the
  // pointer itself is immutable once the Program is shared across threads;
  // entries are added lazily by CompiledFor (defined in compiled.cc).
  mutable std::shared_ptr<detail::CompiledCache> compiled_;
};

}  // namespace pmk

#endif  // SRC_KIR_PROGRAM_H_
