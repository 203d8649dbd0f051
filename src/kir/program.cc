#include "src/kir/program.h"

#include <cassert>
#include <stdexcept>

namespace pmk {

namespace {
constexpr std::uint32_t kInstrBytes = 4;

Addr AlignUp(Addr a, Addr align) { return (a + align - 1) & ~(align - 1); }
}  // namespace

FuncId Program::AddFunction(std::string_view name, std::uint32_t frame_bytes) {
  assert(!laid_out_);
  Function f;
  f.id = static_cast<FuncId>(funcs_.size());
  f.name = std::string(name);
  f.frame_bytes = frame_bytes;
  funcs_.push_back(std::move(f));
  return funcs_.back().id;
}

SymId Program::AddSymbol(std::string_view name, std::uint32_t size) {
  assert(!laid_out_);
  DataSymbol s;
  s.id = static_cast<SymId>(syms_.size());
  s.name = std::string(name);
  s.size = size;
  syms_.push_back(std::move(s));
  return syms_.back().id;
}

BlockId Program::AddBlock(FuncId func, Block block) {
  assert(!laid_out_);
  assert(func < funcs_.size());
  block.id = static_cast<BlockId>(blocks_.size());
  block.func = func;
  if (funcs_[func].blocks.empty()) {
    funcs_[func].entry = block.id;
  }
  funcs_[func].blocks.push_back(block.id);
  blocks_.push_back(std::move(block));
  return blocks_.back().id;
}

void Program::AddEdge(BlockId from, BlockId to) {
  assert(!laid_out_);
  assert(from < blocks_.size() && to < blocks_.size());
  assert(blocks_[from].func == blocks_[to].func && "edges are intra-function");
  blocks_[from].succs.push_back(to);
}

std::uint32_t Program::CallDepth(FuncId f, std::vector<int>& state) const {
  // state: -1 unvisited, -2 in progress, >=0 computed depth.
  if (state[f] == -2) {
    throw std::logic_error("recursion in kernel call graph: " + funcs_[f].name);
  }
  if (state[f] >= 0) {
    return static_cast<std::uint32_t>(state[f]);
  }
  state[f] = -2;
  std::uint32_t depth = 0;
  for (BlockId b : funcs_[f].blocks) {
    if (blocks_[b].callee != kNoFunc) {
      depth = std::max(depth, CallDepth(blocks_[b].callee, state) + 1);
    }
  }
  state[f] = static_cast<int>(depth);
  return depth;
}

void Program::Layout() {
  assert(!laid_out_);
  // Validate structure and assign text addresses.
  Addr pc = kTextBase;
  for (Function& f : funcs_) {
    if (f.blocks.empty()) {
      throw std::logic_error("function with no blocks: " + f.name);
    }
    for (BlockId bid : f.blocks) {
      Block& b = blocks_[bid];
      if (b.instr_count == 0) {
        throw std::logic_error("empty block: " + b.name);
      }
      if (b.is_return) {
        if (!b.succs.empty()) {
          throw std::logic_error("return block with successors: " + b.name);
        }
        b.branch = BranchKind::kReturn;
      } else if (b.succs.empty()) {
        throw std::logic_error("non-return block with no successors: " + b.name);
      } else if (b.succs.size() == 1) {
        if (b.branch == BranchKind::kConditional) {
          throw std::logic_error("conditional block with one successor: " + b.name);
        }
      } else if (b.succs.size() == 2) {
        b.branch = BranchKind::kConditional;
      } else {
        throw std::logic_error("block with >2 successors: " + b.name);
      }
      if (b.callee != kNoFunc && b.succs.size() != 1) {
        throw std::logic_error("call block must have exactly one successor: " + b.name);
      }
      b.address = pc;
      pc += static_cast<Addr>(b.instr_count) * kInstrBytes;
      // Keep blocks from straddling a function boundary unrealistically;
      // align each block start to 4 bytes (already true).
    }
    pc = AlignUp(pc, 32);  // function alignment, one cache line
  }
  text_bytes_ = pc - kTextBase;

  // Data symbols.
  Addr dp = kDataBase;
  for (DataSymbol& s : syms_) {
    dp = AlignUp(dp, 8);
    s.address = dp;
    dp += s.size;
  }

  // Frame addresses from call-graph depth: deeper callees get lower frames,
  // modelling the single kernel stack growing down. CallDepth computes the
  // height above leaf functions; entry-point functions (maximal height) sit
  // at the top of the stack.
  std::vector<int> state(funcs_.size(), -1);
  std::uint32_t max_frame = 0;
  std::uint32_t max_height = 0;
  for (const Function& f : funcs_) {
    max_frame = std::max(max_frame, f.frame_bytes);
    max_height = std::max(max_height, CallDepth(f.id, state));
  }
  for (Function& f : funcs_) {
    const std::uint32_t height = CallDepth(f.id, state);
    f.frame_addr =
        kStackTop - static_cast<Addr>(max_height - height + 1) * AlignUp(max_frame, 32);
  }
  laid_out_ = true;

  // Precompute the compiled backend's per-block inputs now that all
  // addresses are final: the branch PC and the resolved addresses of all
  // static accesses.
  for (Block& b : blocks_) {
    b.branch_pc = b.address + (static_cast<Addr>(b.instr_count) - 1) * kInstrBytes;
    b.prepared_accesses.clear();
    b.prepared_accesses.reserve(b.static_accesses.size());
    for (const StaticAccess& a : b.static_accesses) {
      b.prepared_accesses.push_back({ResolveStatic(b, a), a.write});
    }
  }

  // Flatten loop-input declarations per function for O(declared inputs)
  // SetReg validation (see LoopInputDecl in program.h).
  RebuildLoopInputs();

  compiled_ = detail::NewCompiledCache();
}

void Program::RebuildLoopInputs() const {
  func_loop_inputs_.assign(funcs_.size(), {});
  for (const Function& f : funcs_) {
    for (BlockId bid : f.blocks) {
      for (const LoopInput& in : blocks_[bid].loop_inputs) {
        func_loop_inputs_[f.id].push_back({in.reg, in.min, in.max, bid});
      }
    }
  }
  loop_inputs_stale_ = false;
}

BlockEdges Program::EdgesOf(BlockId id) const {
  const Block& b = blocks_[id];
  BlockEdges e;
  e.max_dynamic_accesses = b.max_dynamic_accesses;
  e.callee = b.callee;
  e.callee_entry = b.callee != kNoFunc ? funcs_[b.callee].entry : kNoBlock;
  e.succ0 = b.succs.empty() ? kNoBlock : b.succs[0];
  e.succ1 = b.succs.size() == 2 ? b.succs[1] : kNoBlock;
  e.nsuccs = static_cast<std::uint8_t>(b.succs.size());
  e.branch = b.branch;
  e.is_return = b.is_return;
  e.is_preemption_point = b.is_preemption_point;
  e.cond = b.cond;
  return e;
}

Addr Program::ResolveStatic(const Block& b, const StaticAccess& a) const {
  assert(laid_out_);
  if (a.region == StaticAccess::Region::kStack) {
    return funcs_[b.func].frame_addr + a.offset;
  }
  assert(a.symbol < syms_.size());
  assert(a.offset < syms_[a.symbol].size);
  return syms_[a.symbol].address + a.offset;
}

}  // namespace pmk
