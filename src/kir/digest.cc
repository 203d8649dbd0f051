#include "src/kir/digest.h"

#include <algorithm>

#include "src/base/digest.h"

namespace pmk {

namespace {

std::uint64_t ChainU64(std::uint64_t h, std::uint64_t v) { return FnvU64(h, v); }

std::uint64_t DigestStructure(const Program& prog, const Block& b) {
  std::uint64_t h = kFnv64Offset;
  const Function& fn = prog.function(b.func);
  h = ChainU64(h, b.func);
  h = ChainU64(h, fn.entry == b.id ? 1 : 0);
  h = ChainU64(h, static_cast<std::uint64_t>(b.branch));
  h = ChainU64(h, b.succs.size());
  for (BlockId s : b.succs) {
    h = ChainU64(h, s);
  }
  h = ChainU64(h, b.callee);
  h = ChainU64(h, b.is_return ? 1 : 0);
  h = ChainU64(h, b.is_path_end ? 1 : 0);
  h = ChainU64(h, b.is_irq_handler_start ? 1 : 0);
  return h;
}

std::uint64_t DigestLoops(const Block& b) {
  std::uint64_t h = kFnv64Offset;
  h = ChainU64(h, static_cast<std::uint64_t>(b.cond.cmp));
  h = ChainU64(h, b.cond.lhs);
  h = ChainU64(h, b.cond.rhs_is_imm ? 1 : 0);
  h = ChainU64(h, b.cond.rhs_reg);
  h = ChainU64(h, static_cast<std::uint64_t>(b.cond.rhs_imm));
  h = ChainU64(h, b.cond.one_sided ? 1 : 0);
  h = ChainU64(h, b.reg_ops.size());
  for (const RegOp& op : b.reg_ops) {
    h = ChainU64(h, static_cast<std::uint64_t>(op.kind));
    h = ChainU64(h, op.dst);
    h = ChainU64(h, op.src);
    h = ChainU64(h, static_cast<std::uint64_t>(op.imm));
  }
  h = ChainU64(h, b.loop_inputs.size());
  for (const LoopInput& in : b.loop_inputs) {
    h = ChainU64(h, in.reg);
    h = ChainU64(h, static_cast<std::uint64_t>(in.min));
    h = ChainU64(h, static_cast<std::uint64_t>(in.max));
  }
  h = ChainU64(h, b.loop_bound_annotation);
  // Absolute bounds feed the loop-bound stage too (LoopBoundResult's
  // Source::kAbsolute path), not just the ILP rows.
  h = ChainU64(h, b.absolute_exec_bound);
  return h;
}

std::uint64_t DigestCost(const Program& prog, const Block& b) {
  std::uint64_t h = kFnv64Offset;
  h = ChainU64(h, b.address);
  h = ChainU64(h, b.instr_count);
  h = ChainU64(h, b.raw_cycles);
  h = ChainU64(h, b.max_dynamic_accesses);
  h = ChainU64(h, b.static_accesses.size());
  for (const StaticAccess& a : b.static_accesses) {
    h = ChainU64(h, prog.ResolveStatic(b, a));
    h = ChainU64(h, a.write ? 1 : 0);
  }
  return h;
}

std::uint64_t DigestIpet(const Block& b) {
  std::uint64_t h = kFnv64Offset;
  h = ChainU64(h, b.is_preemption_point ? 1 : 0);
  h = ChainU64(h, b.absolute_exec_bound);
  return h;
}

}  // namespace

BlockStageDigests ComputeBlockDigests(const Program& prog, BlockId id) {
  const Block& b = prog.block(id);
  BlockStageDigests d;
  d.stage[static_cast<std::size_t>(DigestStage::kStructure)] = DigestStructure(prog, b);
  d.stage[static_cast<std::size_t>(DigestStage::kLoops)] = DigestLoops(b);
  d.stage[static_cast<std::size_t>(DigestStage::kCost)] = DigestCost(prog, b);
  d.stage[static_cast<std::size_t>(DigestStage::kIpet)] = DigestIpet(b);
  return d;
}

std::vector<FuncId> CallClosure(const Program& prog, FuncId entry) {
  std::vector<FuncId> out;
  std::vector<bool> seen(prog.num_functions(), false);
  std::vector<FuncId> stack{entry};
  seen[entry] = true;
  while (!stack.empty()) {
    const FuncId f = stack.back();
    stack.pop_back();
    out.push_back(f);
    for (BlockId bid : prog.function(f).blocks) {
      const FuncId callee = prog.block(bid).callee;
      if (callee != kNoFunc && !seen[callee]) {
        seen[callee] = true;
        stack.push_back(callee);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BlockId> ClosureBlocks(const Program& prog, const std::vector<FuncId>& closure) {
  std::vector<BlockId> out;
  for (FuncId f : closure) {
    const Function& fn = prog.function(f);
    out.insert(out.end(), fn.blocks.begin(), fn.blocks.end());
  }
  return out;
}

ProgramDigests::ProgramDigests(const Program& prog) : prog_(&prog) {
  blocks_.reserve(prog.num_blocks());
  for (BlockId id = 0; id < prog.num_blocks(); ++id) {
    blocks_.push_back(ComputeBlockDigests(prog, id));
  }
}

bool ProgramDigests::Refresh(BlockId id) {
  const BlockStageDigests fresh = ComputeBlockDigests(*prog_, id);
  bool changed = false;
  for (std::size_t s = 0; s < kNumDigestStages; ++s) {
    changed = changed || fresh.stage[s] != blocks_[id].stage[s];
  }
  blocks_[id] = fresh;
  return changed;
}

std::uint64_t ProgramDigests::Chain(const std::vector<BlockId>& blocks, DigestStage s,
                                    std::uint64_t seed) const {
  std::uint64_t h = seed;
  for (BlockId id : blocks) {
    h = FnvU64(h, blocks_[id].of(s));
  }
  return h;
}

}  // namespace pmk
