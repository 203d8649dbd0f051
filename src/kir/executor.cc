#include "src/kir/executor.h"

#include <cassert>
#include <optional>

#include "src/kir/compiled.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_sink.h"

namespace pmk {

namespace {

constexpr Addr kInstrBytes = 4;

std::int64_t EvalCmpSide(const std::array<std::int64_t, Executor::kNumRegs>& regs,
                         const BranchCond& c) {
  return c.rhs_is_imm ? c.rhs_imm : regs[c.rhs_reg];
}

bool EvalCond(const std::array<std::int64_t, Executor::kNumRegs>& regs, const BranchCond& c) {
  const std::int64_t lhs = regs[c.lhs];
  const std::int64_t rhs = EvalCmpSide(regs, c);
  switch (c.cmp) {
    case BranchCond::Cmp::kLt:
      return lhs < rhs;
    case BranchCond::Cmp::kGe:
      return lhs >= rhs;
    case BranchCond::Cmp::kEq:
      return lhs == rhs;
    case BranchCond::Cmp::kNe:
      return lhs != rhs;
    case BranchCond::Cmp::kNone:
      break;
  }
  return false;
}

std::uint16_t CondRegMask(const BranchCond& c) {
  std::uint16_t m = static_cast<std::uint16_t>(1u << c.lhs);
  if (!c.rhs_is_imm) {
    m |= static_cast<std::uint16_t>(1u << c.rhs_reg);
  }
  return m;
}

}  // namespace

Executor::Executor(const Program* program, Machine* machine)
    : program_(program),
      machine_(machine),
      compiled_(program->CompiledFor(machine->config())),
      iline_gen_(compiled_->num_blocks(), 0) {
  assert(program_->laid_out());
  CountChargeMode(charge_mode_);
}

void Executor::CountChargeMode(ChargeMode mode) {
  // One static handle per mode, registered on first use so a mode never
  // selected exports no row: labeled-counter registration is idempotent and
  // the handles live for the process (metrics.h).
  if (mode == ChargeMode::kCompiled) {
    static const obs::Counter c(
        obs::ObsLabeled("sim.exec.charge_mode", "mode", "compiled").c_str());
    c.Inc();
  } else {
    static const obs::Counter c(
        obs::ObsLabeled("sim.exec.charge_mode", "mode", "interpreted").c_str());
    c.Inc();
  }
}

void Executor::FlushBlocksCharged() {
  static const obs::Counter blocks_charged("sim.exec.blocks_charged");
  if (blocks_pending_ != 0) {
    blocks_charged.Inc(blocks_pending_);
    blocks_pending_ = 0;
  }
}

void Executor::set_charge_mode(ChargeMode mode) {
  charge_mode_ = mode;
  cur_cblock_ = cur_ != kNoBlock ? &compiled_->block(cur_) : nullptr;
  CountChargeMode(mode);
}

void Executor::set_trace_sink(TraceSink* sink) {
  sink_ = sink;
  RefreshPlainPath();
  if (sink_ != nullptr && cur_ != kNoBlock) {
    // Attached inside a block: its window starts here.
    OpenBlockWindow();
  }
}

void Executor::Fail(const std::string& msg) const {
  std::string ctx = msg;
  if (cur_ != kNoBlock) {
    ctx += " (current block: " + program_->block(cur_).name + ")";
  }
  throw ExecError(ctx);
}

void Executor::Begin(FuncId entry_func) {
  if (in_path_) {
    Fail("Begin() while already in a kernel path");
  }
  in_path_ = true;
  entry_func_ = entry_func;
  cur_ = kNoBlock;
  cur_cblock_ = nullptr;
  dyn_count_ = 0;
  call_stack_.clear();
  regs_.fill(0);
  written_ = 0;
  if (recording_) {
    trace_.Clear();
    trace_.start_cycle = machine_->Now();
  }
  if (sink_ != nullptr) {
    TraceEvent e;
    e.kind = TraceEventKind::kKernelEntry;
    e.cycle = machine_->Now();
    e.name = program_->function(entry_func).name.c_str();
    e.id = entry_func;
    sink_->OnEvent(e);
  }
}

void Executor::OpenBlockWindow() {
  blk_start_cycle_ = machine_->Now();
  blk_start_imiss_ = machine_->counters().l1i_misses;
  blk_start_dmiss_ = machine_->counters().l1d_misses;
}

void Executor::CloseBlockWindow() {
  const Block& b = program_->block(cur_);
  TraceEvent e;
  e.kind = TraceEventKind::kBlockCost;
  e.cycle = machine_->Now();
  e.name = b.name.c_str();
  e.id = cur_;
  e.arg0 = machine_->Now() - blk_start_cycle_;
  e.arg1 = machine_->counters().l1i_misses - blk_start_imiss_;
  e.arg2 = machine_->counters().l1d_misses - blk_start_dmiss_;
  sink_->OnEvent(e);
}

Executor::EdgeBranch Executor::TakeEdge(const BlockEdges* p, BlockId bid) {
  if (p == nullptr) {
    const BlockId expect = program_->function(entry_func_).entry;
    if (bid != expect) {
      Fail("path must start at entry block " + program_->block(expect).name + ", got " +
           program_->block(bid).name);
    }
    return {};
  }
  if (dyn_count_ > p->max_dynamic_accesses) {
    FailDynBudget();
  }
  dyn_count_ = 0;
  if (p->callee != kNoFunc) {
    // Call edge.
    if (bid != p->callee_entry) {
      Fail("call block " + program_->block(cur_).name + " must enter " +
           program_->function(p->callee).name + ", got " + program_->block(bid).name);
    }
    Frame f;
    f.resume = p->succ0;
    f.regs = regs_;
    f.written = written_;
    call_stack_.push_back(f);
    written_ = 0;  // callee starts with no semantically-known registers
    return {BranchKind::kDirect, true};
  }
  if (p->is_return) {
    // Return edge.
    if (call_stack_.empty()) {
      Fail("return from " + program_->block(cur_).name +
           " with empty call stack; expected End()");
    }
    const Frame f = call_stack_.back();
    call_stack_.pop_back();
    if (bid != f.resume) {
      Fail("return to " + program_->block(bid).name + " but resume block is " +
           program_->block(f.resume).name);
    }
    regs_ = f.regs;
    written_ = f.written;
    return {BranchKind::kReturn, true};
  }
  // Intra-function edge. succ1 is kNoBlock for single-successor blocks, which
  // no real block id equals, so two compares cover both arities.
  if (bid != p->succ0 && bid != p->succ1) {
    Fail("edge " + program_->block(cur_).name + " -> " + program_->block(bid).name +
         " not in CFG");
  }
  if (p->nsuccs == 2) {
    const bool taken = (bid == p->succ1);
    // Cross-check semantic conditions where declared and where all involved
    // registers hold known values.
    if (p->cond.HasSemantics() && (written_ & CondRegMask(p->cond)) == CondRegMask(p->cond)) {
      const bool predicted = EvalCond(regs_, p->cond);
      if (p->cond.one_sided) {
        // Guard semantics: the condition must hold whenever the taken edge
        // is followed; early exit on the not-taken edge is allowed.
        if (taken && !predicted) {
          Fail("guard condition of " + program_->block(cur_).name + " violated on taken edge");
        }
      } else if (predicted != taken) {
        Fail("semantic branch condition of " + program_->block(cur_).name +
             " disagrees with executed direction");
      }
    }
    return {BranchKind::kConditional, taken};
  }
  if (p->branch == BranchKind::kDirect) {
    return {BranchKind::kDirect, true};
  }
  return {};  // single-successor fall-through: no branch cost
}

void Executor::Enter(BlockId bid, const BlockEdges* prev, bool is_preemption_point) {
  if (plain_path_) {
    cur_ = bid;
    blocks_pending_++;
    return;
  }
  if (sink_ != nullptr && prev != nullptr) {
    // The branch terminating the previous block has already been charged, so
    // the closing window attributes it (plus any Touch costs) to that block.
    CloseBlockWindow();
    if (prev->is_preemption_point && prev->nsuccs == 2 && bid == prev->succ1) {
      TraceEvent e;
      e.kind = TraceEventKind::kPreemptPointTaken;
      e.cycle = machine_->Now();
      e.name = program_->block(cur_).name.c_str();
      e.id = cur_;
      sink_->OnEvent(e);
    }
  }
  cur_ = bid;
  if (recording_) {
    trace_.blocks.push_back(bid);
  }
  if (sink_ != nullptr) {
    if (is_preemption_point) {
      TraceEvent e;
      e.kind = TraceEventKind::kPreemptPointHit;
      e.cycle = machine_->Now();
      e.name = program_->block(bid).name.c_str();
      e.id = bid;
      sink_->OnEvent(e);
    }
    OpenBlockWindow();
  }
  if (fault_hook_ != nullptr) {
    fault_hook_->OnBlock(bid, is_preemption_point);
  }
  blocks_pending_++;
}

void Executor::AtInterpreted(BlockId bid) {
  // The oracle reads only the Block descriptors and recomputes everything the
  // compiled backend folds at CompiledFor/Layout() time, so a mis-lowered
  // stream, a stale I-line memo or a miscounted batch shows up as a
  // divergence between the two modes.
  if (!in_path_) {
    Fail("At() outside a kernel path");
  }
  const Block& b = program_->block(bid);
  std::optional<BlockEdges> prev;
  if (cur_ != kNoBlock) {
    prev = program_->EdgesOf(cur_);
  }
  const EdgeBranch br = TakeEdge(prev ? &*prev : nullptr, bid);
  if (br.kind != BranchKind::kNone) {
    const Block& p = program_->block(cur_);
    machine_->Branch(p.address + (static_cast<Addr>(p.instr_count) - 1) * kInstrBytes, br.kind,
                     br.taken);
  }
  Enter(bid, prev ? &*prev : nullptr, b.is_preemption_point);

  machine_->InstrFetch(b.address, b.instr_count);
  for (const StaticAccess& a : b.static_accesses) {
    machine_->DataAccess(program_->ResolveStatic(b, a), a.write);
  }
  if (b.raw_cycles != 0) {
    machine_->RawCycles(b.raw_cycles);
  }
  for (const RegOp& op : b.reg_ops) {
    switch (op.kind) {
      case RegOp::Kind::kConst:
        regs_[op.dst] = op.imm;
        break;
      case RegOp::Kind::kAdd:
        regs_[op.dst] += op.imm;
        break;
      case RegOp::Kind::kMovReg:
        regs_[op.dst] = regs_[op.src];
        break;
    }
    written_ |= static_cast<std::uint16_t>(1u << op.dst);
  }
}

// Defined here rather than in compiled.cc so the dispatch loop inlines into
// AtCompiled, its only caller: the per-block call and the l1i/l1d/l2
// reference setup fold into the surrounding frame.
std::uint32_t CompiledProgram::Run(const CompiledOp* op, Machine& m,
                                   std::array<std::int64_t, 16>& regs, std::uint16_t& written) {
  Cache& l1i = m.l1i();
  Cache& l1d = m.l1d();
  Cache& l2 = m.l2();
  const MemoryConfig& mem = m.config().memory;
  const bool l2on = m.l2_enabled();
  Cycles penalties = 0;
  std::uint32_t imiss = 0;
  std::uint32_t dmiss = 0;
  std::uint32_t l2acc = 0;
  std::uint32_t l2miss = 0;
  std::uint64_t stall = 0;

  // The L1-miss path, with the L2 set/tag folded into the op. Mirrors
  // Machine::MissPenalty with the counts kept local until kEnd.
  const auto miss_penalty = [&](const CompiledOp& o) -> Cycles {
    Cycles p;
    if (!l2on) {
      p = mem.mem_latency_l2_off;
    } else {
      ++l2acc;
      if (l2.AccessLine(o.u.mem.l2_set, o.u.mem.l2_tag)) {
        p = mem.l2_hit_latency;
      } else {
        ++l2miss;
        p = mem.mem_latency_l2_on;
      }
    }
    stall += p;
    return p;
  };
  // Computed-goto dispatch (labels as values, which GCC and Clang, the
  // supported compilers, provide): each op's handler jumps straight to the
  // next op's label. Label table order must match CompiledOp::Kind
  // declaration order.
  static_assert(static_cast<int>(CompiledOp::Kind::kILine) == 0);
  static_assert(static_cast<int>(CompiledOp::Kind::kEnd) == 5);
  static const void* const kDispatch[] = {&&op_iline, &&op_dacc,  &&op_rconst,
                                          &&op_radd,  &&op_rmov,  &&op_end};
#define PMK_NEXT() goto* kDispatch[static_cast<std::uint8_t>(op->kind)]
  PMK_NEXT();
op_iline:
  if (!l1i.AccessLine(op->u.mem.l1_set, op->u.mem.l1_tag)) {
    ++imiss;
    penalties += miss_penalty(*op);
  }
  ++op;
  PMK_NEXT();
op_dacc:
  if (!l1d.AccessLine(op->u.mem.l1_set, op->u.mem.l1_tag)) {
    ++dmiss;
    penalties += miss_penalty(*op);
  }
  ++op;
  PMK_NEXT();
op_rconst:
  regs[op->dst] = op->u.reg.imm;
  written |= static_cast<std::uint16_t>(1u << op->dst);
  ++op;
  PMK_NEXT();
op_radd:
  regs[op->dst] += op->u.reg.imm;
  written |= static_cast<std::uint16_t>(1u << op->dst);
  ++op;
  PMK_NEXT();
op_rmov:
  regs[op->dst] = regs[op->src];
  written |= static_cast<std::uint16_t>(1u << op->dst);
  ++op;
  PMK_NEXT();
op_end:
  m.ChargeBlock({.instructions = op->u.end.n_instr,
                 .l1i_accesses = op->u.end.n_lines,
                 .l1i_misses = imiss,
                 .l1d_accesses = op->u.end.n_accesses,
                 .l1d_misses = dmiss,
                 .l2_accesses = l2acc,
                 .l2_misses = l2miss,
                 .mem_stall_cycles = stall},
                op->u.end.base_cost + penalties);
  return imiss;
#undef PMK_NEXT
}

void Executor::AtCompiled(BlockId bid) {
  if (!in_path_) {
    Fail("At() outside a kernel path");
  }
  const CompiledBlock& cb = compiled_->block(bid);
  const CompiledBlock* const prev = cur_ != kNoBlock ? cur_cblock_ : nullptr;
  const EdgeBranch br = TakeEdge(prev != nullptr ? &prev->edges : nullptr, bid);
  if (br.kind != BranchKind::kNone) {
    machine_->BranchSlot(prev->btb_index, prev->branch_pc, br.kind, br.taken);
  }
  Enter(bid, prev != nullptr ? &prev->edges : nullptr, cb.edges.is_preemption_point);
  cur_cblock_ = &cb;
  // I-fetch memo: if this block's I-lines all hit the last time it ran and
  // the L1I's line state has not changed since (Cache::Gen — hits mutate
  // nothing, so only installs elsewhere can evict them), skip the I-line
  // probes entirely via the kILine-free twin stream. Steady-state loop
  // bodies reduce to their data accesses and the shared kEnd charge.
  const std::uint64_t l1i_gen = machine_->l1i().Gen();
  if (iline_gen_[bid] == l1i_gen) {
    const CompiledOp* h = cb.hit_ops;
    if (h->kind == CompiledOp::Kind::kEnd) {
      // Common fully-memoised shape: a block with no static accesses and no
      // register ops (data touched via dynamic Touch instead) reduces to its
      // kEnd op. n_accesses is zero by construction (kDAcc ops would
      // otherwise precede the kEnd), so the whole charge is two counter
      // adds and the cycle advance.
      machine_->ChargeBlock({.instructions = h->u.end.n_instr, .l1i_accesses = h->u.end.n_lines},
                            h->u.end.base_cost);
    } else {
      CompiledProgram::Run(h, *machine_, regs_, written_);
    }
  } else if (CompiledProgram::Run(cb.ops, *machine_, regs_, written_) == 0) {
    // Zero I-misses: the run itself did not touch L1I line state, so the
    // generation read above is still current.
    iline_gen_[bid] = l1i_gen;
  }
}

void Executor::FailTouchOutsideBlock() const { Fail("Touch() outside a block"); }

void Executor::FailDynBudget() const {
  const Block& b = program_->block(cur_);
  Fail("block " + b.name + " exceeded its dynamic-access budget: " +
       std::to_string(dyn_count_) + " > " + std::to_string(b.max_dynamic_accesses));
}

void Executor::SetReg(std::uint8_t reg, std::int64_t value) {
  if (!in_path_ || cur_ == kNoBlock) {
    Fail("SetReg() outside a block");
  }
  // Validate against any loop-input declaration in the current function.
  for (const LoopInputDecl& in : program_->loop_inputs_of(program_->block(cur_).func)) {
    if (in.reg == reg && (value < in.min || value > in.max)) {
      Fail("SetReg r" + std::to_string(reg) + "=" + std::to_string(value) +
           " outside declared loop-input range [" + std::to_string(in.min) + "," +
           std::to_string(in.max) + "] of " + program_->block(in.block).name);
    }
  }
  regs_[reg] = value;
  written_ |= static_cast<std::uint16_t>(1u << reg);
}

void Executor::End() {
  if (!in_path_) {
    Fail("End() outside a kernel path");
  }
  if (cur_ == kNoBlock) {
    Fail("End() before any block executed");
  }
  const Block& p = program_->block(cur_);
  if (!p.is_return) {
    Fail("End() in non-return block " + p.name);
  }
  if (!call_stack_.empty()) {
    Fail("End() with non-empty call stack");
  }
  if (dyn_count_ > p.max_dynamic_accesses) {
    FailDynBudget();
  }
  dyn_count_ = 0;
  if (sink_ != nullptr) {
    CloseBlockWindow();
    TraceEvent e;
    e.kind = TraceEventKind::kKernelExit;
    e.cycle = machine_->Now();
    e.name = program_->function(entry_func_).name.c_str();
    e.id = entry_func_;
    sink_->OnEvent(e);
  }
  in_path_ = false;
  cur_ = kNoBlock;
  cur_cblock_ = nullptr;
  if (recording_) {
    trace_.end_cycle = machine_->Now();
  }
  FlushBlocksCharged();
}

Trace Executor::StopRecording() {
  recording_ = false;
  RefreshPlainPath();
  Trace t = trace_;
  trace_.Clear();
  return t;
}

}  // namespace pmk
