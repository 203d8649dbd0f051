// Kernel IR executor: runs declared blocks against the machine model.
//
// The kernel's C++ code drives the executor: it announces each basic block it
// passes through (Executor::At) and each dynamically-addressed memory access
// it performs (Executor::Touch). The executor charges all costs to the
// hw::Machine, enforces that the dynamic path is a path of the declared CFG
// (calls, returns and successor edges), enforces per-block dynamic-access
// budgets, interprets the register-machine ops attached to loop blocks and
// cross-checks semantic branch conditions against the direction the C++ code
// actually took. Any divergence throws ExecError — in the paper's terms, the
// "binary" being analyzed would not match the kernel being run.

#ifndef SRC_KIR_EXECUTOR_H_
#define SRC_KIR_EXECUTOR_H_

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/hw/machine.h"
#include "src/kir/program.h"
#include "src/kir/trace.h"

namespace pmk {

class TraceSink;
class CompiledProgram;  // src/kir/compiled.h
struct CompiledBlock;

class ExecError : public std::logic_error {
 public:
  explicit ExecError(const std::string& what) : std::logic_error(what) {}
};

// Fault-injection seam (src/fault). The executor calls OnBlock for every
// block it is about to charge — after the CFG edge into the block has been
// validated, before the block's costs land on the machine. A hook that
// asserts an interrupt line here is therefore visible to the kernel's very
// next PreemptPending() check: asserting on a preemption-point block models
// an interrupt arriving exactly at that boundary. Hooks must not charge
// modelled cycles; they observe and poke hardware state only.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  // |b| is the block becoming current; |is_preemption_point| mirrors the
  // block's CFG flag so hooks need not look the block up again.
  virtual void OnBlock(BlockId b, bool is_preemption_point) = 0;
};

class Executor {
 public:
  static constexpr std::size_t kNumRegs = 16;

  // How block costs are charged to the machine. Both modes produce
  // bit-identical modelled results (cycles, counters, cache state, traces,
  // validation outcomes); hotpath_equivalence_test enforces the identity.
  enum class ChargeMode : std::uint8_t {
    // Production path: the compiled threaded-code backend
    // (src/kir/compiled.h). One indirect jump into the block's precompiled
    // charge stream, with cache geometry and BTB indices constant-folded per
    // machine specialisation, an I-fetch memo and batched TouchRun
    // (Machine::DataAccessRun). The default.
    kCompiled,
    // Oracle: a plain interpreter over the Block descriptors. It recomputes
    // branch PCs, I-fetch spans and static addresses from the Block on every
    // execution, charges through the per-access Machine::InstrFetch /
    // DataAccess / Branch entries (TouchRun as one DataAccess per element)
    // and reads nothing Program::Layout() precomputed, so every compiled-path
    // shortcut is checked against plain per-access charging.
    kInterpreted,
  };

  Executor(const Program* program, Machine* machine);

  ChargeMode charge_mode() const { return charge_mode_; }

  // Selects the charging implementation; the only way to select the oracle.
  // Allowed within a kernel path. Kernel::Clone carries the mode over to the
  // copy.
  void set_charge_mode(ChargeMode mode);

  // Starts a kernel path at |entry_func|'s entry block.
  void Begin(FuncId entry_func);

  // Announces execution of block |b|: validates the CFG edge from the
  // current block, charges the branch ending it, then |b|'s fetch, static
  // accesses and raw cycles, and interprets its register ops. Inline
  // dispatch: the compiled backend is the default mode and this is called
  // once per block, so the common case pays one predicted compare and a tail
  // call into AtCompiled.
  void At(BlockId b) {
    if (charge_mode_ == ChargeMode::kCompiled) {
      AtCompiled(b);
      return;
    }
    AtInterpreted(b);
  }

  // One dynamically-addressed data access within the current block. Inline:
  // object-clearing loops issue one Touch per modelled line, so this is the
  // single hottest call site in long campaigns.
  void Touch(Addr addr, bool write = false) {
    if (!in_path_ || cur_ == kNoBlock) {
      FailTouchOutsideBlock();
    }
    dyn_count_++;
    machine_->DataAccess(addr, write);
  }

  // |count| dynamically-addressed accesses at base, base+stride, ... within
  // the current block, charged as one batch (Machine::DataAccessRun): the
  // kernel's object-clearing loops issue one call per chunk instead of one
  // Touch per modelled line. Bit-identical to the equivalent Touch loop,
  // which the oracle runs instead.
  void TouchRun(Addr base, std::uint32_t count, std::uint32_t stride, bool write = false) {
    if (count == 0) {
      return;
    }
    if (!in_path_ || cur_ == kNoBlock) {
      FailTouchOutsideBlock();
    }
    dyn_count_ += count;
    if (charge_mode_ == ChargeMode::kInterpreted) {
      for (std::uint32_t i = 0; i < count; ++i) {
        machine_->DataAccess(base + static_cast<Addr>(i) * stride, write);
      }
      return;
    }
    machine_->DataAccessRun(base, count, stride, write);
  }

  // Injects a runtime value into register |reg| (a loop input). Validated
  // against the declared LoopInput range of the current function's loops.
  void SetReg(std::uint8_t reg, std::int64_t value);

  // Ends the kernel path; the current block must be a return block of the
  // entry function and the call stack must be empty.
  void End();

  bool InPath() const { return in_path_; }

  // Trace recording (off by default).
  void StartRecording() {
    recording_ = true;
    RefreshPlainPath();
  }
  Trace StopRecording();

  // Structured event tracing (src/obs): kernel entry/exit, per-block cycle
  // and cache-miss attribution, preemption-point hit/taken events. A null
  // sink (the default) reduces every instrumentation site to one pointer
  // test; with or without a sink, no modelled cycles are charged. A sink
  // attached inside a block (from a FaultHook, say) opens that block's
  // window at once, so the first window covers only what is charged after
  // the attach.
  void set_trace_sink(TraceSink* sink);
  TraceSink* trace_sink() const { return sink_; }

  // Fault-injection hook (off by default): invoked from At() for every block,
  // at zero modelled-cycle cost. See FaultHook above for the exact timing
  // contract relative to the kernel's PreemptPending() checks.
  void set_fault_hook(FaultHook* hook) {
    fault_hook_ = hook;
    RefreshPlainPath();
  }

  const Program& program() const { return *program_; }
  Machine& machine() { return *machine_; }

 private:
  // The branch ending the block being left, as TakeEdge resolved it; kNone
  // for a fall-through, which charges nothing.
  struct EdgeBranch {
    BranchKind kind = BranchKind::kNone;
    bool taken = false;
  };
  // Validates the transition into |bid| from the current block, whose CFG
  // facts are |p| (null at path start: |bid| must be the entry block):
  // dynamic-access budget, call/return/successor edge and declared branch
  // semantics. Applies the edge's call-stack and register effects and
  // returns the branch to charge; throws ExecError on any divergence. Shared
  // by both charge modes, which charge the branch each their own way.
  EdgeBranch TakeEdge(const BlockEdges* p, BlockId bid);
  // Makes |bid| current and runs the attached observers (sink block windows
  // and preemption-point events, trace recording, fault hook). |prev| is the
  // CFG record of the block being left, null at path start.
  void Enter(BlockId bid, const BlockEdges* prev, bool is_preemption_point);
  // Emits the kBlockCost event for the block being left (cycles and misses
  // accumulated since OpenBlockWindow).
  void CloseBlockWindow();
  void OpenBlockWindow();
  [[noreturn]] void Fail(const std::string& msg) const;
  [[noreturn]] void FailTouchOutsideBlock() const;
  [[noreturn]] void FailDynBudget() const;
  // Oracle At body (kInterpreted): edge facts, branch PC, I-fetch span and
  // static addresses regathered from the Block on every execution.
  void AtInterpreted(BlockId bid);
  // Compiled At body: edge facts from the CompiledBlock record, block costs
  // charged through the block's precompiled stream (CompiledProgram::Run).
  void AtCompiled(BlockId bid);
  // Records the sim.exec.charge_mode{mode=...} labeled counter.
  static void CountChargeMode(ChargeMode mode);
  // Recomputes the cached plain_path_ flag (see its declaration).
  void RefreshPlainPath() {
    plain_path_ = sink_ == nullptr && fault_hook_ == nullptr && !recording_;
  }
  // Flushes blocks_pending_ into the sim.exec.blocks_charged counter; called
  // from End() so the hot path pays one local increment per block.
  void FlushBlocksCharged();

  struct Frame {
    BlockId resume = kNoBlock;
    std::array<std::int64_t, kNumRegs> regs{};
    std::uint16_t written = 0;
  };

  const Program* program_;
  Machine* machine_;
  ChargeMode charge_mode_ = ChargeMode::kCompiled;

  // Compiled-backend specialisation for machine_'s geometry, bound at
  // construction.
  const CompiledProgram* compiled_;
  // I-fetch memo, one slot per block: the machine's L1I line-state generation
  // (Cache::Gen) at the last run in which the block's I-lines all hit, or 0.
  // While the generation is unchanged the lines are still resident and the
  // probes can be skipped bit-identically (CompiledBlock::hit_ops).
  std::vector<std::uint64_t> iline_gen_;

  bool in_path_ = false;
  BlockId cur_ = kNoBlock;
  // &compiled_->block(cur_), cached for AtCompiled; the oracle leaves it alone
  // and set_charge_mode re-derives it.
  const CompiledBlock* cur_cblock_ = nullptr;
  FuncId entry_func_ = kNoFunc;
  std::uint32_t dyn_count_ = 0;
  std::uint64_t blocks_pending_ = 0;  // blocks charged since the last flush
  std::vector<Frame> call_stack_;
  std::array<std::int64_t, kNumRegs> regs_{};
  std::uint16_t written_ = 0;

  bool recording_ = false;
  Trace trace_;

  // True when no observer is attached (no sink, no fault hook, no trace
  // recording) — the common campaign/bench configuration. AtCompiled's
  // per-block observer tail then reduces to this single test; kept in sync
  // by RefreshPlainPath() from every setter.
  bool plain_path_ = true;
  TraceSink* sink_ = nullptr;
  FaultHook* fault_hook_ = nullptr;
  Cycles blk_start_cycle_ = 0;  // counter snapshot at current-block entry
  std::uint64_t blk_start_imiss_ = 0;
  std::uint64_t blk_start_dmiss_ = 0;
};

}  // namespace pmk

#endif  // SRC_KIR_EXECUTOR_H_
