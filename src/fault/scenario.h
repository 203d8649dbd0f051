// Adversarial scenarios: one long-running kernel operation under injected
// interrupts, with the whole-kernel invariants audited at every kernel exit
// and the restart count bounded by the number of injected lines (the
// progress audit — a preempted restartable operation must not be restartable
// forever).
//
// A scenario is produced by an OpFactory: a callable that builds a FRESH
// System plus the operation to drive against it. Fresh state per run is what
// makes runs independent and seeds reproducible; factories must be pure
// (no shared mutable state between invocations).

#ifndef SRC_FAULT_SCENARIO_H_
#define SRC_FAULT_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/engine/checkpoint.h"
#include "src/fault/injector.h"
#include "src/obs/histogram.h"
#include "src/sim/workload.h"

namespace pmk {

// One operation instance against a fresh system.
struct OpInstance {
  std::unique_ptr<System> sys;
  SysOp op = SysOp::kCall;
  std::uint32_t cptr = 0;
  SyscallArgs args;
  TcbObj* actor = nullptr;  // the thread issuing the operation

  // Called after every preempted exit, before the restart — scenarios use it
  // to model hostile concurrency (e.g. new senders arriving mid-abort).
  std::function<void(System&)> on_preempted;
  // Called once the operation completes; throws (std::logic_error) if the
  // operation's own post-conditions do not hold.
  std::function<void(System&)> check_done;
};

using OpFactory = std::function<OpInstance()>;

// Checkpointed scenario: invokes |factory| ONCE, freezes the built system via
// the engine's SystemCheckpoint, and stamps out independent OpInstances on
// demand. A fork deep-clones the system, re-resolves the actor by its base
// address in the cloned heap, and shares the on_preempted/check_done
// callbacks across forks. Sweeps and campaigns build every run with its
// factory instead (a canonical operation builds fresh no slower than it
// forks); perfbench's kernel probe and SnapshotFidelityTest use this.
//
// Requires a FORK-SAFE factory: because the factory runs once and its
// callbacks are shared, they must address objects via the System& they are
// handed (capturing base addresses, never object pointers) and must not
// carry per-run mutable state. The canonical operations below qualify.
// Fork() is const and thread-safe.
class ScenarioCheckpoint {
 public:
  explicit ScenarioCheckpoint(const OpFactory& factory);

  OpInstance Fork() const;

 private:
  OpInstance templ_;  // op, args and callbacks; its sys is moved into ckpt_
  std::unique_ptr<engine::SystemCheckpoint> ckpt_;
  Addr actor_base_ = 0;
};

struct SweepOptions {
  static constexpr std::uint32_t kIrqLine = 5;  // unbound device line each run asserts
  unsigned jobs = 1;                            // worker threads for the sweep's runs
};

// Outcome of driving one operation under one injection plan.
struct RunRecord {
  std::string plan;  // InjectionPlan::ToString()
  bool completed = false;
  bool invariant_violation = false;  // CheckInvariants or check_done failed
  bool exec_error = false;           // CFG divergence (host-level bug)
  bool kernel_error = false;         // structured KernelError escaped
  bool restart_overrun = false;      // progress audit failed
  std::uint32_t restarts = 0;
  std::uint32_t actions_fired = 0;
  std::uint64_t lines_asserted = 0;
  std::uint64_t preempt_points = 0;  // pp blocks seen across all restarts
  Cycles max_irq_latency = 0;        // worst assert->service latency observed
  // Every assert->service latency of the run, for the tail observatory.
  // Deterministic (modelled cycles), so safe to aggregate across jobs.
  LatencyHistogram irq_hist;
  std::string detail;                // first failure message

  bool ok() const {
    return completed && !invariant_violation && !exec_error && !kernel_error && !restart_overrun;
  }
};

// Drives factory()'s operation to completion under |plan|. After every kernel
// exit (completed or preempted) CheckInvariants() runs; after every preempted
// exit the plan's lines are re-enabled (the kernel masks serviced unbound
// lines) and on_preempted fires. |sabotage|, if set, is forwarded to the
// injector's on_inject hook. A single run reads none of |opts|; they shape
// sweeps only.
RunRecord RunWithPlan(const OpFactory& factory, const InjectionPlan& plan,
                      const SweepOptions& opts,
                      const std::function<void(System&)>& sabotage = nullptr);

// Same, but drives an already-built instance (e.g. a checkpoint fork).
// Consumes |inst|: the run mutates its system beyond reuse.
RunRecord RunWithInstance(OpInstance inst, const InjectionPlan& plan,
                          const std::function<void(System&)>& sabotage = nullptr);

struct SweepResult {
  std::uint64_t preempt_points = 0;  // from the injection-free dry run
  RunRecord dry_run;
  std::vector<RunRecord> runs;  // runs[k] injected at preemption ordinal k

  bool AllOk() const;
  std::uint32_t MaxRestarts() const;
};

// The one-action plan that asserts SweepOptions::kIrqLine at the |k|-th
// preemption point (0-based) the operation reaches.
InjectionPlan BoundaryPlan(std::uint64_t k);

// The tentpole sweep: a dry run counts the P preemption-point boundaries the
// operation crosses, then P independent runs each assert an interrupt at
// exactly one boundary (BoundaryPlan(0) .. BoundaryPlan(P - 1)). Every run
// builds its own system with |factory| and audits invariants and restart
// bounds. The boundary runs execute on a job pool of opts.jobs workers and
// are collected in ordinal order, so the result is identical for any job
// count; with more than one worker, |factory| is called from several
// threads at once.
SweepResult ExhaustiveIrqSweep(const OpFactory& factory, const SweepOptions& opts);

// Greedy subset minimisation: repeatedly drops actions whose removal keeps
// the plan failing, until no single removal preserves the failure. The result
// is subset-minimal (removing ANY remaining action makes the run pass) and
// deterministic. |sabotage| must match what made |failing| fail.
InjectionPlan ShrinkPlan(const OpFactory& factory, const InjectionPlan& failing,
                         const SweepOptions& opts,
                         const std::function<void(System&)>& sabotage = nullptr);

// Canonical long-running operations (paper Sections 3.3-3.5), each with >= a
// handful of preemption points (under the default "after" kernel) and
// self-checking post-conditions. The config parameter lets ablation
// benchmarks run the same scenarios against the non-preemptible "before"
// kernel, where the sweep degenerates to the dry run.
OpFactory MakeRetypeCase(const KernelConfig& kc = KernelConfig::After());
OpFactory MakeEpDeleteCase(const KernelConfig& kc = KernelConfig::After());
OpFactory MakeBadgedAbortCase(const KernelConfig& kc = KernelConfig::After());

}  // namespace pmk

#endif  // SRC_FAULT_SCENARIO_H_
