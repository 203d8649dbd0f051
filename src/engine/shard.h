// Fault-tolerant multi-process campaign sharding.
//
// A ShardSupervisor partitions an ordered list of deterministic tasks across
// worker PROCESSES (fork(2)), so that a crashing, hanging or deliberately
// hostile run takes down one worker — not the campaign. The supervisor:
//
//  - partitions tasks deterministically by ordinal (ordinal % shards), so a
//    given (task list, shard count) always yields the same assignment;
//  - streams results back over a pipe as CRC-framed records (kTaskStart /
//    kTaskResult / kWorkerDone, src/engine/wire.h) — the frame stream doubles
//    as a heartbeat for the per-run watchdog;
//  - watches a per-run timeout per worker: a worker that goes silent longer
//    than task_timeout_ms is SIGKILLed and its in-flight runs are blamed;
//  - retries blamed runs with exponential backoff (base doubling up to a
//    cap), up to max_attempts attempts;
//  - quarantines runs that keep killing workers: each is re-run once more in
//    an isolated single-run worker, and if it STILL fails it is reported as
//    failed while every other run completes normally — a poison run cannot
//    sink the campaign;
//  - journals every completed result through an optional ResultJournal, so a
//    supervisor killed mid-campaign resumes re-executing only missing runs;
//  - degrades gracefully to in-process execution when fork/pipe setup fails,
//    with per-task exception isolation.
//
// Tasks must be deterministic pure functions of their closure state: the
// supervisor re-executes them freely (retry, resume, quarantine) and relies
// on re-execution producing byte-identical payloads.
//
// Telemetry: engine.shard.{workers_spawned,retries,timeouts,quarantines,
// worker_deaths,fallbacks,tasks_executed} counters and the
// engine.shard.worker_wall_nanos timer (one sample per worker lifetime).

#ifndef SRC_ENGINE_SHARD_H_
#define SRC_ENGINE_SHARD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pmk::engine {

// One schedulable unit of campaign work.
struct ShardTask {
  // Stable content key for journal addressing; must identify the run across
  // processes and sessions (e.g. "mode|op|plan").
  std::string key;
  // Executes the run and returns its encoded result. Runs in a forked worker
  // (or in-process under fallback); must be deterministic.
  std::function<std::vector<std::uint8_t>()> execute;
};

struct ShardOptions {
  // Worker processes. 0 = in-process execution (no fork), the bit-identical
  // reference path; 1..N = supervised fork workers.
  std::uint32_t shards = 0;

  // Threads inside each worker (engine::RunJobs over the worker's run list);
  // result frames are serialized by a pipe-write mutex.
  std::uint32_t jobs_per_shard = 1;

  // Per-run watchdog: a worker with work outstanding that produces no frame
  // for this long is killed and its in-flight runs blamed.
  std::uint32_t task_timeout_ms = 120'000;

  // Attempts per run before quarantine (the quarantine wave grants one more).
  std::uint32_t max_attempts = 2;

  // Crash-safe journal directory; empty disables journaling. Results are
  // keyed by ResultJournal::Key(journal_digest, task.key, seed).
  std::string journal_dir;
  std::uint64_t journal_digest = 0;
  std::uint64_t seed = 0;

  // Chaos hooks (tests / CI): once worker |chaos_kill_shard| has delivered
  // |chaos_kill_after_results| results, the supervisor SIGKILLs it — a
  // deterministic stand-in for an external kill. One-shot; -1 disables.
  std::int32_t chaos_kill_shard = -1;
  std::uint32_t chaos_kill_after_results = 0;
};

// Supervision statistics of one run, as the drivers report them. They vary
// with parallelism and resume, so they never reach a golden.
struct ShardStats {
  bool sharded = false;  // ran under fork supervision (shards > 0)
  std::uint64_t tasks = 0;
  std::uint64_t journal_hits = 0;
  std::uint64_t retries = 0;        // runs re-queued after a worker death
  std::uint64_t timeouts = 0;       // watchdog kills
  std::uint64_t worker_deaths = 0;  // involuntary worker exits (kill, crash)
  std::uint64_t workers_spawned = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t failed = 0;
  bool used_fallback = false;  // degraded to in-process execution
  bool resumed = false;        // journal pre-populated at least one result

  // One line: "shard supervisor: tasks=N journal_hits=N ... [fallback]
  // [resumed]".
  std::string Summary() const;
};

struct ShardOutcome {
  // Per-ordinal result payloads; meaningful where completed[i] != 0.
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint8_t> completed;

  // Ordinals that exhausted max_attempts and were isolated; the subset in
  // |failed| also failed their isolated attempt (completed stays 0 — the
  // caller decides how to report them).
  std::vector<std::uint32_t> quarantined;
  std::vector<std::uint32_t> failed;

  // Counted as the run goes; tasks, quarantined and failed when it ends.
  ShardStats stats;

  bool AllCompleted() const;
};

class ShardSupervisor {
 public:
  ShardSupervisor(std::vector<ShardTask> tasks, ShardOptions options);

  // Executes every task (or fetches it from the journal) and returns the
  // outcome. Blocks until all tasks completed or were quarantined-and-failed.
  ShardOutcome Run();

  // True inside a forked shard worker. Lets task code behave differently
  // under supervision (e.g. a test's poison run only aborts when isolated).
  static bool InWorker();

 private:
  std::vector<ShardTask> tasks_;
  ShardOptions opts_;
};

}  // namespace pmk::engine

#endif  // SRC_ENGINE_SHARD_H_
