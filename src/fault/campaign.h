// Seeded fault campaign: thousands of deterministic adversarial scenarios.
//
// Five modes, all driven by one SplitMix64 seed:
//   exhaustive  one run per preemption-point boundary of each canonical
//               long-running operation (the tentpole sweep)
//   random      seeded plans mixing preempt-ordinal and cycle-offset
//               injections, bursts included
//   storm       Runner-driven workload under a device-side IRQ storm with
//               interleaved spurious acknowledges
//   hostile     malformed syscall arguments, out-of-range indices and
//               depth-exhausted capability decodes — must surface as
//               structured in-kernel errors, never as host exceptions
//   spurious    controller-level spurious-ack and coalescing semantics
//
// The report is a plain table with a stable ordering and no pointers or
// wall-clock values: identical seeds produce byte-identical CSV output.

#ifndef SRC_FAULT_CAMPAIGN_H_
#define SRC_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/engine/shard.h"
#include "src/fault/scenario.h"
#include "src/obs/tail_observatory.h"

namespace pmk {

struct CampaignConfig {
  std::uint64_t seed = 1;
  bool exhaustive = true;
  std::uint32_t random_runs = 32;    // per canonical operation
  std::uint32_t storm_runs = 4;
  std::uint32_t hostile_runs = 128;  // hostile syscalls, forked from one system
  std::uint32_t spurious_runs = 16;

  // Worker threads for scenario execution (src/engine job pool). Plans and
  // RNG streams are precomputed serially and results collected in ordinal
  // order, so the report is byte-identical for any value — jobs=4 produces
  // exactly the jobs=1 CSV, just faster.
  unsigned jobs = 1;

  // ---- fault-tolerant sharding (engine::ShardSupervisor) ----
  //
  // shards=0 keeps the historical in-process path (the byte-identical
  // reference); shards>=1 forks that many supervised worker processes, each
  // executing its deterministic slice of the run list and streaming framed
  // results back. Either way the CSV is byte-identical for a given seed —
  // supervision, retries and resume are invisible in the report body.
  std::uint32_t shards = 0;

  // Crash-safe result journal directory; empty disables. Completed runs are
  // persisted as they land, keyed by (kernel image digest, run key, seed):
  // re-running after a crash re-executes only missing runs, and a journal
  // from a different kernel/config/seed is invalidated on open.
  std::string journal_dir;

  // Supervision knobs (see engine::ShardOptions).
  std::uint32_t shard_timeout_ms = 120'000;
  std::uint32_t shard_max_attempts = 2;

  // Chaos/test hooks. poison_ordinal: that run ordinal calls abort() when
  // executing inside a shard worker (never in-process) — the supervisor must
  // quarantine it and complete every other run. chaos_kill_*: forwarded to
  // engine::ShardOptions (SIGKILL a worker mid-campaign).
  std::int64_t poison_ordinal = -1;
  std::int32_t chaos_kill_shard = -1;
  std::uint32_t chaos_kill_after_results = 0;

  // Optional interrupt-response tail observatory. When set, every run's IRQ
  // latency histogram is merged under ("after", "<mode>[/<op>]") after the
  // report is assembled — an observer of results already collected, so
  // attaching it cannot change a single CSV byte. Storm-mode rows are marked
  // unenforced: their latencies include device-side masking windows the
  // kernel WCET analysis deliberately excludes.
  obs::TailObservatory* observatory = nullptr;

  // The CI smoke sizes (--quick) that the fault_campaign and
  // telemetry_report goldens pin.
  static CampaignConfig Quick() {
    CampaignConfig c;
    c.random_runs = 8;
    c.storm_runs = 2;
    c.hostile_runs = 32;
    c.spurious_runs = 4;
    return c;
  }
};

struct ScenarioResult {
  std::string mode;
  std::string op;
  std::string plan;
  bool ok = false;
  std::uint32_t restarts = 0;
  std::uint64_t preempt_points = 0;
  std::uint64_t spurious_acks = 0;
  std::uint64_t coalesced = 0;
  // All assert->service latencies of the run (modelled cycles). Not part of
  // the CSV; feeds CampaignConfig::observatory.
  LatencyHistogram irq_hist;
  std::string detail;
};

struct CampaignReport {
  std::uint64_t seed = 0;
  std::vector<ScenarioResult> results;
  engine::ShardStats shard;  // supervision outcome; not part of the CSV

  std::uint64_t failures() const;
  // Stable CSV: header + one row per scenario, in execution order.
  void WriteCsv(std::ostream& os) const;
  std::string Summary() const;
};

// Wire codec for one result row: the payload format of the shard result pipe
// and the on-disk journal. Round-trips every field, histogram included;
// corrupt bytes throw engine::WireError.
std::vector<std::uint8_t> EncodeScenarioResult(const ScenarioResult& r);
ScenarioResult DecodeScenarioResult(const std::vector<std::uint8_t>& bytes);

// Stable identity of a campaign for journal addressing: the kernel image
// digest plus every config knob that changes row content. Seeds are part of
// the per-entry key, not the digest.
std::uint64_t CampaignContextDigest(const CampaignConfig& config);

// The three canonical long-running operations by name, in report order.
std::vector<std::pair<std::string, OpFactory>> CanonicalOps();

CampaignReport RunCampaign(const CampaignConfig& config);

}  // namespace pmk

#endif  // SRC_FAULT_CAMPAIGN_H_
