// Saturation harness: offered-load sweeps over the badged client fleet and
// the modelled NIC ring, with interrupt-response tails checked live against
// the analyzed WCET bound.
//
// One scenario = (arrival shape, offered-load point): a forked clone of a
// single checkpointed fleet boot runs clients + servers + the two-phase
// driver for a fixed modelled duration while the FrameSource streams frames
// at the scenario's rate. Results carry full latency histograms plus
// throughput/goodput/drop/coalesce counters, and are byte-identical for a
// given seed at ANY parallelism:
//
//   - every scenario is an engine::ShardSupervisor task whose inputs are a
//     pure function of the scenario ordinal (SplitMix64::Split(ordinal));
//   - tasks fan out over job threads in-process (--jobs) or over forked
//     worker processes (--shards), travel as wire-encoded TrafficResult
//     records and are collected in ordinal order either way;
//   - the optional result journal (--journal) works at any shard count.
//
// The boot-once/fork-per-scenario checkpoint pattern is what makes a
// thousand-client sweep cheap: the fleet is built exactly once.

#ifndef SRC_LOAD_TRAFFIC_H_
#define SRC_LOAD_TRAFFIC_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/engine/shard.h"
#include "src/load/fleet.h"
#include "src/obs/tail_observatory.h"

namespace pmk::load {

struct TrafficOptions {
  std::uint64_t seed = 42;

  // Fleet shape.
  std::uint32_t clients = 1000;
  std::uint32_t servers = 8;

  // Scenario grid: every shape at every offered-load point (device mean
  // inter-frame gap in cycles; smaller = hotter). Client think time scales
  // with the same gap so IPC pressure rises with device pressure.
  static constexpr std::array<ArrivalShape, 3> shapes = {
      ArrivalShape::kOpenLoop, ArrivalShape::kClosedLoop, ArrivalShape::kBurstyStorm};
  std::vector<Cycles> load_gaps = {16384, 4096, 1024, 384};

  // Modelled cycles each scenario runs for.
  Cycles run_cycles = 600'000;

  // Parallelism.
  unsigned jobs = 1;        // in-process fan-out threads
  std::uint32_t shards = 0;  // >0: fork-per-shard supervision
  std::string journal_dir;   // optional crash-safe result journal, any |shards|
};

// One scenario's deterministic outcome (modelled values only).
struct TrafficResult {
  std::string shape;           // ArrivalShapeName of the scenario shape
  std::uint32_t load_point = 0;  // index into load_gaps
  std::uint64_t frame_gap = 0;   // the device mean inter-frame gap swept

  LatencyHistogram irq_hist;     // kernel-measured assert->ack responses
  LatencyHistogram frame_delay;  // frame arrival -> driver pop (informational)

  std::uint64_t frames_offered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_processed = 0;
  std::uint64_t driver_acks = 0;
  std::uint64_t client_calls = 0;     // IPC requests issued
  std::uint64_t requests_served = 0;  // completed call/reply round trips
  std::uint64_t spurious_acks = 0;
  std::uint64_t coalesced_asserts = 0;
  std::uint64_t steps = 0;  // total Runner steps completed
};

// Wire codec for the shard result pipe / journal (engine::WriteHistogram's
// sparse encoding inside a WireWriter record). Decode throws WireError on
// corrupt bytes.
std::vector<std::uint8_t> EncodeTrafficResult(const TrafficResult& r);
TrafficResult DecodeTrafficResult(const std::vector<std::uint8_t>& bytes);

struct TrafficReport {
  std::uint64_t seed = 0;
  std::vector<TrafficResult> results;  // scenario-ordinal order
  engine::ShardStats shard;            // supervision outcome; NOT golden-able
};

// Runs the full sweep. Boots the fleet once, checkpoints, forks per
// scenario; fan-out per |opts.jobs| / |opts.shards|. Throws, naming the
// scenario's key, on a scenario that fails (in-process, or under supervision
// even after quarantined re-execution).
TrafficReport RunTrafficSweep(const TrafficOptions& opts);

// Deterministic renderings (modelled values only — golden-able bytes).
std::string RenderTrafficTable(const TrafficReport& report);
void WriteTrafficCsv(const TrafficReport& report, std::ostream& os);

// Feeds per-scenario histograms + controller counters into the observatory
// under scenario label "traffic/<shape>/g<gap>". Storm scenarios are marked
// unenforced: their latencies include device-side masked windows the kernel
// analysis deliberately excludes.
void FeedObservatory(const TrafficReport& report, obs::TailObservatory& observatory,
                     const std::string& config_label);

}  // namespace pmk::load

#endif  // SRC_LOAD_TRAFFIC_H_
