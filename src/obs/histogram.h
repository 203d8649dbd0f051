// HDR-style latency histogram: logarithmic buckets with linear sub-buckets.
//
// Replaces max-only latency reporting (paper Section 5.4 reports only the
// worst observed run) with full distributions: p50/p90/p99/max at a bounded
// relative error. Buckets follow the HdrHistogram layout — 16 linear
// sub-buckets per power-of-two octave — so any recorded value is resolved to
// better than 1/16 (6.25%) relative error while the whole 64-bit cycle range
// needs only ~1000 buckets. Min, max and mean are tracked exactly.

#ifndef SRC_OBS_HISTOGRAM_H_
#define SRC_OBS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/cycles.h"

namespace pmk {

class LatencyHistogram;

namespace engine {
class WireReader;
class WireWriter;
// Sparse wire codec, src/engine/wire.h.
void WriteHistogram(WireWriter& w, const LatencyHistogram& h);
LatencyHistogram ReadHistogram(WireReader& r);
}  // namespace engine

class LatencyHistogram {
 public:
  static constexpr std::uint32_t kSubBucketBits = 4;  // 16 sub-buckets/octave

  void Record(Cycles value) { Record(value, 1); }
  void Record(Cycles value, std::uint64_t times);
  void Merge(const LatencyHistogram& other);
  void Reset();

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  Cycles min() const { return count_ == 0 ? 0 : min_; }
  Cycles max() const { return max_; }
  double Mean() const;

  // Throughput/mean reporting accessors: total recordings and the exact sum
  // of all recorded values (0 for an empty histogram). Sum()/Count() equals
  // Mean(); exposing the sum lets aggregators merge means without losing the
  // exact totals.
  std::uint64_t Count() const { return count_; }
  double Sum() const { return count_ == 0 ? 0.0 : sum_; }

  // Value at the given percentile (p in [0,100]): the upper bound of the
  // bucket containing the p-th ranked recording, clamped to the exact
  // observed [min, max]. Percentile(100) == max() exactly.
  Cycles Percentile(double p) const;

  struct Summary {
    std::uint64_t count = 0;
    Cycles min = 0;
    Cycles p50 = 0;
    Cycles p90 = 0;
    Cycles p99 = 0;
    Cycles max = 0;
    double mean = 0;
  };
  Summary Summarize() const;

  // One-line "n=  min=  p50=  p90=  p99=  max=" rendering, in cycles, or in
  // microseconds when a clock is given.
  std::string FormatSummary(const ClockSpec* clock = nullptr) const;

  // Multi-line ASCII rendering of the non-empty bucket range.
  std::string FormatAscii(int width = 40) const;

  // Exposed for tests: the bucket index a value lands in and the largest
  // value mapping to that bucket.
  static std::size_t BucketIndex(Cycles value);
  static Cycles BucketUpperBound(std::size_t index);

 private:
  friend void engine::WriteHistogram(engine::WireWriter& w, const LatencyHistogram& h);
  friend LatencyHistogram engine::ReadHistogram(engine::WireReader& r);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  Cycles min_ = ~Cycles{0};
  Cycles max_ = 0;
  double sum_ = 0;
};

}  // namespace pmk

#endif  // SRC_OBS_HISTOGRAM_H_
