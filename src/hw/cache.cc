#include "src/hw/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace pmk {

void CacheConfig::Validate() const {
  if (ways < 1) {
    throw std::invalid_argument("CacheConfig '" + name + "': ways must be >= 1");
  }
  if (line_bytes == 0 || !std::has_single_bit(line_bytes)) {
    throw std::invalid_argument("CacheConfig '" + name + "': line_bytes (" +
                                std::to_string(line_bytes) + ") must be a power of two");
  }
  if (size_bytes == 0 || size_bytes % (ways * line_bytes) != 0) {
    throw std::invalid_argument("CacheConfig '" + name + "': size_bytes (" +
                                std::to_string(size_bytes) + ") must be a non-zero multiple of " +
                                "ways * line_bytes (" + std::to_string(ways * line_bytes) + ")");
  }
  if (!std::has_single_bit(NumSets())) {
    throw std::invalid_argument("CacheConfig '" + name + "': set count (" +
                                std::to_string(NumSets()) + ") must be a power of two");
  }
}

namespace {
// Validation must precede the member initializers below: NumSets() divides by
// ways * line_bytes, which an invalid config can make zero.
const CacheConfig& Validated(const CacheConfig& config) {
  config.Validate();
  return config;
}
}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(Validated(config)),
      num_sets_(config.NumSets()),
      ways_(config.ways),
      line_shift_(0),
      tag_shift_(0),
      set_mask_(0),
      all_ways_mask_(config.ways >= 32 ? ~0u : ((1u << config.ways) - 1)),
      tags_(static_cast<std::size_t>(config.NumSets()) * config.ways, kInvalidTag),
      rr_next_(config.NumSets(), 0) {
  line_shift_ = static_cast<std::uint32_t>(std::countr_zero(config_.line_bytes));
  tag_shift_ = line_shift_ + static_cast<std::uint32_t>(std::countr_zero(num_sets_));
  set_mask_ = num_sets_ - 1;
}

void Cache::InstallLine(Addr addr, std::uint32_t way) {
  assert(way < ways_);
  const std::size_t idx = static_cast<std::size_t>(SetIndexOf(addr)) * ways_ + way;
  tags_[idx] = NarrowTag(TagOf(addr));
  gen_++;
}

void Cache::LockWay(std::uint32_t way) {
  assert(way < ways_);
  locked_ways_ |= (1u << way);
}

void Cache::Pin(std::span<const Addr> lines, std::uint32_t ways) {
  assert(ways >= 1 && ways < ways_);
  std::vector<std::uint32_t> used(num_sets_, 0);
  for (const Addr a : lines) {
    std::uint32_t& way = used[SetIndexOf(a)];
    if (way == ways) {
      throw std::invalid_argument("Cache '" + config_.name + "': pinned lines overflow a set");
    }
    InstallLine(a, way++);
  }
  for (std::uint32_t w = 0; w < ways; ++w) {
    LockWay(w);
  }
}

void Cache::UnlockWay(std::uint32_t way) {
  assert(way < ways_);
  locked_ways_ &= ~(1u << way);
}

void Cache::InvalidateAll() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  gen_++;
}

void Cache::Pollute(Addr garbage_base, double fraction) {
  // Install a unique garbage tag in every unlocked way of |fraction| of the
  // sets (spread across the index space via a hash, the way a finite
  // polluting buffer strides through a large cache). Garbage tags are
  // derived from addresses far above anything the workloads use.
  const std::uint32_t threshold = static_cast<std::uint32_t>(fraction * 1024.0 + 0.5);
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    if ((set * 2654435761u >> 6) % 1024 >= threshold) {
      continue;
    }
    const std::size_t base = static_cast<std::size_t>(set) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (locked_ways_ & (1u << w)) {
        continue;
      }
      const Addr addr = garbage_base +
                        (static_cast<Addr>(w) * num_sets_ + set) * config_.line_bytes;
      tags_[base + w] = NarrowTag(TagOf(addr));
    }
  }
  gen_++;
}

std::uint32_t Cache::PickVictimFallback() {
  // First unlocked way; reached only from degenerate PickVictim exits
  // (callers guarantee at least one way is unlocked).
  for (std::uint32_t cand = 0; cand < ways_; ++cand) {
    if (!(locked_ways_ & (1u << cand))) {
      return cand;
    }
  }
  assert(false && "PickVictim called with all ways locked");
  return 0;
}

}  // namespace pmk
