// Set-associative cache model with way-locking (cache pinning).
//
// Models the ARM1136 L1 caches (16 KiB, 4-way, configurable round-robin or
// pseudo-random replacement) and the i.MX31 unified L2 (128 KiB, 8-way). The
// ARM1136 allows a subset of ways to be excluded from replacement, which is
// how the paper pins the interrupt-delivery path into 1/4 of each L1 cache
// (Section 4).
//
// Hot-path layout: the line array is a flat array of 32-bit tags (way-major
// within a set) where an invalid line holds the unreachable sentinel
// kInvalidTag, so residency needs no separate valid bit — one load and one
// compare per way. Tags fit 32 bits because every modelled address is below
// 2^31 (128 MiB of RAM plus the fixed pollution bases); narrow tags halve
// the tag-array footprint (the 128 KiB L2's array drops from 256 KiB to
// 128 KiB of host memory, which streaming workloads sweep every pass) and
// let the 4/8-way scans compare a whole set in one or two SSE2 loads.
// The geometry is reduced to shifts and masks validated at construction, so
// a lookup is a handful of loads with no divisions. Every simulated memory
// access in the repository funnels through Access()/AccessLine(); they are
// defined inline here so the executor's inner loop does not pay a cross-TU
// call per access.
//
// A Cache is pure line state: it reports hit or miss and counts nothing.
// The machine's HwCounters (src/hw/machine.h) are the one record of events.

#ifndef SRC_HW_CACHE_H_
#define SRC_HW_CACHE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace pmk {

using Addr = std::uint64_t;

enum class ReplacementPolicy {
  kRoundRobin,
  kPseudoRandom,
};

struct CacheConfig {
  std::string name = "cache";
  std::uint32_t size_bytes = 16 * 1024;
  std::uint32_t ways = 4;
  std::uint32_t line_bytes = 32;
  ReplacementPolicy policy = ReplacementPolicy::kRoundRobin;

  std::uint32_t NumSets() const { return size_bytes / (ways * line_bytes); }

  // Throws std::invalid_argument unless the geometry is modellable:
  // power-of-two line_bytes and NumSets(), ways >= 1, and size_bytes evenly
  // divisible by ways * line_bytes (silent truncation in NumSets() would
  // otherwise mis-size the cache).
  void Validate() const;
};

class Cache {
 public:
  // Validates |config| (see CacheConfig::Validate) and precomputes the
  // shift/mask geometry.
  explicit Cache(const CacheConfig& config);

  // Looks up |addr|; on a miss, allocates the line into a victim way chosen
  // among unlocked ways. Returns true on hit.
  bool Access(Addr addr) { return AccessLine(SetIndexOf(addr), TagOf(addr)); }

  // Split entry point for callers that already know the line's set and tag
  // (precomputed compiled-stream probes, Machine::DataAccessRun). Identical
  // state transitions to Access(); Access(a) == AccessLine(SetIndexOf(a),
  // TagOf(a)) by construction. Dispatches to a way-count-specialised body for
  // the two modelled geometries (4-way L1, 8-way L2) so the compiler unrolls
  // the tag scan.
  bool AccessLine(std::uint32_t set, Addr tag) {
    if (ways_ == 4) {
      return AccessLineImpl<4>(set, tag);
    }
    if (ways_ == 8) {
      return AccessLineImpl<8>(set, tag);
    }
    return AccessLineImpl<0>(set, tag);
  }

  // True when SweepLines() below may replace a per-access AccessLine loop:
  // the SSE2 fast-scan geometry (4-way), the round-robin victim fast path
  // (nothing locked), and the tags fitting one 16-byte group per set.
  bool SweepEligible() const {
#if defined(__SSE2__)
    return ways_ == 4 && locked_ways_ == 0 &&
           config_.policy == ReplacementPolicy::kRoundRobin;
#else
    return false;
#endif
  }

  // Streaming batch probe: |count| accesses at base, base + line, base +
  // 2*line, ... — one access per consecutive cache line, the shape of the
  // kernel's object-clearing loops (Machine::DataAccessRun with stride ==
  // line_bytes). State transitions and miss outcomes are identical to the
  // equivalent AccessLine loop. Returns the number of misses and writes
  // their addresses to |missed| (capacity >= count). Caller must check
  // SweepEligible().
  //
  // Consecutive lines occupy consecutive sets, so the probe walks the tag
  // array linearly, 16 bytes per access, and the tag is constant until the
  // set index wraps: addr mod (line * num_sets) < line exactly when the set
  // wraps to zero, for any base alignment. That removes the per-access
  // set/tag arithmetic of the generic loop; the SSE compare is unchanged.
  std::uint32_t SweepLines(Addr base, std::uint32_t count, Addr* missed) {
#if defined(__SSE2__)
    const Addr line = config_.line_bytes;
    std::uint32_t set = SetIndexOf(base);
    Addr tag = TagOf(base);
    __m128i vtag = _mm_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(tag)));
    std::uint32_t n_missed = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::uint32_t* group = tags_.data() + static_cast<std::size_t>(set) * 4;
      const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(group));
      if (_mm_movemask_epi8(_mm_cmpeq_epi32(v, vtag)) == 0) {
        // Miss: round-robin install, as PickVictim with no locked ways.
        const std::uint32_t w = rr_next_[set];
        rr_next_[set] = w + 1 == 4 ? 0 : w + 1;
        group[w] = NarrowTag(tag);
        gen_++;
        missed[n_missed++] = base + static_cast<Addr>(i) * line;
      }
      if (++set == num_sets_) {
        set = 0;
        ++tag;
        vtag = _mm_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(tag)));
      }
    }
    return n_missed;
#else
    (void)base;
    (void)count;
    (void)missed;
    return 0;  // unreachable: SweepEligible() is false without SSE2
#endif
  }

  // Hints the host CPU to load |set|'s tag group ahead of an AccessLine call.
  // Batching callers (Machine::DataAccessRun) probe runs of sets and can hide
  // the tag-array load latency by prefetching the next probe's set. No
  // modelled effect whatsoever.
  void PrefetchSet(std::uint32_t set) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&tags_[static_cast<std::size_t>(set) * ways_]);
#endif
  }

  // Returns true if |addr|'s line is currently resident (no state change).
  bool Contains(Addr addr) const {
    const std::size_t base = static_cast<std::size_t>(SetIndexOf(addr)) * ways_;
    const Addr tag = TagOf(addr);
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags_[base + w] == tag) {
        return true;
      }
    }
    return false;
  }

  // Loads |addr|'s line into way |way| and marks it resident, regardless of
  // locking. Used to pre-load lines that will then be pinned.
  void InstallLine(Addr addr, std::uint32_t way);

  // Excludes |way| from replacement: resident lines in it become pinned.
  void LockWay(std::uint32_t way);

  void UnlockWay(std::uint32_t way);

  // Pins |lines|: installs each into the next of the low |ways| ways its set
  // has not filled yet, then locks those ways (1 <= |ways| < ways). Throws
  // std::invalid_argument if a set gets more than |ways| lines;
  // SelectPinnedLines (src/kernel/image.h) picks lines that fit.
  void Pin(std::span<const Addr> lines, std::uint32_t ways);

  // Invalidates all lines (locked ways included). Lock bits are retained.
  void InvalidateAll();

  // Fills the unlocked portion of the cache with garbage tags that collide
  // with nothing the caller will use. Used by worst-case test programs that
  // pollute the caches before measuring (paper Section 5.4). |fraction|
  // limits pollution to the first fraction of the sets: a finite polluting
  // buffer only partially displaces a large cache.
  void Pollute(Addr garbage_base, double fraction = 1.0);

  const CacheConfig& config() const { return config_; }

  // Line-state generation: incremented whenever any line's residency can
  // change — an allocating miss, InstallLine, InvalidateAll, Pollute, or a
  // state restore. Hits never mutate line state (replacement metadata only
  // moves on installs), so a probe set that fully hit at generation G keeps
  // hitting, with zero state change, for as long as Gen() == G. The compiled
  // executor memoises per-block I-fetch outcomes on this.
  std::uint64_t Gen() const { return gen_; }

  std::uint32_t SetIndexOf(Addr addr) const {
    return static_cast<std::uint32_t>((addr >> line_shift_) & set_mask_);
  }
  Addr TagOf(Addr addr) const { return addr >> tag_shift_; }

 private:
  // True if |tag| is resident in the |ways|-tag group at |base|. The 4- and
  // 8-way groups (the two modelled geometries) are compared whole with SSE2
  // — 16-byte loads, no data-dependent way-index branches. Tags are unique
  // within a set (installs happen only after a full-scan miss), so "any lane
  // equal" is exactly "hit"; a probe tag that exceeded 32 bits could alias
  // under the lane truncation, but modelled addresses are bounded below 2^31
  // (asserted at install time).
  template <std::uint32_t kWays>
  bool ScanWays(std::size_t base, Addr tag) const {
#if defined(__SSE2__)
    if constexpr (kWays == 4 || kWays == 8) {
      const __m128i t = _mm_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(tag)));
      const __m128i v0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags_.data() + base));
      __m128i eq = _mm_cmpeq_epi32(v0, t);
      if constexpr (kWays == 8) {
        const __m128i v1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags_.data() + base + 4));
        eq = _mm_or_si128(eq, _mm_cmpeq_epi32(v1, t));
      }
      return _mm_movemask_epi8(eq) != 0;
    }
#endif
    const std::uint32_t ways = kWays != 0 ? kWays : ways_;
    for (std::uint32_t w = 0; w < ways; ++w) {
      if (tags_[base + w] == tag) {
        return true;
      }
    }
    return false;
  }

  // Way-count-specialised lookup body; |kWays| == 0 means runtime ways_.
  template <std::uint32_t kWays>
  bool AccessLineImpl(std::uint32_t set, Addr tag) {
    const std::uint32_t ways = kWays != 0 ? kWays : ways_;
    const std::size_t base = static_cast<std::size_t>(set) * ways;
    if (ScanWays<kWays>(base, tag)) {
      return true;
    }
    // Allocate, unless every way is locked (then the line bypasses the cache).
    if ((locked_ways_ & all_ways_mask_) == all_ways_mask_) {
      return false;
    }
    const std::uint32_t victim = PickVictim<kWays>(set);
    tags_[base + victim] = NarrowTag(tag);
    gen_++;
    return false;
  }

  // Narrows a tag to its 32-bit stored form. Lossless for every modelled
  // address (all below 2^31); the assert guards the invariant in debug
  // builds. kInvalidTag is reserved for invalid lines.
  static std::uint32_t NarrowTag(Addr tag) {
    assert(tag < kInvalidTag);
    return static_cast<std::uint32_t>(tag);
  }

  // Chooses the victim way among unlocked ways for |set|. Inline: allocating
  // misses dominate streaming workloads, so this is as hot as the lookup.
  template <std::uint32_t kWays>
  std::uint32_t PickVictim(std::uint32_t set) {
    const std::uint32_t ways = kWays != 0 ? kWays : ways_;
    if (config_.policy == ReplacementPolicy::kRoundRobin) {
      const std::uint32_t w = rr_next_[set];
      if (locked_ways_ == 0) {
        // Nothing pinned (the common case): take the pointer as-is.
        rr_next_[set] = w + 1 == ways ? 0 : w + 1;
        return w;
      }
      for (std::uint32_t tries = 0; tries < ways; ++tries) {
        const std::uint32_t cand = (w + tries) % ways;
        if (!(locked_ways_ & (1u << cand))) {
          rr_next_[set] = (cand + 1) % ways;
          return cand;
        }
      }
      return PickVictimFallback();
    }
    for (std::uint32_t tries = 0; tries < 4 * ways; ++tries) {
      // 16-bit Galois LFSR.
      lfsr_ = (lfsr_ >> 1) ^ (-(lfsr_ & 1u) & 0xB400u);
      const std::uint32_t cand = static_cast<std::uint32_t>(lfsr_) % ways;
      if (!(locked_ways_ & (1u << cand))) {
        return cand;
      }
    }
    return PickVictimFallback();
  }

  // Degenerate cases (all-locked assertion, LFSR exhaustion): out of line.
  std::uint32_t PickVictimFallback();

  CacheConfig config_;
  std::uint32_t num_sets_;
  std::uint32_t ways_;
  std::uint32_t line_shift_;      // log2(line_bytes)
  std::uint32_t tag_shift_;       // log2(line_bytes * num_sets)
  std::uint64_t set_mask_;        // num_sets - 1
  std::uint32_t all_ways_mask_;   // (1 << ways) - 1 (saturated at 32 ways)
  // Tag of an invalid (non-resident) line. Unreachable by construction: a
  // real line's tag is addr >> tag_shift_, and every modelled address is
  // below 2^31, so no real tag has all 32 stored bits set.
  static constexpr std::uint32_t kInvalidTag = ~std::uint32_t{0};

  // Flat line array: num_sets * ways 32-bit tags, way-major within a set
  // (index = set * ways + way). Invalid lines hold kInvalidTag.
  std::vector<std::uint32_t> tags_;
  std::vector<std::uint32_t> rr_next_;  // per-set round-robin pointer
  std::uint32_t locked_ways_ = 0;       // bitmask of locked ways
  std::uint64_t lfsr_ = 0xACE1u;        // pseudo-random replacement state
  std::uint64_t gen_ = 1;               // line-state generation, see Gen()
};

}  // namespace pmk

#endif  // SRC_HW_CACHE_H_
