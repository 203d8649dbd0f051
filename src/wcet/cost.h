// Conservative per-node cost model (paper Section 5.1).
//
// The caches are analyzed as direct-mapped caches of one way's size — "a
// pessimistic but sound approximation", since the most recently accessed line
// in a set is guaranteed resident under round-robin replacement. A must-cache
// abstract analysis over the inlined graph classifies fetches and
// statically-addressed data accesses; a persistence analysis classifies lines
// that cannot be evicted within a loop as first-miss and charges them on the
// loop's entry edges (Chronos-style cache analysis). Dynamically-addressed
// accesses are conservatively charged as misses on every execution. The L2
// is not modelled beyond its effect on the memory latency (Chronos's address
// analysis is substituted by the kernel IR's declared access discipline; see
// DESIGN.md).

#ifndef SRC_WCET_COST_H_
#define SRC_WCET_COST_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/hw/cycles.h"
#include "src/kir/trace.h"
#include "src/wcet/cfg.h"

namespace pmk {

// Sorted flat vector of way-locked line addresses. Keeps the std::set-shaped
// construction API (insert one / insert range, count) that analysis.cc and
// the tests use, but membership probes in the cost hot loop are a binary
// search over contiguous storage instead of pointer-chasing a red-black tree.
class PinnedLineSet {
 public:
  PinnedLineSet() = default;

  void insert(Addr line) {
    const auto it = std::lower_bound(lines_.begin(), lines_.end(), line);
    if (it == lines_.end() || *it != line) {
      lines_.insert(it, line);
    }
  }
  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) {
      insert(*first);
    }
  }
  std::size_t count(Addr line) const {
    return std::binary_search(lines_.begin(), lines_.end(), line) ? 1u : 0u;
  }
  bool empty() const { return lines_.empty(); }
  std::size_t size() const { return lines_.size(); }
  const std::vector<Addr>& lines() const { return lines_; }

 private:
  std::vector<Addr> lines_;
};

struct CostModelOptions {
  bool l2_enabled = false;
  Cycles mem_latency_l2_off = 60;
  Cycles mem_latency_l2_on = 96;
  Cycles l2_hit_latency = 26;
  Cycles load_use_stall = 2;  // ARM1136 load result latency (pipeline model)
  Cycles branch_cost = 5;     // branch predictor disabled: constant 5 cycles
  std::uint32_t line_bytes = 32;
  std::uint32_t way_bytes = 4 * 1024;  // 16 KiB 4-way: one way = 4 KiB
  PinnedLineSet pinned_ilines;         // way-locked lines: always hit
  PinnedLineSet pinned_dlines;

  // "Lock the entire kernel into the L2" (paper Sections 4, 6.4, 8): every
  // statically-addressed access within [l2_pinned_lo, l2_pinned_hi) misses
  // no further than the L2. Requires l2_enabled.
  bool l2_kernel_pinned = false;
  Addr l2_pinned_lo = 0;
  Addr l2_pinned_hi = 0;

  Cycles MissPenalty() const { return l2_enabled ? mem_latency_l2_on : mem_latency_l2_off; }
  Cycles MissPenaltyFor(Addr addr) const {
    if (l2_kernel_pinned && addr >= l2_pinned_lo && addr < l2_pinned_hi) {
      return l2_hit_latency;
    }
    return MissPenalty();
  }
};

// One statically-known line touch of a block.
struct LineAccess {
  Addr line = 0;
  bool instruction = false;
};

// Enumerates the statically-known lines a block touches, pinned ones included.
void CollectAccesses(const Program& p, const Block& b, const CostModelOptions& opts,
                     std::vector<LineAccess>& out);

// Whether |a| is a way-locked line (always a hit).
bool IsPinned(const CostModelOptions& opts, const LineAccess& a);

// Fixed (cache-independent) cost of one block execution.
Cycles BaseCost(const Block& b, const CostModelOptions& opts);

// ---- The must-cache domain, shared by every pass over abstract caches ----

// Abstract direct-mapped must-cache: per set, the line guaranteed resident.
class MustCache {
 public:
  static constexpr Addr kUnknownLine = static_cast<Addr>(-1);

  MustCache(std::uint32_t way_bytes, std::uint32_t line_bytes)
      : line_bytes_(line_bytes), sets_(way_bytes / line_bytes, kUnknownLine) {}

  // Returns true if the access is a guaranteed hit; installs the line.
  bool Access(Addr addr) {
    const Addr line = addr / line_bytes_ * line_bytes_;
    const std::uint32_t s = static_cast<std::uint32_t>((line / line_bytes_) % sets_.size());
    const bool hit = sets_[s] == line;
    sets_[s] = line;
    return hit;
  }

  void JoinWith(const MustCache& other) {
    for (std::size_t i = 0; i < sets_.size(); ++i) {
      if (sets_[i] != other.sets_[i]) {
        sets_[i] = kUnknownLine;
      }
    }
  }

  bool operator==(const MustCache& other) const { return sets_ == other.sets_; }

 private:
  std::uint32_t line_bytes_;
  std::vector<Addr> sets_;
};

struct AbstractState {
  MustCache icache;
  MustCache dcache;
  bool reachable = false;

  AbstractState(std::uint32_t way, std::uint32_t line) : icache(way, line), dcache(way, line) {}

  bool operator==(const AbstractState& o) const {
    return reachable == o.reachable && icache == o.icache && dcache == o.dcache;
  }
};

// Per-block cost-model state derived once from (program, options) and shared
// by every analysis pass: the statically-known line accesses of each block
// with way-locked (pinned) lines already filtered out, the cache-independent
// base cost, and the any-state worst-case cost. Immutable after
// construction, so it is safe to share across the job pool's threads.
class CostModelCache {
 public:
  CostModelCache(const Program& program, const CostModelOptions& opts);

  const Program& program() const { return *program_; }
  const CostModelOptions& options() const { return opts_; }

  const LineAccess* accesses_begin(BlockId id) const { return pool_.data() + start_[id]; }
  const LineAccess* accesses_end(BlockId id) const { return pool_.data() + start_[id + 1]; }
  Cycles base_cost(BlockId id) const { return base_[id]; }
  // Unconditional per-execution ceiling: every non-pinned access is assumed
  // to miss. Unlike must-cache node costs (which depend on the abstract cache
  // state reaching the node), this bound holds for ANY concrete cache state,
  // so profiled per-execution block costs can be checked against it
  // directly. Sound for the default (branch predictor disabled) machine
  // configuration, where a branch always charges opts.branch_cost.
  Cycles worst_case(BlockId id) const { return worst_[id]; }

 private:
  const Program* program_;
  CostModelOptions opts_;
  std::vector<std::uint32_t> start_;  // num_blocks + 1, CSR-style offsets
  std::vector<LineAccess> pool_;
  std::vector<Cycles> base_;
  std::vector<Cycles> worst_;
};

struct CostResult {
  std::vector<Cycles> node_costs;   // per inlined node, per execution
  std::vector<Cycles> edge_extras;  // per inlined edge: loop first-miss cost
};

// Computes worst-case execution costs: per-node recurring cost plus, for
// loop-persistent lines, a one-time cost on the loop's entry edges.
// Loop bounds must already be attached (ComputeLoopBounds) so innermost-loop
// membership is known.
CostResult ComputeNodeCosts(const InlinedGraph& graph, const CostModelCache& cache);

// Conservative cost of one concrete executed path (block sequence), using
// the same cost model without joins. Used to force the analysis onto a
// measured path (paper Sections 5.4 and 6.2).
Cycles EvaluateTraceCost(const CostModelCache& cache, const Trace& trace);

}  // namespace pmk

#endif  // SRC_WCET_COST_H_
