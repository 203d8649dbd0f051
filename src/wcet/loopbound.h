// Automatic loop-bound computation (paper Section 5.3).
//
// For each loop, the analysis slices out the register-machine operations that
// feed the loop-controlling branch and runs a bounded search for the maximum
// number of head executions, maximizing over the loop's declared input ranges
// and over the possible cycle shapes through the body. Loops without register
// semantics fall back to manual annotations — the paper's situation for loops
// its tools could not yet bound.

#ifndef SRC_WCET_LOOPBOUND_H_
#define SRC_WCET_LOOPBOUND_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/wcet/cfg.h"

namespace pmk {

struct LoopBoundResult {
  std::uint32_t bound = 0;  // 0 = unknown
  enum class Source : std::uint8_t {
    kUnknown,
    kComputed,    // slice + bounded search
    kAnnotation,  // Block::loop_bound_annotation
    kAbsolute,    // Block::absolute_exec_bound on the head
  } source = Source::kUnknown;
};

// The number of head executions of |loop| when its guard register |reg|
// enters at |init| and every iteration follows |cycle| (one simple cycle
// head -> ... -> head), before the guard sends the path out of the loop;
// nullopt when the search cannot bound it.
using CycleCounter = std::optional<std::uint32_t> (*)(const InlinedGraph& g,
                                                      const InlinedLoop& loop, std::uint8_t reg,
                                                      std::int64_t init,
                                                      const std::vector<EdgeId>& cycle);

// The bounded search itself: repeats |cycle| one iteration at a time, up to
// a cap on the iteration count.
std::optional<std::uint32_t> SimulateCycle(const InlinedGraph& g, const InlinedLoop& loop,
                                           std::uint8_t reg, std::int64_t init,
                                           const std::vector<EdgeId>& cycle);

// SimulateCycle's answer, computed in closed form when every update of the
// guard register in the cycle is a constant add and every guard a kGe/kLt
// comparison with an immediate; otherwise SimulateCycle.
std::optional<std::uint32_t> CountCycle(const InlinedGraph& g, const InlinedLoop& loop,
                                        std::uint8_t reg, std::int64_t init,
                                        const std::vector<EdgeId>& cycle);

// Computes (and stores into graph.mutable_loops()) bounds for every loop,
// counting each enumerated cycle with |count|. Returns one result per loop,
// aligned with graph.loops().
std::vector<LoopBoundResult> ComputeLoopBounds(InlinedGraph& graph,
                                               CycleCounter count = CountCycle);

}  // namespace pmk

#endif  // SRC_WCET_LOOPBOUND_H_
