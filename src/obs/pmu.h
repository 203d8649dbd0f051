// PMU facade: ARM1136-style event counters with snapshot/delta semantics.
//
// The paper measures with the ARM1136 performance monitoring unit: a cycle
// counter plus two configurable event counters (cache misses, stalls,
// mispredicts). The modelled machine keeps all interesting events counting
// simultaneously in monotonic hardware counters (hw::Machine::counters());
// this facade packages them into the snapshot/delta idiom of PMU-based
// measurement: read CCNT and the event counters before and after a region,
// subtract.
//
// Reading a snapshot charges no modelled cycles (a real PMU read costs a few
// MCR instructions; the paper's measurements subtract that overhead out).

#ifndef SRC_OBS_PMU_H_
#define SRC_OBS_PMU_H_

#include <string>

#include "src/hw/machine.h"

namespace pmk {

// One PMU read: the machine's event counters plus the cycle counter.
struct PmuSnapshot : HwCounters {
  Cycles cycles = 0;  // CCNT

  // Counter-wise difference (this - earlier).
  PmuSnapshot operator-(const PmuSnapshot& earlier) const {
    PmuSnapshot d = *this;
    d -= earlier;
    d.cycles -= earlier.cycles;
    return d;
  }
  bool operator==(const PmuSnapshot&) const = default;
};

// Reads all counters at once. Purely observational: no state change, no
// modelled cost.
inline PmuSnapshot ReadPmu(const Machine& machine) {
  return {machine.counters(), machine.Now()};
}

// Formats a delta as a small human-readable table body: one "name value"
// line per counter, plus derived CPI and miss ratios.
std::string FormatPmuDelta(const PmuSnapshot& delta, const ClockSpec& clock);

}  // namespace pmk

#endif  // SRC_OBS_PMU_H_
