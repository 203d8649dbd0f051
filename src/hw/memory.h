// Main-memory latency model for the KZM / i.MX31 board.
//
// The board's external memory has a 60-cycle access latency when the L2 cache
// is disabled and 96 cycles when it is enabled (the L2 adds pipeline stages to
// the path to memory). An L2 hit costs 26 cycles (paper Sections 4 and 5.1).

#ifndef SRC_HW_MEMORY_H_
#define SRC_HW_MEMORY_H_

#include <cstdint>

#include "src/hw/cycles.h"

namespace pmk {

struct MemoryConfig {
  Cycles l2_hit_latency = 26;
  Cycles mem_latency_l2_off = 60;
  Cycles mem_latency_l2_on = 96;

  // ARM1136 pipeline: a load's result is available 3 cycles after issue
  // (2 stall cycles for an immediately-consuming instruction) even on an L1
  // hit. Charged per data access on top of the 1-cycle issue slot.
  Cycles load_use_stall = 2;
};

}  // namespace pmk

#endif  // SRC_HW_MEMORY_H_
