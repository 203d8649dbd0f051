#include "src/obs/pmu.h"

#include <cstdio>

namespace pmk {

std::string FormatPmuDelta(const PmuSnapshot& d, const ClockSpec& clock) {
  char buf[256];
  std::string out;
  const auto line = [&](const char* name, std::uint64_t v) {
    std::snprintf(buf, sizeof(buf), "  %-22s %12llu\n", name,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  line("cycles", d.cycles);
  std::snprintf(buf, sizeof(buf), "  %-22s %12.2f\n", "micros", clock.ToMicros(d.cycles));
  out += buf;
  line("instructions", d.instructions);
  line("l1i_misses", d.l1i_misses);
  line("l1d_misses", d.l1d_misses);
  line("l2_accesses", d.l2_accesses);
  line("l2_misses", d.l2_misses);
  line("branches", d.branches);
  line("branch_mispredicts", d.branch_mispredicts);
  line("mem_stall_cycles", d.mem_stall_cycles);
  if (d.instructions != 0) {
    std::snprintf(buf, sizeof(buf), "  %-22s %12.2f\n", "cpi",
                  static_cast<double>(d.cycles) / static_cast<double>(d.instructions));
    out += buf;
  }
  if (d.cycles != 0) {
    std::snprintf(buf, sizeof(buf), "  %-22s %11.1f%%\n", "stall_fraction",
                  100.0 * static_cast<double>(d.mem_stall_cycles) /
                      static_cast<double>(d.cycles));
    out += buf;
  }
  return out;
}

}  // namespace pmk
