#include "src/obs/block_profile.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace pmk {

void BlockProfiler::OnEvent(const TraceEvent& event) {
  if (event.kind != TraceEventKind::kBlockCost) {
    return;
  }
  if (event.id >= stats_.size()) {
    stats_.resize(event.id + 1);
  }
  BlockStats& s = stats_[event.id];
  s.block = event.id;
  s.execs++;
  s.total_cycles += event.arg0;
  s.max_cycles = std::max(s.max_cycles, Cycles{event.arg0});
  s.l1i_misses += event.arg1;
  s.l1d_misses += event.arg2;
}

BlockStats BlockProfiler::StatsFor(BlockId id) const {
  if (id < stats_.size() && stats_[id].execs != 0) {
    return stats_[id];
  }
  BlockStats empty;
  empty.block = id;
  return empty;
}

Cycles BlockProfiler::TotalCycles() const {
  Cycles total = 0;
  for (const BlockStats& s : stats_) {
    total += s.total_cycles;
  }
  return total;
}

std::vector<BlockStats> BlockProfiler::Ranked() const {
  std::vector<BlockStats> out;
  for (const BlockStats& s : stats_) {
    if (s.execs != 0) {
      out.push_back(s);
    }
  }
  std::sort(out.begin(), out.end(), [](const BlockStats& a, const BlockStats& b) {
    if (a.total_cycles != b.total_cycles) {
      return a.total_cycles > b.total_cycles;
    }
    return a.block < b.block;
  });
  return out;
}

void BlockProfiler::PrintTopBlocks(const Program& program, std::size_t top_n,
                                   const std::vector<Cycles>* bounds, std::ostream& os) const {
  const std::vector<BlockStats> ranked = Ranked();
  char buf[256];
  if (bounds != nullptr) {
    std::snprintf(buf, sizeof(buf), "  %-28s %8s %10s %8s %6s %6s %8s %7s\n", "block", "execs",
                  "cycles", "max", "l1i_m", "l1d_m", "bound", "max/bd");
  } else {
    std::snprintf(buf, sizeof(buf), "  %-28s %8s %10s %8s %6s %6s\n", "block", "execs", "cycles",
                  "max", "l1i_m", "l1d_m");
  }
  os << buf;
  const std::size_t n = std::min(top_n, ranked.size());
  for (std::size_t i = 0; i < n; ++i) {
    const BlockStats& s = ranked[i];
    const Block& b = program.block(s.block);
    std::string label = program.function(b.func).name + ":" + b.name;
    if (label.size() > 28) {
      label.resize(28);
    }
    if (bounds != nullptr) {
      const Cycles bound = s.block < bounds->size() ? (*bounds)[s.block] : 0;
      std::snprintf(buf, sizeof(buf), "  %-28s %8llu %10llu %8llu %6llu %6llu %8llu %6.0f%%\n",
                    label.c_str(), static_cast<unsigned long long>(s.execs),
                    static_cast<unsigned long long>(s.total_cycles),
                    static_cast<unsigned long long>(s.max_cycles),
                    static_cast<unsigned long long>(s.l1i_misses),
                    static_cast<unsigned long long>(s.l1d_misses),
                    static_cast<unsigned long long>(bound),
                    bound == 0 ? 0.0
                               : 100.0 * static_cast<double>(s.max_cycles) /
                                     static_cast<double>(bound));
    } else {
      std::snprintf(buf, sizeof(buf), "  %-28s %8llu %10llu %8llu %6llu %6llu\n", label.c_str(),
                    static_cast<unsigned long long>(s.execs),
                    static_cast<unsigned long long>(s.total_cycles),
                    static_cast<unsigned long long>(s.max_cycles),
                    static_cast<unsigned long long>(s.l1i_misses),
                    static_cast<unsigned long long>(s.l1d_misses));
    }
    os << buf;
  }
}

bool BlockProfiler::CheckAgainstBounds(const std::vector<Cycles>& bounds,
                                       std::ostream* err) const {
  bool ok = true;
  for (const BlockStats& s : stats_) {
    if (s.execs == 0) {
      continue;
    }
    const Cycles bound = s.block < bounds.size() ? bounds[s.block] : 0;
    if (s.max_cycles > bound) {
      ok = false;
      if (err != nullptr) {
        *err << "block " << s.block << ": observed max " << s.max_cycles << " > bound " << bound
             << "\n";
      }
    }
  }
  return ok;
}

}  // namespace pmk
