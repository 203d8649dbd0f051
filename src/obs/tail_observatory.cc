#include "src/obs/tail_observatory.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace pmk::obs {

double TailObservatory::Row::headroom() const {
  if (bound == 0 || hist.empty() || hist.max() == 0) {
    return 0;
  }
  return static_cast<double>(bound) / static_cast<double>(hist.max());
}

void TailObservatory::SetBound(const std::string& config, Cycles bound) {
  std::lock_guard<std::mutex> lock(mu_);
  bounds_[config] = bound;
}

void TailObservatory::SetUnenforced(const std::string& scenario) {
  std::lock_guard<std::mutex> lock(mu_);
  unenforced_[scenario] = true;
}

void TailObservatory::Touch(const std::string& config, const std::string& scenario) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_[Key{config, scenario}];
}

void TailObservatory::Record(const std::string& config, const std::string& scenario,
                             Cycles latency) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_[Key{config, scenario}].hist.Record(latency);
}

void TailObservatory::RecordHistogram(const std::string& config,
                                      const std::string& scenario,
                                      const LatencyHistogram& hist) {
  if (hist.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  cells_[Key{config, scenario}].hist.Merge(hist);
}

void TailObservatory::RecordIrqCounters(const std::string& config,
                                        const std::string& scenario,
                                        std::uint64_t spurious_acks,
                                        std::uint64_t coalesced_asserts) {
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[Key{config, scenario}];
  cell.spurious_acks += spurious_acks;
  cell.coalesced_asserts += coalesced_asserts;
}

std::vector<TailObservatory::Row> TailObservatory::Rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> rows;
  rows.reserve(cells_.size());
  for (const auto& [key, cell] : cells_) {
    Row row;
    row.config = key.config;
    row.scenario = key.scenario;
    row.hist = cell.hist;
    row.spurious_acks = cell.spurious_acks;
    row.coalesced_asserts = cell.coalesced_asserts;
    const auto bit = bounds_.find(key.config);
    row.bound = bit == bounds_.end() ? 0 : bit->second;
    row.enforced = unenforced_.find(key.scenario) == unenforced_.end();
    rows.push_back(std::move(row));
  }
  return rows;  // std::map iteration is already (config, scenario) sorted
}

bool TailObservatory::AnyExceedance() const {
  for (const Row& row : Rows()) {
    if (row.enforced && row.exceeded()) {
      return true;
    }
  }
  return false;
}

std::string TailObservatory::RenderTable() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "  %-14s %-24s %7s %8s %8s %8s %8s %8s %9s %s\n",
                "config", "scenario", "n", "p50", "p90", "p99", "max", "bound",
                "headroom", "status");
  out += buf;
  for (const Row& row : Rows()) {
    const LatencyHistogram::Summary s = row.hist.Summarize();
    char bound_buf[32];
    if (row.bound == 0) {
      std::snprintf(bound_buf, sizeof(bound_buf), "%8s", "-");
    } else {
      std::snprintf(bound_buf, sizeof(bound_buf), "%8llu",
                    static_cast<unsigned long long>(row.bound));
    }
    char head_buf[32];
    if (row.headroom() == 0) {
      std::snprintf(head_buf, sizeof(head_buf), "%9s", "-");
    } else {
      std::snprintf(head_buf, sizeof(head_buf), "%8.2fx", row.headroom());
    }
    const char* status = "ok";
    if (row.hist.empty()) {
      status = "no-irqs";
    } else if (row.exceeded()) {
      status = row.enforced ? "EXCEEDED" : "info-exceeded";
    } else if (!row.enforced) {
      status = "info";
    }
    std::snprintf(buf, sizeof(buf), "  %-14s %-24s %7llu %8llu %8llu %8llu %8llu %s %s %s\n",
                  row.config.c_str(), row.scenario.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.p50),
                  static_cast<unsigned long long>(s.p90),
                  static_cast<unsigned long long>(s.p99),
                  static_cast<unsigned long long>(s.max), bound_buf, head_buf, status);
    out += buf;
  }
  return out;
}

void TailObservatory::WriteCsv(std::ostream& os) const {
  os << "config,scenario,count,min,p50,p90,p99,max,bound,headroom,enforced,exceeded,"
        "spurious_acks,coalesced_asserts\n";
  for (const Row& row : Rows()) {
    const LatencyHistogram::Summary s = row.hist.Summarize();
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s,%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.4f,%d,%d,%llu,%llu\n",
                  row.config.c_str(), row.scenario.c_str(),
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.min),
                  static_cast<unsigned long long>(s.p50),
                  static_cast<unsigned long long>(s.p90),
                  static_cast<unsigned long long>(s.p99),
                  static_cast<unsigned long long>(s.max),
                  static_cast<unsigned long long>(row.bound), row.headroom(),
                  row.enforced ? 1 : 0, row.exceeded() ? 1 : 0,
                  static_cast<unsigned long long>(row.spurious_acks),
                  static_cast<unsigned long long>(row.coalesced_asserts));
    os << buf;
  }
}

void TailSink::Flush() {
  if (flushed_ || observatory_ == nullptr) {
    return;
  }
  observatory_->Touch(config_, scenario_);
  observatory_->RecordHistogram(config_, scenario_, hist_);
  flushed_ = true;
}

TailSink::~TailSink() { Flush(); }

}  // namespace pmk::obs
