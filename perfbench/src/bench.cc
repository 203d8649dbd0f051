#include "perfbench/src/bench.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

// ------------------------------------------------------------------ tracing

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Scope::Scope(const char* layer, const char* name) : start_(NowNs()) {
  Tracer& t = Get();
  if (!t.enabled_) {
    return;
  }
  index_ = static_cast<std::int32_t>(t.spans_.size());
  saved_parent_ = t.current_;
  t.spans_.push_back({layer, name, start_, 0, t.current_});
  t.current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) {
    return;
  }
  Tracer& t = Get();
  t.spans_[static_cast<std::size_t>(index_)].end_ns = NowNs();
  t.current_ = saved_parent_;
}

void Tracer::Append(const std::vector<Span>& spans) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span s : spans) {
    s.parent = s.parent < 0 ? -1 : s.parent + offset;
    spans_.push_back(s);
  }
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> out;
  for (const std::string& layer : Layers()) {
    out[layer] = 0;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) * 1e-9;
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name, std::size_t from) const {
  std::vector<double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
    }
  }
  return out;
}

// ------------------------------------------------------------------ stats

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Iqr(const std::vector<double>& v) { return Quantile(v, 0.75) - Quantile(v, 0.25); }

// ------------------------------------------------------------------ digests

bool ExpectedTable::Load(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    return false;
  }
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream is(line);
    std::string table, key, hex;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (!(is >> table >> key >> hex)) {
      return false;
    }
    rows_[table + " " + key] = std::stoull(hex, nullptr, 16);
  }
  return true;
}

bool ExpectedTable::Lookup(const std::string& table, const std::string& key,
                           std::uint64_t* out) const {
  const auto it = rows_.find(table + " " + key);
  if (it == rows_.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

void ExpectedTable::Set(const std::string& table, const std::string& key, std::uint64_t v) {
  rows_[table + " " + key] = v;
}

bool ExpectedTable::Save(const std::string& path) const {
  std::ofstream f(path);
  f << "# Digests of modelled outputs checked by perfbench (regenerate with --record).\n";
  for (const auto& [key, v] : rows_) {
    char hex[20];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, v);
    f << key << ' ' << hex << '\n';
  }
  return static_cast<bool>(f);
}

// ------------------------------------------------------------------ registry

RegistryWindow::RegistryWindow() { pmk::obs::MetricsRegistry::Get().Reset(); }

pmk::obs::MetricsSnapshot RegistryWindow::Read() const {
  Tracer::Scope s("obs", "Snapshot");
  return pmk::obs::MetricsRegistry::Get().Snapshot();
}

double HistSum(const pmk::obs::MetricsSnapshot& s, const std::string& name) {
  const pmk::obs::MetricRow* row = s.Find(name);
  return row == nullptr ? 0 : row->hist.Sum();
}

double HistCount(const pmk::obs::MetricsSnapshot& s, const std::string& name) {
  const pmk::obs::MetricRow* row = s.Find(name);
  return row == nullptr ? 0 : static_cast<double>(row->hist.Count());
}

double HistPercentile(const pmk::obs::MetricsSnapshot& s, const std::string& name, double p) {
  const pmk::obs::MetricRow* row = s.Find(name);
  return row == nullptr || row->hist.empty() ? 0 : static_cast<double>(row->hist.Percentile(p));
}

}  // namespace perfbench
