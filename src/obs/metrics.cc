#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

namespace pmk::obs {

std::atomic<bool> MetricsRegistry::enabled_{true};

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kTimer:
      return "timer";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

// One thread's private slice of every counter/histogram metric. The owning
// thread takes |mu| around each record; Snapshot/Reset take it around the
// merge. In steady state the mutex is uncontended, so a record costs one
// atomic acquire/release pair plus the array write.
struct MetricsRegistry::Shard {
  std::mutex mu;
  std::vector<std::uint64_t> counters;
  std::vector<LatencyHistogram> hists;

  void EnsureSize(std::size_t n) {
    if (counters.size() < n) {
      counters.resize(n, 0);
      hists.resize(n);
    }
  }
};

struct MetricsRegistry::Impl {
  std::mutex mu;  // guards names/ids/gauges/shard list/retired
  std::map<std::string, std::uint32_t> ids;
  std::vector<std::pair<MetricKind, std::string>> metrics;  // by id
  // Gauges live in the registry itself (unique_ptr keeps addresses stable
  // across registration growth).
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> gauges;
  std::vector<Shard*> shards;  // live per-thread shards (owned)
  Shard retired;               // merged contributions of exited threads

  std::size_t num_metrics() const { return metrics.size(); }
};

namespace {

// Registered per thread on first record; merges the shard's contents into
// the registry's retired accumulator when the thread exits, so no sample is
// ever lost.
struct ShardHandle {
  MetricsRegistry::Impl* impl = nullptr;
  MetricsRegistry::Shard* shard = nullptr;
  ~ShardHandle();
};

void MergeShardInto(MetricsRegistry::Shard& dst, const MetricsRegistry::Shard& src) {
  dst.EnsureSize(src.counters.size());
  for (std::size_t i = 0; i < src.counters.size(); ++i) {
    dst.counters[i] += src.counters[i];
    dst.hists[i].Merge(src.hists[i]);
  }
}

ShardHandle::~ShardHandle() {
  if (impl == nullptr || shard == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> reg_lock(impl->mu);
  {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    MergeShardInto(impl->retired, *shard);
  }
  auto it = std::find(impl->shards.begin(), impl->shards.end(), shard);
  if (it != impl->shards.end()) {
    impl->shards.erase(it);
  }
  delete shard;
}

}  // namespace

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}

MetricsRegistry& MetricsRegistry::Get() {
  // Leaked on purpose (see header): must outlive thread_local destructors
  // and static handle destructors in any order.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

std::uint32_t MetricsRegistry::Register(MetricKind kind, const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->ids.find(name);
  if (it != impl_->ids.end()) {
    return it->second;
  }
  const auto id = static_cast<std::uint32_t>(impl_->metrics.size());
  impl_->ids.emplace(name, id);
  impl_->metrics.emplace_back(kind, name);
  impl_->gauges.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  return id;
}

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  thread_local ShardHandle handle;
  if (handle.shard == nullptr) {
    auto* shard = new Shard();
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      impl_->shards.push_back(shard);
    }
    handle.impl = impl_;
    handle.shard = shard;
  }
  return *handle.shard;
}

void MetricsRegistry::Add(std::uint32_t id, std::uint64_t delta) {
  Shard& s = LocalShard();
  std::lock_guard<std::mutex> lock(s.mu);
  s.EnsureSize(id + 1);
  s.counters[id] += delta;
}

void MetricsRegistry::RecordValue(std::uint32_t id, std::uint64_t value) {
  Shard& s = LocalShard();
  std::lock_guard<std::mutex> lock(s.mu);
  s.EnsureSize(id + 1);
  s.hists[id].Record(value);
  s.counters[id] += 1;
}

void MetricsRegistry::MergeHistogram(std::uint32_t id, const LatencyHistogram& hist) {
  Shard& s = LocalShard();
  std::lock_guard<std::mutex> lock(s.mu);
  s.EnsureSize(id + 1);
  s.hists[id].Merge(hist);
  s.counters[id] += hist.count();
}

void MetricsRegistry::GaugeSet(std::uint32_t id, std::int64_t value) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (id < impl_->gauges.size()) {
    impl_->gauges[id]->store(value, std::memory_order_relaxed);
  }
}

void MetricsRegistry::GaugeAdd(std::uint32_t id, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (id < impl_->gauges.size()) {
    impl_->gauges[id]->fetch_add(delta, std::memory_order_relaxed);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  const std::size_t n = impl_->num_metrics();

  // Merge every live shard plus the retired accumulator. Counter addition
  // and histogram bucket merges are commutative and associative, so the
  // result is independent of shard order and thread interleaving.
  Shard merged;
  merged.EnsureSize(n);
  MergeShardInto(merged, impl_->retired);
  for (Shard* s : impl_->shards) {
    std::lock_guard<std::mutex> shard_lock(s->mu);
    MergeShardInto(merged, *s);
  }

  snap.rows.reserve(n);
  for (std::size_t id = 0; id < n; ++id) {
    MetricRow row;
    row.kind = impl_->metrics[id].first;
    row.name = impl_->metrics[id].second;
    row.counter = id < merged.counters.size() ? merged.counters[id] : 0;
    row.gauge = impl_->gauges[id]->load(std::memory_order_relaxed);
    if (id < merged.hists.size()) {
      row.hist = merged.hists[id];
    }
    snap.rows.push_back(std::move(row));
  }
  std::sort(snap.rows.begin(), snap.rows.end(),
            [](const MetricRow& a, const MetricRow& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto clear = [](Shard& s) {
    std::fill(s.counters.begin(), s.counters.end(), 0);
    for (LatencyHistogram& h : s.hists) {
      h.Reset();
    }
  };
  {
    std::lock_guard<std::mutex> shard_lock(impl_->retired.mu);
    clear(impl_->retired);
  }
  for (Shard* s : impl_->shards) {
    std::lock_guard<std::mutex> shard_lock(s->mu);
    clear(*s);
  }
  for (auto& g : impl_->gauges) {
    g->store(0, std::memory_order_relaxed);
  }
}

// ------------------------------------------------------------- snapshot I/O

const MetricRow* MetricsSnapshot::Find(const std::string& name) const {
  for (const MetricRow& r : rows) {
    if (r.name == name) {
      return &r;
    }
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  const MetricRow* r = Find(name);
  return r == nullptr ? 0 : r->counter;
}

namespace {

void JsonEscape(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      os << buf;
    } else {
      os << c;
    }
  }
}

void WriteHistFields(std::ostream& os, const LatencyHistogram& h) {
  const LatencyHistogram::Summary s = h.Summarize();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"count\":%llu,\"min\":%llu,\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,"
                "\"max\":%llu,\"mean\":%.3f",
                static_cast<unsigned long long>(s.count),
                static_cast<unsigned long long>(s.min),
                static_cast<unsigned long long>(s.p50),
                static_cast<unsigned long long>(s.p90),
                static_cast<unsigned long long>(s.p99),
                static_cast<unsigned long long>(s.max), s.mean);
  os << buf;
}

}  // namespace

void MetricsSnapshot::WriteJsonl(std::ostream& os) const {
  for (const MetricRow& r : rows) {
    os << "{\"metric\":\"";
    JsonEscape(os, r.name);
    os << "\",\"kind\":\"" << MetricKindName(r.kind) << "\",";
    switch (r.kind) {
      case MetricKind::kCounter:
        os << "\"value\":" << r.counter;
        break;
      case MetricKind::kGauge:
        os << "\"value\":" << r.gauge;
        break;
      case MetricKind::kTimer:
      case MetricKind::kHistogram:
        WriteHistFields(os, r.hist);
        break;
    }
    os << "}\n";
  }
}

void MetricsSnapshot::WriteCsv(std::ostream& os) const {
  os << "metric,kind,count,value,min,p50,p90,p99,max,mean\n";
  for (const MetricRow& r : rows) {
    os << r.name << ',' << MetricKindName(r.kind) << ',';
    if (r.kind == MetricKind::kCounter) {
      os << r.counter << ',' << r.counter << ",,,,,,\n";
    } else if (r.kind == MetricKind::kGauge) {
      os << 1 << ',' << r.gauge << ",,,,,,\n";
    } else {
      const LatencyHistogram::Summary s = r.hist.Summarize();
      char buf[224];
      std::snprintf(buf, sizeof(buf), "%llu,,%llu,%llu,%llu,%llu,%llu,%.3f\n",
                    static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.min),
                    static_cast<unsigned long long>(s.p50),
                    static_cast<unsigned long long>(s.p90),
                    static_cast<unsigned long long>(s.p99),
                    static_cast<unsigned long long>(s.max), s.mean);
      os << buf;
    }
  }
}

std::string ObsLabeled(const std::string& name, const std::string& key,
                       const std::string& value) {
  return name + "{" + key + "=" + value + "}";
}

}  // namespace pmk::obs
