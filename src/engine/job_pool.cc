#include "src/engine/job_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "src/obs/metrics.h"

namespace pmk::engine {

namespace {

std::atomic<bool> g_progress{false};

// Telemetry around the pool: batch counts/durations, total jobs executed and
// a live queue-depth gauge. Observers only — nothing here feeds back into
// job inputs or collection order.
obs::Counter& BatchCounter() {
  static obs::Counter c("engine.jobs.batches");
  return c;
}
obs::Counter& JobCounter() {
  static obs::Counter c("engine.jobs.executed");
  return c;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge g("engine.jobs.queue_depth");
  return g;
}
obs::Timer& BatchTimer() {
  static obs::Timer t("engine.jobs.batch_nanos");
  return t;
}
// Per-job wall time, inline and threaded paths alike. The snapshot exporters
// derive p50/p90/p99 from it (--metrics-json), making stragglers — one slow
// run dominating a shard — visible without any per-run printing.
obs::Timer& JobWallTimer() {
  static obs::Timer t("engine.jobs.job_wall_nanos");
  return t;
}

// Decile progress lines on stderr; |done| is the post-increment count.
void MaybeReportProgress(std::size_t done, std::size_t n) {
  if (n < 2) {
    return;
  }
  const std::size_t step = std::max<std::size_t>(1, n / 10);
  if (done == n || done % step == 0) {
    std::fprintf(stderr, "  progress %zu/%zu\n", done, n);
  }
}

}  // namespace

void SetProgress(bool on) { g_progress.store(on, std::memory_order_relaxed); }

void RunJobs(std::size_t n, unsigned jobs, const std::function<void(std::size_t)>& fn) {
  if (n == 0) {
    return;
  }
  BatchCounter().Inc();
  QueueDepthGauge().Set(static_cast<std::int64_t>(n));
  const auto batch_scope = BatchTimer().Measure();
  const bool progress = g_progress.load(std::memory_order_relaxed);
  if (jobs <= 1 || n == 1) {
    // Inline path: no threads, index order. This is the reference execution
    // the parallel path must be observably identical to.
    for (std::size_t i = 0; i < n; ++i) {
      {
        const auto job_scope = JobWallTimer().Measure();
        fn(i);
      }
      JobCounter().Inc();
      if (progress) {
        MaybeReportProgress(i + 1, n);
      }
    }
    QueueDepthGauge().Set(0);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  // Lowest throwing index wins, matching what serial execution would surface.
  std::mutex err_mu;
  std::size_t err_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr err;

  // Dynamic chunked claiming: each claim takes a contiguous run of indices,
  // amortizing the shared-counter contention over |chunk| jobs while staying
  // load-balanced (a straggler chunk only delays its own worker; idle workers
  // keep draining the counter). ~8 chunks per worker keeps the tail short.
  // Outputs stay byte-identical at any --jobs: inputs are still a pure
  // function of the ordinal and results land in per-index slots, so chunk
  // geometry affects only execution order, which nothing observable reads.
  const std::size_t n_threads = std::min<std::size_t>(jobs, n);
  const std::size_t chunk = std::max<std::size_t>(1, n / (n_threads * 8));
  const auto worker = [&] {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) {
        return;
      }
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t i = begin; i < end; ++i) {
        try {
          const auto job_scope = JobWallTimer().Measure();
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (i < err_index) {
            err_index = i;
            err = std::current_exception();
          }
        }
        JobCounter().Inc();
        const std::size_t completed = done.fetch_add(1, std::memory_order_relaxed) + 1;
        QueueDepthGauge().Set(static_cast<std::int64_t>(n - completed));
        if (progress) {
          MaybeReportProgress(completed, n);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  if (err) {
    std::rethrow_exception(err);
  }
}

}  // namespace pmk::engine
