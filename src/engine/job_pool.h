// Deterministic job pool: ordinal-indexed fan-out over a std::thread pool.
//
// The campaign engine's determinism contract is built on one rule: a job's
// INPUTS are a pure function of its ordinal index (plans precomputed
// serially, RNG streams derived via SplitMix64::Split(index)), and its
// OUTPUT is written to a preallocated slot at that index. Threads claim
// index chunks off a shared atomic counter, so execution order is arbitrary, but
// nothing observable depends on it — `jobs=N` output is byte-identical to
// `jobs=1` for any N.

#ifndef SRC_ENGINE_JOB_POOL_H_
#define SRC_ENGINE_JOB_POOL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace pmk::engine {

// Progress reporting for long fan-outs (the --progress flag family). When
// enabled, RunJobs prints "  progress <done>/<n>" lines to stderr — stderr
// only, so stdout goldens and CSV byte-identity are untouched. Off by
// default.
void SetProgress(bool on);

// Invokes fn(i) once for every i in [0, n). With jobs <= 1 (or n <= 1) the
// calls run inline on the calling thread in index order; otherwise
// min(jobs, n) worker threads dynamically claim contiguous index chunks
// (~8 per worker) from an atomic counter — contention amortized over the
// chunk, load balancing preserved because idle workers keep claiming. All
// calls complete before RunJobs returns. fn must confine its effects to
// per-index state (e.g. results[i]); it is invoked concurrently.
//
// Exceptions: every throwing index is captured; after all workers join, the
// exception from the LOWEST index is rethrown — the same one a serial
// in-order execution would have surfaced first.
void RunJobs(std::size_t n, unsigned jobs, const std::function<void(std::size_t)>& fn);

// results[i] = fn(i), in ordinal order regardless of execution order.
// T must be default-constructible and movable.
template <typename T, typename Fn>
std::vector<T> ParallelMap(std::size_t n, unsigned jobs, Fn&& fn) {
  std::vector<T> results(n);
  RunJobs(n, jobs, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace pmk::engine

#endif  // SRC_ENGINE_JOB_POOL_H_
