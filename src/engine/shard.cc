#include "src/engine/shard.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <utility>

#include "src/engine/job_pool.h"
#include "src/engine/journal.h"
#include "src/engine/wire.h"
#include "src/obs/metrics.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace pmk::engine {

namespace {

// Respawn backoff after a worker death: kBackoffBaseMs * 2^(deaths-1),
// capped at kBackoffCapMs.
constexpr std::uint64_t kBackoffBaseMs = 50;
constexpr std::uint64_t kBackoffCapMs = 1'000;

bool g_in_worker = false;

std::uint64_t NowMs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// ------------------------------------------------------------- pipe protocol
//
// Worker -> supervisor stream. Every frame resets the worker's watchdog, so
// the protocol doubles as a heartbeat: a worker making progress is never
// killed, however long the whole shard takes.

std::vector<std::uint8_t> EncodeStart(std::uint32_t ordinal) {
  WireWriter w;
  w.U32(ordinal);
  std::vector<std::uint8_t> frame;
  AppendFrame(frame, FrameType::kTaskStart, w.bytes());
  return frame;
}

std::vector<std::uint8_t> EncodeResult(std::uint32_t ordinal,
                                       const std::vector<std::uint8_t>& payload) {
  WireWriter w;
  w.U32(ordinal);
  w.Bytes(payload);
  std::vector<std::uint8_t> frame;
  AppendFrame(frame, FrameType::kTaskResult, w.bytes());
  return frame;
}

std::vector<std::uint8_t> EncodeDone(std::uint32_t n_completed) {
  WireWriter w;
  w.U32(n_completed);
  std::vector<std::uint8_t> frame;
  AppendFrame(frame, FrameType::kWorkerDone, w.bytes());
  return frame;
}

bool WriteAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;  // supervisor gone (EPIPE) or fd broken
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Worker body. Never returns: _exit() skips atexit/static destructors (and
// sanitizer leak sweeps) in the forked copy — the parent owns process-level
// cleanup; the child's only contract is the frame stream.
[[noreturn]] void WorkerMain(const std::vector<ShardTask>& tasks,
                             const std::vector<std::uint32_t>& ordinals, int write_fd,
                             const ShardOptions& opts) {
  g_in_worker = true;
  ::signal(SIGPIPE, SIG_IGN);  // a dead supervisor surfaces as EPIPE, not SIGPIPE
  try {
    std::mutex pipe_mu;
    bool write_failed = false;
    RunJobs(ordinals.size(), opts.jobs_per_shard, [&](std::size_t k) {
      const std::uint32_t ord = ordinals[k];
      {
        const std::lock_guard<std::mutex> lock(pipe_mu);
        if (write_failed || !WriteAll(write_fd, EncodeStart(ord))) {
          write_failed = true;
          return;
        }
      }
      const std::vector<std::uint8_t> payload = tasks[ord].execute();
      const std::lock_guard<std::mutex> lock(pipe_mu);
      if (!write_failed && !WriteAll(write_fd, EncodeResult(ord, payload))) {
        write_failed = true;
      }
    });
    if (write_failed) {
      ::_exit(3);
    }
    WriteAll(write_fd, EncodeDone(static_cast<std::uint32_t>(ordinals.size())));
  } catch (...) {
    // A throwing task is a worker death: the supervisor blames the in-flight
    // ordinals and retries/quarantines them. No unwinding past fork().
    ::_exit(2);
  }
  ::_exit(0);
}

// ------------------------------------------------------------- supervisor

struct Metrics {
  obs::Counter workers_spawned{"engine.shard.workers_spawned"};
  obs::Counter retries{"engine.shard.retries"};
  obs::Counter timeouts{"engine.shard.timeouts"};
  obs::Counter quarantines{"engine.shard.quarantines"};
  obs::Counter worker_deaths{"engine.shard.worker_deaths"};
  obs::Counter fallbacks{"engine.shard.fallbacks"};
  obs::Counter tasks_executed{"engine.shard.tasks_executed"};
  obs::Timer worker_wall{"engine.shard.worker_wall_nanos"};
};

Metrics& M() {
  static Metrics m;
  return m;
}

class ShardRun {
 public:
  ShardRun(const std::vector<ShardTask>& tasks, const ShardOptions& opts, ShardOutcome& out)
      : tasks_(tasks), opts_(opts), out_(out) {
    if (!opts_.journal_dir.empty()) {
      journal_ = std::make_unique<ResultJournal>(opts_.journal_dir, opts_.journal_digest);
    }
  }

  void Execute() {
    out_.payloads.assign(tasks_.size(), {});
    out_.completed.assign(tasks_.size(), 0);

    // Resume pass: anything already journaled (same kernel digest, task key
    // and seed) is a hit and is never re-executed.
    if (journal_ != nullptr) {
      for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
        auto hit = journal_->Lookup(JournalKey(i));
        if (hit.has_value()) {
          out_.payloads[i] = std::move(*hit);
          out_.completed[i] = 1;
          ++out_.stats.journal_hits;
          out_.stats.resumed = true;
        }
      }
    }

    std::vector<std::uint32_t> missing;
    for (std::uint32_t i = 0; i < tasks_.size(); ++i) {
      if (!out_.completed[i]) {
        missing.push_back(i);
      }
    }
    if (missing.empty()) {
      return;
    }

    if (opts_.shards == 0) {
      RunInProcess(missing, /*fallback=*/false);
      return;
    }

    // Deterministic partition: ordinal % shards. A resumed campaign assigns
    // each surviving run to the same shard it had originally.
    const std::uint32_t shards =
        std::min<std::uint32_t>(opts_.shards, static_cast<std::uint32_t>(missing.size()));
    std::vector<std::vector<std::uint32_t>> assignment(shards);
    for (const std::uint32_t ord : missing) {
      assignment[ord % shards].push_back(ord);
    }
    if (!RunWave(assignment, /*allow_retry=*/true)) {
      return;  // fork unavailable: RunWave already fell back in-process
    }

    // Quarantine wave: every ordinal that exhausted max_attempts gets one
    // final attempt in an isolated single-run worker, so a poison run's blast
    // radius is exactly itself.
    std::vector<std::vector<std::uint32_t>> isolated;
    for (const std::uint32_t ord : out_.quarantined) {
      if (!out_.completed[ord]) {
        isolated.push_back({ord});
      }
    }
    if (!isolated.empty()) {
      RunWave(isolated, /*allow_retry=*/false);
    }
  }

 private:
  std::uint64_t JournalKey(std::uint32_t ordinal) const {
    return ResultJournal::Key(opts_.journal_digest, tasks_[ordinal].key, opts_.seed);
  }

  void Record(std::uint32_t ordinal, std::vector<std::uint8_t> payload) {
    if (out_.completed[ordinal]) {
      return;  // duplicate delivery (retry raced a slow frame): first wins
    }
    if (journal_ != nullptr) {
      journal_->Append(JournalKey(ordinal), payload);
    }
    out_.payloads[ordinal] = std::move(payload);
    out_.completed[ordinal] = 1;
    M().tasks_executed.Inc();
  }

  void Quarantine(std::uint32_t ordinal) {
    if (quarantined_set_.insert(ordinal).second) {
      out_.quarantined.push_back(ordinal);
      M().quarantines.Inc();
    }
  }

  // In-process execution with per-task exception isolation: the reference
  // path (shards=0) and the degraded path when fork or pipe fails. Runs fan
  // out over the job pool (jobs_per_shard threads) but results are recorded
  // in ordinal order, preserving byte-identical output. A throwing task is
  // quarantined-and-failed immediately — re-running a deterministic throw in
  // the same process cannot change the outcome, and there is no process
  // boundary to absorb an abort.
  void RunInProcess(const std::vector<std::uint32_t>& ordinals, bool fallback) {
    if (fallback) {
      out_.stats.used_fallback = true;
      M().fallbacks.Inc();
    }
    struct Slot {
      std::vector<std::uint8_t> payload;
      bool ok = false;
    };
    auto slots = ParallelMap<Slot>(ordinals.size(), opts_.jobs_per_shard,
                                         [&](std::size_t k) {
                                           Slot s;
                                           if (out_.completed[ordinals[k]]) {
                                             return s;
                                           }
                                           try {
                                             s.payload = tasks_[ordinals[k]].execute();
                                             s.ok = true;
                                           } catch (...) {
                                           }
                                           return s;
                                         });
    for (std::size_t k = 0; k < ordinals.size(); ++k) {
      const std::uint32_t ord = ordinals[k];
      if (out_.completed[ord]) {
        continue;
      }
      if (slots[k].ok) {
        Record(ord, std::move(slots[k].payload));
      } else {
        Quarantine(ord);
        out_.failed.push_back(ord);
      }
    }
  }

  struct Worker {
    pid_t pid = -1;
    int fd = -1;  // supervisor's read end
    std::uint32_t shard = 0;
    std::vector<std::uint32_t> assigned;
    std::set<std::uint32_t> in_flight;
    std::vector<std::uint8_t> buf;
    std::size_t buf_off = 0;
    std::uint64_t deadline_ms = 0;
    std::uint64_t started_ms = 0;
    std::uint32_t results_delivered = 0;
    bool done_frame = false;
    bool eof = false;
    bool chaos_killed = false;
  };

  struct Respawn {
    std::uint64_t ready_ms = 0;
    std::uint32_t shard = 0;
    std::vector<std::uint32_t> ordinals;
  };

  bool Spawn(std::uint32_t shard, std::vector<std::uint32_t> ordinals, std::uint64_t now,
             std::vector<Worker>& workers) {
    int fds[2];
    if (::pipe(fds) != 0) {
      return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      return false;
    }
    if (pid == 0) {
      // Child: drop the read end and every sibling's read end; the write end
      // is the only fd this process needs.
      ::close(fds[0]);
      for (const Worker& w : workers) {
        if (w.fd >= 0) {
          ::close(w.fd);
        }
      }
      WorkerMain(tasks_, ordinals, fds[1], opts_);  // [[noreturn]]
    }
    ::close(fds[1]);  // parent keeps no write end: worker exit == pipe EOF
    const int fl = ::fcntl(fds[0], F_GETFL);
    ::fcntl(fds[0], F_SETFL, fl | O_NONBLOCK);

    Worker w;
    w.pid = pid;
    w.fd = fds[0];
    w.shard = shard;
    w.assigned = std::move(ordinals);
    w.deadline_ms = now + opts_.task_timeout_ms;
    w.started_ms = now;
    workers.push_back(std::move(w));
    ++out_.stats.workers_spawned;
    M().workers_spawned.Inc();
    return true;
  }

  void Kill(Worker& w) {
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
    }
  }

  void Reap(Worker& w) {
    if (w.pid > 0) {
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
    if (w.fd >= 0) {
      ::close(w.fd);
      w.fd = -1;
    }
    M().worker_wall.RecordNanos((NowMs() - w.started_ms) * 1'000'000ull);
  }

  // A worker died without draining its list (crash, SIGKILL, watchdog, torn
  // stream). Blames the in-flight ordinals, requeues the remainder with
  // exponential backoff, quarantines repeat offenders.
  void HandleDeath(const Worker& w, std::uint64_t now, std::deque<Respawn>& respawns,
                   bool allow_retry) {
    ++out_.stats.worker_deaths;
    M().worker_deaths.Inc();
    for (const std::uint32_t ord : w.in_flight) {
      if (out_.completed[ord]) {
        continue;
      }
      if (++attempts_[ord] >= opts_.max_attempts) {
        Quarantine(ord);
      }
    }
    std::vector<std::uint32_t> remaining;
    for (const std::uint32_t ord : w.assigned) {
      if (!out_.completed[ord] && quarantined_set_.count(ord) == 0) {
        remaining.push_back(ord);
      }
    }
    if (!allow_retry) {
      // Quarantine wave: the isolated attempt was the last one.
      for (const std::uint32_t ord : w.assigned) {
        if (!out_.completed[ord]) {
          out_.failed.push_back(ord);
        }
      }
      return;
    }
    if (remaining.empty()) {
      return;
    }
    out_.stats.retries += remaining.size();
    M().retries.Inc(remaining.size());
    const std::uint32_t deaths = ++shard_deaths_[w.shard];
    std::uint64_t backoff = kBackoffBaseMs;
    for (std::uint32_t i = 1; i < deaths && backoff < kBackoffCapMs; ++i) {
      backoff *= 2;
    }
    backoff = std::min<std::uint64_t>(backoff, kBackoffCapMs);
    respawns.push_back({now + backoff, w.shard, std::move(remaining)});
  }

  // Drains the worker's pipe, decoding frames incrementally. Returns false if
  // the stream is provably corrupt (WireError) — caller kills the worker.
  bool Drain(Worker& w, std::uint64_t now) {
    std::uint8_t chunk[64 * 1024];
    for (;;) {
      const ssize_t n = ::read(w.fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) {
          continue;
        }
        break;  // EAGAIN: drained for now
      }
      if (n == 0) {
        w.eof = true;
        break;
      }
      w.buf.insert(w.buf.end(), chunk, chunk + n);
    }
    try {
      while (w.buf_off < w.buf.size()) {
        const auto frame = DecodeFrame(w.buf.data() + w.buf_off, w.buf.size() - w.buf_off);
        if (!frame.has_value()) {
          break;  // incomplete frame: more bytes on the way
        }
        w.buf_off += frame->encoded_size;
        w.deadline_ms = now + opts_.task_timeout_ms;  // any frame is a heartbeat
        WireReader r(frame->payload.data(), frame->payload.size());
        switch (frame->type) {
          case FrameType::kTaskStart:
            w.in_flight.insert(r.U32());
            break;
          case FrameType::kTaskResult: {
            const std::uint32_t ord = r.U32();
            std::vector<std::uint8_t> payload = r.Bytes();
            r.ExpectEnd("task result");
            w.in_flight.erase(ord);
            Record(ord, std::move(payload));
            ++w.results_delivered;
            if (MaybeChaosKill(w)) {
              // The stream is truncated at the kill point: frames the worker
              // managed to buffer after it are discarded, exactly as if an
              // external SIGKILL had landed here.
              return false;
            }
            break;
          }
          case FrameType::kWorkerDone:
            w.done_frame = true;
            break;
          default:
            return false;  // foreign frame type on the result pipe
        }
      }
      // Compact the consumed prefix occasionally so long campaigns don't
      // accumulate the whole result stream in memory.
      if (w.buf_off > (1u << 20)) {
        w.buf.erase(w.buf.begin(), w.buf.begin() + static_cast<std::ptrdiff_t>(w.buf_off));
        w.buf_off = 0;
      }
    } catch (const WireError&) {
      return false;
    }
    return true;
  }

  bool MaybeChaosKill(Worker& w) {
    if (chaos_fired_ || opts_.chaos_kill_shard < 0 ||
        w.shard != static_cast<std::uint32_t>(opts_.chaos_kill_shard) ||
        w.results_delivered < opts_.chaos_kill_after_results) {
      return false;
    }
    chaos_fired_ = true;
    w.chaos_killed = true;
    Kill(w);
    return true;
  }

  // Supervises one wave of workers to completion. Returns false only when the
  // very first spawn of the wave fails (fork/pipe exhaustion) — the wave then
  // degrades to in-process execution.
  bool RunWave(const std::vector<std::vector<std::uint32_t>>& assignment, bool allow_retry) {
    const std::uint64_t t0 = NowMs();
    std::vector<Worker> workers;
    std::deque<Respawn> respawns;
    bool spawned_any = false;
    for (std::uint32_t shard = 0; shard < assignment.size(); ++shard) {
      if (assignment[shard].empty()) {
        continue;
      }
      if (!Spawn(shard, assignment[shard], t0, workers)) {
        if (!spawned_any) {
          for (Worker& w : workers) {  // unreachable, but keep the invariant
            Kill(w);
            Reap(w);
          }
          std::vector<std::uint32_t> all;
          for (const auto& a : assignment) {
            all.insert(all.end(), a.begin(), a.end());
          }
          RunInProcess(all, /*fallback=*/true);
          return false;
        }
        // Partial spawn failure: run this shard's list degraded, keep the
        // workers that did launch.
        out_.stats.used_fallback = true;
        M().fallbacks.Inc();
        RunInProcess(assignment[shard], /*fallback=*/false);
        continue;
      }
      spawned_any = true;
    }

    while (!workers.empty() || !respawns.empty()) {
      const std::uint64_t now = NowMs();

      // Launch due respawns.
      for (std::size_t i = 0; i < respawns.size();) {
        if (respawns[i].ready_ms > now) {
          ++i;
          continue;
        }
        Respawn r = std::move(respawns[i]);
        respawns.erase(respawns.begin() + static_cast<std::ptrdiff_t>(i));
        std::vector<std::uint32_t> still;
        for (const std::uint32_t ord : r.ordinals) {
          if (!out_.completed[ord] && quarantined_set_.count(ord) == 0) {
            still.push_back(ord);
          }
        }
        if (still.empty()) {
          continue;
        }
        if (!Spawn(r.shard, still, now, workers)) {
          out_.stats.used_fallback = true;
          M().fallbacks.Inc();
          RunInProcess(still, /*fallback=*/false);
        }
      }
      if (workers.empty()) {
        if (respawns.empty()) {
          break;
        }
        std::uint64_t next = respawns.front().ready_ms;
        for (const Respawn& r : respawns) {
          next = std::min(next, r.ready_ms);
        }
        const std::uint64_t now2 = NowMs();
        if (next > now2) {
          ::poll(nullptr, 0, static_cast<int>(std::min<std::uint64_t>(next - now2, 1'000)));
        }
        continue;
      }

      // Poll timeout: earliest watchdog deadline or respawn due time.
      std::uint64_t wake = now + 1'000;
      for (const Worker& w : workers) {
        wake = std::min(wake, w.deadline_ms);
      }
      for (const Respawn& r : respawns) {
        wake = std::min(wake, r.ready_ms);
      }
      const int timeout_ms = wake > now ? static_cast<int>(std::min<std::uint64_t>(wake - now, 1'000))
                                        : 0;

      std::vector<pollfd> pfds(workers.size());
      for (std::size_t i = 0; i < workers.size(); ++i) {
        pfds[i] = {workers[i].fd, POLLIN, 0};
      }
      ::poll(pfds.data(), pfds.size(), timeout_ms);
      const std::uint64_t after = NowMs();

      for (std::size_t i = 0; i < workers.size();) {
        Worker& w = workers[i];
        bool dead = false;
        bool clean = false;
        if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
          if (!Drain(w, after)) {
            Kill(w);  // corrupt stream: treat as a crash
            dead = true;
          }
        }
        if (!dead && w.eof) {
          // Worker exited. Clean iff it sent kWorkerDone and nothing assigned
          // to it is still missing.
          clean = w.done_frame;
          if (clean) {
            for (const std::uint32_t ord : w.assigned) {
              if (!out_.completed[ord]) {
                clean = false;
                break;
              }
            }
          }
          dead = !clean;
        }
        if (!dead && !clean && after >= w.deadline_ms) {
          ++out_.stats.timeouts;
          M().timeouts.Inc();
          Kill(w);
          // Blame whatever is running; if the worker wedged between tasks,
          // blame the next undone assigned ordinal so progress is guaranteed.
          if (w.in_flight.empty()) {
            for (const std::uint32_t ord : w.assigned) {
              if (!out_.completed[ord]) {
                w.in_flight.insert(ord);
                break;
              }
            }
          }
          dead = true;
        }
        if (clean) {
          Reap(w);
          workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
          pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        if (dead) {
          // Drain any result frames that raced the kill before blaming — but
          // not past a chaos kill, whose stream is truncated by design.
          if (!w.chaos_killed) {
            Drain(w, after);
          }
          Reap(w);
          HandleDeath(w, after, respawns, allow_retry);
          workers.erase(workers.begin() + static_cast<std::ptrdiff_t>(i));
          pfds.erase(pfds.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++i;
      }
    }
    return true;
  }

  std::map<std::uint32_t, std::uint32_t> shard_deaths_;
  bool chaos_fired_ = false;

  const std::vector<ShardTask>& tasks_;
  const ShardOptions& opts_;
  ShardOutcome& out_;
  std::unique_ptr<ResultJournal> journal_;
  std::map<std::uint32_t, std::uint32_t> attempts_;
  std::set<std::uint32_t> quarantined_set_;
};

}  // namespace

bool ShardOutcome::AllCompleted() const {
  for (const std::uint8_t c : completed) {
    if (!c) {
      return false;
    }
  }
  return true;
}

std::string ShardStats::Summary() const {
  std::ostringstream os;
  os << "shard supervisor: tasks=" << tasks << " journal_hits=" << journal_hits
     << " retries=" << retries << " timeouts=" << timeouts << " worker_deaths=" << worker_deaths
     << " workers=" << workers_spawned << " quarantined=" << quarantined << " failed=" << failed;
  if (used_fallback) {
    os << " fallback";
  }
  if (resumed) {
    os << " resumed";
  }
  return os.str();
}

ShardSupervisor::ShardSupervisor(std::vector<ShardTask> tasks, ShardOptions options)
    : tasks_(std::move(tasks)), opts_(std::move(options)) {}

ShardOutcome ShardSupervisor::Run() {
  ShardOutcome out;
  out.stats.sharded = opts_.shards > 0;
  ShardRun run(tasks_, opts_, out);
  run.Execute();
  std::sort(out.quarantined.begin(), out.quarantined.end());
  std::sort(out.failed.begin(), out.failed.end());
  out.failed.erase(std::unique(out.failed.begin(), out.failed.end()), out.failed.end());
  out.stats.tasks = out.payloads.size();
  out.stats.quarantined = out.quarantined.size();
  out.stats.failed = out.failed.size();
  return out;
}

bool ShardSupervisor::InWorker() { return g_in_worker; }

}  // namespace pmk::engine
