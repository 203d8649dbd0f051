// wcet_tool — command-line front end for the WCET analysis pipeline.
//
// One-shot mode computes the interrupt-latency WCET bound for each kernel
// entry point of a chosen kernel configuration, prints the loop-bound
// statistics and the worst-case interrupt response time (paper Section 6).
//
// Daemon mode (--serve=SOCK) keeps a WcetAnalyzer resident
// behind an AF_UNIX socket speaking the framed kWcetQuery/kWcetReply
// protocol (src/wcet/serve.h): clients re-query bounds after edits without
// paying a cold re-analysis. --connect=SOCK prints the same report from the
// daemon's answers, byte-identical to a one-shot run on the same
// configuration; --shutdown=SOCK stops a daemon. --edit-demo=N replays a
// deterministic self-reverting edit script (in-process, or against a daemon
// with --connect), diffing every incremental answer against a cold fresh
// analyzer and exiting nonzero on any mismatch.
//
// Usage: wcet_tool [before|after] [--l2] [--pin] [--l2pin] [--sendrecv]
//                  [--timeslice] [--functional] [--trace] [--jobs=N]
//                  [--serve=SOCK | --connect=SOCK | --shutdown=SOCK]
//                  [--edit-demo=N]
//                  [--metrics-json=F] [--progress] [--no-telemetry]
//
// --metrics-json exposes the pipeline's own counters (memo and incremental
// stage hits/misses, simplex pivots, warm vs cold solves, B&B nodes,
// per-stage wall time).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/engine/job_pool.h"
#include "src/engine/wire.h"
#include "src/wcet/analysis.h"
#include "src/wcet/serve.h"

namespace {

using pmk::engine::AppendFrame;
using pmk::engine::DecodeFrame;
using pmk::engine::FrameType;
using pmk::engine::WireReader;
using pmk::engine::WireWriter;
using pmk::wcet::EditField;
using pmk::wcet::ServeOp;
using pmk::wcet::WcetService;

constexpr std::size_t kIoChunk = 64 * 1024;

// ------------------------------------------------------------------ framing IO

bool WriteAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Reads bytes into |buf| until it holds one complete frame; pops and returns
// it. Returns false on EOF / error / corrupt bytes.
bool ReadFrame(int fd, std::vector<std::uint8_t>& buf, pmk::engine::Frame& out) {
  for (;;) {
    try {
      if (auto frame = DecodeFrame(buf.data(), buf.size())) {
        buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(frame->encoded_size));
        out = std::move(*frame);
        return true;
      }
    } catch (const pmk::engine::WireError& e) {
      std::fprintf(stderr, "wcet_tool: corrupt frame: %s\n", e.what());
      return false;
    }
    std::uint8_t chunk[kIoChunk];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

// ------------------------------------------------------------------ daemon

void ServeClient(WcetService& service, int listen_fd, int fd) {
  std::vector<std::uint8_t> buf;
  pmk::engine::Frame frame;
  while (ReadFrame(fd, buf, frame)) {
    if (frame.type != FrameType::kWcetQuery) {
      break;
    }
    std::vector<std::uint8_t> out;
    AppendFrame(out, FrameType::kWcetReply, service.Handle(frame.payload));
    if (!WriteAll(fd, out)) {
      break;
    }
    if (service.shutdown_requested()) {
      // Wake the accept loop: a half-closed listener makes accept() fail.
      ::shutdown(listen_fd, SHUT_RDWR);
      break;
    }
  }
  ::close(fd);
}

int RunServe(std::unique_ptr<pmk::KernelImage> image, const pmk::AnalysisOptions& opts,
             const std::string& path) {
  WcetService service(std::move(image), opts);
  ::unlink(path.c_str());
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("wcet_tool: socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "wcet_tool: socket path too long: %s\n", path.c_str());
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    std::perror("wcet_tool: bind/listen");
    return 1;
  }
  std::fprintf(stderr, "wcet_tool: serving on %s\n", path.c_str());
  std::vector<std::thread> clients;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // listener shut down (or failed): drain and exit
    }
    clients.emplace_back(ServeClient, std::ref(service), listen_fd, fd);
  }
  for (std::thread& t : clients) {
    t.join();
  }
  ::close(listen_fd);
  ::unlink(path.c_str());
  std::fprintf(stderr, "wcet_tool: daemon exiting\n");
  return 0;
}

// ------------------------------------------------------------------ client

class ServeClientConn {
 public:
  explicit ServeClientConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      std::fprintf(stderr, "wcet_tool: cannot connect to %s: %s\n", path.c_str(),
                   std::strerror(errno));
      if (fd_ >= 0) {
        ::close(fd_);
      }
      fd_ = -1;
    }
  }
  ~ServeClientConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  bool ok() const { return fd_ >= 0; }

  // Sends one request payload; returns the reply payload. Throws WireError on
  // transport/protocol failure.
  std::vector<std::uint8_t> Call(const std::vector<std::uint8_t>& request) {
    std::vector<std::uint8_t> out;
    AppendFrame(out, FrameType::kWcetQuery, request);
    pmk::engine::Frame frame;
    if (!WriteAll(fd_, out) || !ReadFrame(fd_, buf_, frame) ||
        frame.type != FrameType::kWcetReply) {
      throw pmk::engine::WireError(pmk::engine::WireFault::kTruncated, "daemon connection lost");
    }
    return std::move(frame.payload);
  }

  pmk::Cycles ResponseBound() {
    WireWriter w;
    w.U8(static_cast<std::uint8_t>(ServeOp::kResponseBound));
    const std::vector<std::uint8_t> reply = Call(w.Take());
    WireReader r(reply);
    Expect(r);
    const pmk::Cycles c = r.U64();
    r.ExpectEnd("response-bound reply");
    return c;
  }

  pmk::wcet::AnalyzeReply Analyze(pmk::EntryPoint e) {
    WireWriter w;
    w.U8(static_cast<std::uint8_t>(ServeOp::kAnalyze));
    w.U8(static_cast<std::uint8_t>(e));
    return WcetService::ParseAnalyzeReply(Call(w.Take()));
  }

  bool Edit(pmk::BlockId block, EditField field, std::uint64_t value) {
    WireWriter w;
    w.U8(static_cast<std::uint8_t>(ServeOp::kEdit));
    w.U32(block);
    w.U8(static_cast<std::uint8_t>(field));
    w.U64(value);
    const std::vector<std::uint8_t> reply = Call(w.Take());
    WireReader r(reply);
    Expect(r);
    const bool moved = r.U8() != 0;
    r.ExpectEnd("edit reply");
    return moved;
  }

 private:
  static void Expect(WireReader& r) {
    if (r.U8() != 0) {
      throw pmk::engine::WireError(pmk::engine::WireFault::kBadValue,
                                   "daemon error: " + r.Str());
    }
  }

  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
};

int RunShutdown(const std::string& path) {
  ServeClientConn conn(path);
  if (!conn.ok()) {
    return 1;
  }
  WireWriter w;
  w.U8(static_cast<std::uint8_t>(ServeOp::kShutdown));
  const std::vector<std::uint8_t> reply = conn.Call(w.Take());
  WireReader r(reply);
  if (r.U8() != 0) {
    std::fprintf(stderr, "wcet_tool: shutdown refused: %s\n", r.Str().c_str());
    return 1;
  }
  std::printf("daemon shutdown requested\n");
  return 0;
}

// ------------------------------------------------------------------ edit demo

struct DemoEdit {
  pmk::BlockId block = 0;
  EditField field = EditField::kLoopBoundAnnotation;
  std::uint64_t value = 0;   // applied at this step
  std::uint64_t revert = 0;  // original value, restored after the demo
};

// Deterministic, self-reverting edit script over the analysis-only metadata
// the post-layout mutation contract allows: bump existing loop-bound
// annotations, bump absolute execution bounds, toggle existing preemption
// points. Round-robin across candidates so N edits spread over the kernel.
std::vector<DemoEdit> BuildEditScript(const pmk::Program& prog, int n) {
  std::vector<DemoEdit> candidates;
  for (pmk::BlockId id = 0; id < prog.num_blocks(); ++id) {
    const pmk::Block& b = prog.block(id);
    if (b.loop_bound_annotation > 0) {
      candidates.push_back({id, EditField::kLoopBoundAnnotation, b.loop_bound_annotation + 1,
                            b.loop_bound_annotation});
    }
    if (b.absolute_exec_bound > 0) {
      candidates.push_back(
          {id, EditField::kAbsoluteExecBound, b.absolute_exec_bound + 1, b.absolute_exec_bound});
    }
    if (b.is_preemption_point) {
      candidates.push_back({id, EditField::kIsPreemptionPoint, 0, 1});
    }
  }
  std::vector<DemoEdit> script;
  for (int s = 0; s < n && !candidates.empty(); ++s) {
    DemoEdit e = candidates[static_cast<std::size_t>(s) % candidates.size()];
    // Later rounds over the same candidate push the value further so every
    // step's digest actually moves.
    if (e.field != EditField::kIsPreemptionPoint) {
      e.value += static_cast<std::uint64_t>(s) / candidates.size();
    }
    script.push_back(e);
  }
  return script;
}

// Replays the edit script, checking every incremental answer against a cold
// fresh analyzer on an identically-edited mirror image. |conn| directs the
// incremental side at a daemon; null runs it in-process.
int RunEditDemo(const pmk::KernelConfig& kc, const pmk::AnalysisOptions& opts, int steps,
                ServeClientConn* conn) {
  // The mirror carries the cold reference; in-process mode also hosts the
  // incremental analyzer on a second image so the two never share state.
  const auto mirror = pmk::BuildKernelImage(kc);
  auto local_image = conn ? nullptr : pmk::BuildKernelImage(kc);
  std::unique_ptr<pmk::WcetAnalyzer> local;
  if (!conn) {
    local = std::make_unique<pmk::WcetAnalyzer>(*local_image, opts);
  }
  const auto incremental_bound = [&]() -> pmk::Cycles {
    return conn ? conn->ResponseBound() : local->InterruptResponseBound();
  };
  const auto apply = [&](const DemoEdit& e, bool revert) {
    const std::uint64_t value = revert ? e.revert : e.value;
    if (conn) {
      conn->Edit(e.block, e.field, value);
    } else {
      pmk::wcet::ApplyEdit(local_image->prog, e.block, e.field, value);
      local->NotifyBlockEdited(e.block);
    }
    pmk::wcet::ApplyEdit(mirror->prog, e.block, e.field, value);
  };

  const pmk::Cycles baseline = incremental_bound();
  const std::vector<DemoEdit> script = BuildEditScript(mirror->prog, steps);
  std::printf("edit-demo: %zu scripted edits, baseline response %llu cycles\n", script.size(),
              static_cast<unsigned long long>(baseline));
  int failures = 0;
  for (std::size_t s = 0; s < script.size(); ++s) {
    const DemoEdit& e = script[s];
    apply(e, /*revert=*/false);
    const pmk::Cycles inc = incremental_bound();
    const pmk::Cycles cold = pmk::WcetAnalyzer(*mirror, opts).InterruptResponseBound();
    const bool ok = inc == cold;
    failures += ok ? 0 : 1;
    std::printf("  step %2zu: block %4u field %u -> incremental %llu, cold %llu  %s\n", s + 1,
                e.block, static_cast<unsigned>(e.field), static_cast<unsigned long long>(inc),
                static_cast<unsigned long long>(cold), ok ? "ok" : "MISMATCH");
  }
  for (auto it = script.rbegin(); it != script.rend(); ++it) {
    apply(*it, /*revert=*/true);
  }
  const pmk::Cycles restored = incremental_bound();
  const bool back = restored == baseline;
  std::printf("edit-demo: reverted, response %llu cycles  %s\n",
              static_cast<unsigned long long>(restored), back ? "ok" : "MISMATCH");
  if (failures > 0 || !back) {
    std::fprintf(stderr, "wcet_tool: edit-demo FAILED (%d mismatches)\n",
                 failures + (back ? 0 : 1));
    return 1;
  }
  std::printf("edit-demo: all incremental answers identical to cold re-analysis\n");
  return 0;
}

// ------------------------------------------------------------------ report

struct EntryRow {
  pmk::Cycles wcet = 0;
  double micros = 0;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t loops_auto = 0;
  std::size_t loops_annot = 0;
  int status = static_cast<int>(pmk::SolveStatus::kOptimal);
};

// Prints the standard report given per-entry rows; shared by the one-shot
// and --connect paths so their stdout cannot drift.
int PrintReport(const std::vector<EntryRow>& rows, pmk::Cycles response) {
  std::printf("%-24s %12s %10s %8s %8s %6s %6s\n", "Entry point", "WCET (cyc)", "WCET (us)",
              "nodes", "edges", "auto", "annot");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EntryRow& r = rows[i];
    const char* name = pmk::EntryPointName(pmk::kEntryPoints[i]);
    if (r.status != static_cast<int>(pmk::SolveStatus::kOptimal)) {
      std::printf("%-24s  solver status %d\n", name, r.status);
      return 1;
    }
    std::printf("%-24s %12llu %10.1f %8zu %8zu %6zu %6zu\n", name,
                static_cast<unsigned long long>(r.wcet), r.micros, r.nodes, r.edges, r.loops_auto,
                r.loops_annot);
  }
  std::printf("\nworst-case interrupt response: %llu cycles (%.1f us @ 532 MHz)\n",
              static_cast<unsigned long long>(response), pmk::ClockSpec{}.ToMicros(response));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const pmk::bench::CommonFlags flags = pmk::bench::ParseCommonFlags(argc, argv);
  pmk::KernelConfig kc = pmk::KernelConfig::After();
  pmk::AnalysisOptions opts;
  bool dump_trace = false;
  std::string serve_path;
  std::string connect_path;
  std::string shutdown_path;
  int edit_demo = 0;
  const unsigned jobs = flags.jobs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "before") == 0) {
      kc = pmk::KernelConfig::Before();
    } else if (std::strcmp(argv[i], "after") == 0) {
      kc = pmk::KernelConfig::After();
    } else if (std::strcmp(argv[i], "--l2") == 0) {
      opts.l2_enabled = true;
    } else if (std::strcmp(argv[i], "--pin") == 0) {
      opts.cache_pinning = true;
    } else if (std::strcmp(argv[i], "--l2pin") == 0) {
      opts.l2_enabled = true;
      opts.l2_kernel_pinning = true;
    } else if (std::strcmp(argv[i], "--sendrecv") == 0) {
      kc.preemptible_send_receive = true;
    } else if (std::strcmp(argv[i], "--timeslice") == 0) {
      kc.kernel_timer_line = 7;
    } else if (std::strcmp(argv[i], "--functional") == 0) {
      opts.irq_pending = false;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      dump_trace = true;
    } else if (std::strncmp(argv[i], "--serve=", 8) == 0) {
      serve_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--connect=", 10) == 0) {
      connect_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--shutdown=", 11) == 0) {
      shutdown_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--edit-demo=", 12) == 0) {
      edit_demo = static_cast<int>(pmk::bench::ParseUnsignedFlag(
          "--edit-demo=", argv[i] + 12, std::numeric_limits<int>::max()));
    } else if (pmk::bench::IsCommonFlag(argv[i])) {
      // Already handled by ParseCommonFlags (--jobs=, --metrics-json=, ...).
    } else {
      std::fprintf(stderr,
                   "usage: %s [before|after] [--l2] [--pin] [--l2pin] [--sendrecv]"
                   " [--timeslice] [--functional] [--trace] [--jobs=N]"
                   " [--serve=SOCK | --connect=SOCK | --shutdown=SOCK] [--edit-demo=N]"
                   " [--metrics-json=F] [--progress] [--no-telemetry]\n",
                   argv[0]);
      return 2;
    }
  }

  if (!shutdown_path.empty()) {
    return RunShutdown(shutdown_path);
  }
  if (!serve_path.empty()) {
    return RunServe(pmk::BuildKernelImage(kc), opts, serve_path);
  }
  if (edit_demo > 0) {
    if (!connect_path.empty()) {
      ServeClientConn conn(connect_path);
      if (!conn.ok()) {
        return 1;
      }
      const int rc = RunEditDemo(kc, opts, edit_demo, &conn);
      pmk::bench::ExportMetricsJson(flags.metrics_json);
      return rc;
    }
    const int rc = RunEditDemo(kc, opts, edit_demo, nullptr);
    pmk::bench::ExportMetricsJson(flags.metrics_json);
    return rc;
  }

  if (!connect_path.empty()) {
    ServeClientConn conn(connect_path);
    if (!conn.ok()) {
      return 1;
    }
    try {
      WireWriter w;
      w.U8(static_cast<std::uint8_t>(ServeOp::kImageInfo));
      const std::vector<std::uint8_t> reply = conn.Call(w.Take());
      WireReader r(reply);
      if (r.U8() != 0) {
        std::fprintf(stderr, "wcet_tool: image-info failed: %s\n", r.Str().c_str());
        return 1;
      }
      const auto funcs = r.U64();
      const auto blocks = r.U64();
      const auto text = r.U64();
      std::printf("kernel image: %zu functions, %zu blocks, %llu bytes of text\n",
                  static_cast<std::size_t>(funcs), static_cast<std::size_t>(blocks),
                  static_cast<unsigned long long>(text));
      std::vector<EntryRow> rows;
      for (const pmk::EntryPoint e : pmk::kEntryPoints) {
        const pmk::wcet::AnalyzeReply a = conn.Analyze(e);
        rows.push_back({a.wcet, a.micros, static_cast<std::size_t>(a.nodes),
                        static_cast<std::size_t>(a.edges),
                        static_cast<std::size_t>(a.loops_bounded_auto),
                        static_cast<std::size_t>(a.loops_bounded_annot),
                        static_cast<int>(a.status)});
      }
      const int rc = PrintReport(rows, conn.ResponseBound());
      pmk::bench::ExportMetricsJson(flags.metrics_json);
      return rc;
    } catch (const pmk::engine::WireError& e) {
      std::fprintf(stderr, "wcet_tool: %s\n", e.what());
      return 1;
    }
  }

  const auto image = pmk::BuildKernelImage(kc);
  std::printf("kernel image: %zu functions, %zu blocks, %llu bytes of text\n",
              image->prog.num_functions(), image->prog.num_blocks(),
              static_cast<unsigned long long>(image->prog.text_bytes()));

  pmk::WcetAnalyzer analyzer(*image, opts);
  // Entry analyses are independent; fan them out and print in entry order
  // (identical output for any --jobs value).
  const auto results = pmk::engine::ParallelMap<pmk::EntryResult>(
      pmk::kEntryPoints.size(), jobs,
      [&](std::size_t i) { return analyzer.Analyze(pmk::kEntryPoints[i]); });
  std::vector<EntryRow> rows;
  bool all_optimal = true;
  for (const pmk::EntryResult& r : results) {
    rows.push_back({r.wcet, r.micros, r.nodes, r.edges, r.loops_bounded_auto,
                    r.loops_bounded_annot, static_cast<int>(r.status)});
    all_optimal = all_optimal && r.status == pmk::SolveStatus::kOptimal;
  }
  // Only optimal entries have a response bound; otherwise PrintReport names
  // the first entry that is not and fails.
  const int rc = PrintReport(
      rows, all_optimal ? pmk::ResponseBoundOf({&results[0], &results[1], &results[2], &results[3]})
                        : 0);
  if (rc != 0) {
    return rc;
  }
  if (dump_trace) {
    const pmk::EntryResult& r = results[0];
    std::printf("  worst path (%zu blocks):\n", r.worst_trace.blocks.size());
    for (pmk::BlockId b : r.worst_trace.blocks) {
      std::printf("    %s\n", image->prog.block(b).name.c_str());
    }
  }
  pmk::bench::ExportMetricsJson(flags.metrics_json);
  return 0;
}
