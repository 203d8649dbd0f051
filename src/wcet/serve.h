// Persistent WCET query service: the daemon core behind wcet_tool --serve.
//
// A WcetService owns one mutable kernel image plus a WcetAnalyzer over it
// and answers framed requests (engine::FrameType::kWcetQuery /
// kWcetReply, src/engine/wire.h) from many concurrent clients: Analyze one
// entry point, InterruptResponseBound, PerBlockBounds, Ping, Shutdown — and
// the edit-notification path (kEdit) that mutates one block's analysis
// metadata and invalidates precisely the cache entries whose content digests
// moved. Transport is the caller's problem: examples/wcet_tool.cpp runs
// Handle() behind an AF_UNIX socket, tests call it in-process.
//
// Lock discipline over WcetAnalyzer's thread-safety contract: queries take
// the shared lock and call the analyzer directly (its per-entry locks
// serialise re-derivation of one entry); edits take the exclusive lock.
// Answers are byte-identical to a one-shot wcet_tool run on the edited image
// — wcet_incremental_test and the CI wcet-serve job diff exactly that.
//
// Request payload: [op u8][operands...]; reply: [status u8][body...] with
// status 0 = ok (body is op-specific) and 1 = error (body is a Str message).
// Malformed requests answer with an error reply; they never crash the
// service (wire faults surface as WireError, same as the journal reader).

#ifndef SRC_WCET_SERVE_H_
#define SRC_WCET_SERVE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "src/kernel/image.h"
#include "src/wcet/analysis.h"

namespace pmk::wcet {

enum class ServeOp : std::uint8_t {
  kAnalyze = 1,         // [entry u8] -> per-entry result
  kResponseBound = 2,   // [] -> [cycles u64]
  kPerBlockBounds = 3,  // [] -> [count u64][cycles u64]...
  kEdit = 4,            // [block u32][field u8][value u64] -> [moved u8]
  kPing = 5,            // [nonce u64] -> [nonce u64]
  kShutdown = 6,        // [] -> []; shutdown_requested() turns true
  kImageInfo = 7,       // [] -> [functions u64][blocks u64][text_bytes u64]
};

// Block fields a kEdit request may change — exactly the analysis-only
// metadata the Block layout contract allows to move post-layout.
enum class EditField : std::uint8_t {
  kLoopBoundAnnotation = 1,
  kAbsoluteExecBound = 2,
  kIsPreemptionPoint = 3,
};

// Sets |field| of |block| in |prog| to |value| — the one way a kEdit (or
// any other client edit) reaches a block. Throws std::invalid_argument, and
// leaves |prog| untouched, when the block is out of range, the field is
// unknown, or a bound value does not fit the field's 32 bits. A
// preemption-point edit sets the flag iff |value| is nonzero.
void ApplyEdit(Program& prog, BlockId block, EditField field, std::uint64_t value);

// Reply body of ServeOp::kAnalyze, mirroring EntryResult's scalar fields
// (the trace itself stays server-side; clients get its length).
struct AnalyzeReply {
  std::uint8_t entry = 0;
  std::uint8_t status = 0;  // SolveStatus
  Cycles wcet = 0;
  double micros = 0;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t loops_bounded_auto = 0;
  std::uint64_t loops_bounded_annot = 0;
  std::uint64_t trace_blocks = 0;
};

class WcetService {
 public:
  WcetService(std::unique_ptr<KernelImage> image, const AnalysisOptions& options);

  // Executes one request payload (the kWcetQuery frame body) and returns the
  // kWcetReply frame body. Thread-safe; never throws on malformed input.
  std::vector<std::uint8_t> Handle(const std::vector<std::uint8_t>& request);

  // True once a kShutdown request was handled; the transport loop polls this.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  // Decodes a kAnalyze ok-reply body (shared by wcet_tool --connect and the
  // tests, so client and server can never drift).
  static AnalyzeReply ParseAnalyzeReply(const std::vector<std::uint8_t>& reply);

 private:
  std::vector<std::uint8_t> HandleOrThrow(const std::vector<std::uint8_t>& request);
  void WriteAnalyzeReply(const EntryResult& res, std::vector<std::uint8_t>& out);

  std::unique_ptr<KernelImage> image_;
  WcetAnalyzer analyzer_;
  std::shared_mutex mu_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace pmk::wcet

#endif  // SRC_WCET_SERVE_H_
