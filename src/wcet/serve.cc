#include "src/wcet/serve.h"

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/engine/wire.h"
#include "src/obs/metrics.h"

namespace pmk::wcet {

namespace {

constexpr std::uint8_t kReplyOk = 0;
constexpr std::uint8_t kReplyError = 1;

obs::Counter& RequestCounter() {
  static obs::Counter c("wcet.serve.requests");
  return c;
}
obs::Counter& EditCounter() {
  static obs::Counter c("wcet.serve.edits");
  return c;
}
obs::Counter& ErrorCounter() {
  static obs::Counter c("wcet.serve.errors");
  return c;
}

std::vector<std::uint8_t> ErrorReply(const std::string& message) {
  ErrorCounter().Inc();
  engine::WireWriter w;
  w.U8(kReplyError);
  w.Str(message);
  return w.Take();
}

}  // namespace

void ApplyEdit(Program& prog, BlockId block, EditField field, std::uint64_t value) {
  if (block >= prog.num_blocks()) {
    throw std::invalid_argument("block id " + std::to_string(block) + " out of range");
  }
  const bool bound = field == EditField::kLoopBoundAnnotation ||
                     field == EditField::kAbsoluteExecBound;
  if (!bound && field != EditField::kIsPreemptionPoint) {
    throw std::invalid_argument("unknown edit field " +
                                std::to_string(static_cast<unsigned>(field)));
  }
  if (bound && value > UINT32_MAX) {
    throw std::invalid_argument("edit value " + std::to_string(value) +
                                " does not fit a 32-bit bound");
  }
  Block& b = prog.mutable_block(block);
  switch (field) {
    case EditField::kLoopBoundAnnotation:
      b.loop_bound_annotation = static_cast<std::uint32_t>(value);
      break;
    case EditField::kAbsoluteExecBound:
      b.absolute_exec_bound = static_cast<std::uint32_t>(value);
      break;
    case EditField::kIsPreemptionPoint:
      b.is_preemption_point = value != 0;
      break;
  }
}

WcetService::WcetService(std::unique_ptr<KernelImage> image, const AnalysisOptions& options)
    : image_(std::move(image)), analyzer_(*image_, options) {}

void WcetService::WriteAnalyzeReply(const EntryResult& res, std::vector<std::uint8_t>& out) {
  engine::WireWriter w;
  w.U8(kReplyOk);
  w.U8(static_cast<std::uint8_t>(res.entry));
  w.U8(static_cast<std::uint8_t>(res.status));
  w.U64(res.wcet);
  w.F64(res.micros);
  w.U64(res.nodes);
  w.U64(res.edges);
  w.U64(res.loops_bounded_auto);
  w.U64(res.loops_bounded_annot);
  w.U64(res.worst_trace.blocks.size());
  out = w.Take();
}

AnalyzeReply WcetService::ParseAnalyzeReply(const std::vector<std::uint8_t>& reply) {
  engine::WireReader r(reply);
  const std::uint8_t status = r.U8();
  if (status != kReplyOk) {
    throw engine::WireError(engine::WireFault::kBadValue, "analyze request failed: " + r.Str());
  }
  AnalyzeReply out;
  out.entry = r.U8();
  out.status = r.U8();
  out.wcet = r.U64();
  out.micros = r.F64();
  out.nodes = r.U64();
  out.edges = r.U64();
  out.loops_bounded_auto = r.U64();
  out.loops_bounded_annot = r.U64();
  out.trace_blocks = r.U64();
  r.ExpectEnd("analyze reply");
  return out;
}

std::vector<std::uint8_t> WcetService::Handle(const std::vector<std::uint8_t>& request) {
  RequestCounter().Inc();
  try {
    return HandleOrThrow(request);
  } catch (const engine::WireError& e) {
    return ErrorReply(e.what());
  } catch (const std::exception& e) {
    return ErrorReply(std::string("internal: ") + e.what());
  }
}

std::vector<std::uint8_t> WcetService::HandleOrThrow(const std::vector<std::uint8_t>& request) {
  engine::WireReader r(request);
  const auto op = static_cast<ServeOp>(r.U8());
  switch (op) {
    case ServeOp::kAnalyze: {
      const std::uint8_t raw = r.U8();
      r.ExpectEnd("analyze request");
      if (raw >= kEntryPoints.size()) {
        return ErrorReply("unknown entry point " + std::to_string(raw));
      }
      std::vector<std::uint8_t> reply;
      std::shared_lock<std::shared_mutex> lk(mu_);
      WriteAnalyzeReply(analyzer_.Analyze(static_cast<EntryPoint>(raw)), reply);
      return reply;
    }
    case ServeOp::kResponseBound: {
      r.ExpectEnd("response-bound request");
      std::shared_lock<std::shared_mutex> lk(mu_);
      engine::WireWriter w;
      w.U8(kReplyOk);
      w.U64(analyzer_.InterruptResponseBound());
      return w.Take();
    }
    case ServeOp::kPerBlockBounds: {
      r.ExpectEnd("per-block-bounds request");
      std::shared_lock<std::shared_mutex> lk(mu_);
      const std::vector<Cycles> bounds = analyzer_.PerBlockBounds();
      engine::WireWriter w;
      w.U8(kReplyOk);
      w.U64(bounds.size());
      for (Cycles c : bounds) {
        w.U64(c);
      }
      return w.Take();
    }
    case ServeOp::kEdit: {
      const BlockId block = r.U32();
      const auto field = static_cast<EditField>(r.U8());
      const std::uint64_t value = r.U64();
      r.ExpectEnd("edit request");
      EditCounter().Inc();
      std::unique_lock<std::shared_mutex> lk(mu_);
      try {
        ApplyEdit(image_->prog, block, field, value);
      } catch (const std::invalid_argument& e) {
        return ErrorReply(e.what());
      }
      const bool moved = analyzer_.NotifyBlockEdited(block);
      engine::WireWriter w;
      w.U8(kReplyOk);
      w.U8(moved ? 1 : 0);
      return w.Take();
    }
    case ServeOp::kPing: {
      const std::uint64_t nonce = r.U64();
      r.ExpectEnd("ping request");
      engine::WireWriter w;
      w.U8(kReplyOk);
      w.U64(nonce);
      return w.Take();
    }
    case ServeOp::kShutdown: {
      r.ExpectEnd("shutdown request");
      shutdown_.store(true, std::memory_order_release);
      engine::WireWriter w;
      w.U8(kReplyOk);
      return w.Take();
    }
    case ServeOp::kImageInfo: {
      r.ExpectEnd("image-info request");
      // Layout statistics are fixed at image build; no lock needed.
      engine::WireWriter w;
      w.U8(kReplyOk);
      w.U64(image_->prog.num_functions());
      w.U64(image_->prog.num_blocks());
      w.U64(image_->prog.text_bytes());
      return w.Take();
    }
  }
  return ErrorReply("unknown op " + std::to_string(static_cast<unsigned>(op)));
}

}  // namespace pmk::wcet
