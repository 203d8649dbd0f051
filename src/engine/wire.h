// Framed, checksummed binary records for the shard engine.
//
// One encoding serves two consumers: the worker-to-supervisor result pipe
// and the on-disk result journal (the WCET daemon's socket reuses the same
// frames). Every record travels inside a frame —
//
//   [magic u32 "PMKF"] [type u8] [payload_len u32] [crc32(payload) u32] [payload]
//
// — so a reader can always distinguish "not all bytes arrived yet" (pipes
// buffer, a crashed writer leaves a torn tail) from "these bytes are wrong"
// (a flipped bit anywhere in the payload fails the CRC; a flipped header bit
// fails the magic/length checks). Corruption surfaces as a structured
// WireError, mirroring src/kernel/error.h's KernelError: robustness code
// switches on fault(), never parses messages, and no malformed input may
// crash the process.
//
// All integers are little-endian and written byte-by-byte, so the format is
// host-independent and free of alignment/aliasing hazards.

#ifndef SRC_ENGINE_WIRE_H_
#define SRC_ENGINE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/base/digest.h"

namespace pmk {

class LatencyHistogram;

namespace engine {

enum class WireFault : std::uint8_t {
  kTruncated,    // fewer bytes than the structure requires
  kBadMagic,     // frame does not start with "PMKF"
  kBadLength,    // a declared length exceeds its container
  kBadChecksum,  // payload CRC mismatch
  kBadValue,     // structurally valid bytes with an impossible value
};

const char* WireFaultName(WireFault f);

class WireError : public std::runtime_error {
 public:
  WireError(WireFault fault, const std::string& detail)
      : std::runtime_error(std::string(WireFaultName(fault)) + ": " + detail), fault_(fault) {}

  WireFault fault() const { return fault_; }

 private:
  WireFault fault_;
};

// CRC-32 (IEEE 802.3, reflected) over |n| bytes.
std::uint32_t Crc32(const std::uint8_t* data, std::size_t n);

// FNV-1a 64-bit, chainable via |seed| for multi-part digests. The
// implementation lives in src/base/digest.h (shared with the kir block
// digests); re-exported here so existing engine::Fnv1a64 callers compile
// unchanged.
using ::pmk::Fnv1a64;
using ::pmk::kFnv64Offset;

// ---------------------------------------------------------------- primitives

class WireWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) {
    U8(static_cast<std::uint8_t>(v));
    U8(static_cast<std::uint8_t>(v >> 8));
  }
  void U32(std::uint32_t v) {
    U16(static_cast<std::uint16_t>(v));
    U16(static_cast<std::uint16_t>(v >> 16));
  }
  void U64(std::uint64_t v) {
    U32(static_cast<std::uint32_t>(v));
    U32(static_cast<std::uint32_t>(v >> 32));
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v);  // IEEE-754 bit pattern as U64
  void Str(const std::string& s);
  void Bytes(const std::uint8_t* data, std::size_t n);
  void Bytes(const std::vector<std::uint8_t>& b) { Bytes(b.data(), b.size()); }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Bounds-checked reader over a borrowed byte range. Every primitive throws
// WireError(kTruncated) past the end and WireError(kBadLength) on a declared
// length that cannot fit in the remaining bytes — a reader can never read
// out of bounds, whatever the input.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t n) : data_(data), end_(n) {}
  explicit WireReader(const std::vector<std::uint8_t>& b) : WireReader(b.data(), b.size()) {}

  std::uint8_t U8();
  std::uint16_t U16();
  std::uint32_t U32();
  std::uint64_t U64();
  bool Bool();
  double F64();
  std::string Str();
  std::vector<std::uint8_t> Bytes();

  std::size_t remaining() const { return end_ - pos_; }
  bool AtEnd() const { return pos_ == end_; }
  // Throws WireError(kBadLength) unless every byte was consumed — trailing
  // garbage after a structure is corruption, not padding.
  void ExpectEnd(const char* what) const;

 private:
  void Need(std::size_t n, const char* what) const;

  const std::uint8_t* data_;
  std::size_t end_;
  std::size_t pos_ = 0;
};

// Sparse LatencyHistogram codec: count, min, max, sum, then only the
// non-zero buckets as (index, count) pairs. Journals and the result pipe
// store these bytes, so the layout is fixed. ReadHistogram throws WireError
// on a truncated record or on buckets that disagree with the count.
void WriteHistogram(WireWriter& w, const LatencyHistogram& h);
LatencyHistogram ReadHistogram(WireReader& r);

// ---------------------------------------------------------------- framing

inline constexpr std::uint32_t kFrameMagic = 0x464B4D50u;  // "PMKF" little-endian
inline constexpr std::size_t kFrameHeaderBytes = 13;       // magic + type + len + crc
// One frame's payload is capped so a corrupted length field can never drive
// a reader into allocating gigabytes before the CRC check runs.
inline constexpr std::uint32_t kMaxFramePayload = 256u * 1024 * 1024;

// Frame types shared by the pipe protocol, the journal and the WCET daemon.
// The numbers are on disk (journals carry them); 1 is retired.
enum class FrameType : std::uint8_t {
  kJournalHeader = 2,  // journal file preamble (version + context digest)
  kJournalEntry = 3,   // one journaled result: key + payload
  kTaskStart = 4,      // worker -> supervisor: run |ordinal| is in flight
  kTaskResult = 5,     // worker -> supervisor: run |ordinal| finished
  kWorkerDone = 6,     // worker -> supervisor: assigned list drained
  kWcetQuery = 7,      // client -> wcet daemon: one query / edit notification
  kWcetReply = 8,      // wcet daemon -> client: the answer
};

struct Frame {
  FrameType type = FrameType::kJournalHeader;
  std::vector<std::uint8_t> payload;
  std::size_t encoded_size = 0;  // header + payload bytes consumed
};

void AppendFrame(std::vector<std::uint8_t>& out, FrameType type, const std::uint8_t* payload,
                 std::size_t n);
inline void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                        const std::vector<std::uint8_t>& payload) {
  AppendFrame(out, type, payload.data(), payload.size());
}

// Decodes the frame starting at |data|. Returns nullopt when the buffer holds
// only a PREFIX of a structurally valid frame (more bytes may still arrive);
// throws WireError when the bytes present are already provably corrupt (bad
// magic, oversize length, failed CRC).
std::optional<Frame> DecodeFrame(const std::uint8_t* data, std::size_t n);

}  // namespace engine
}  // namespace pmk

#endif  // SRC_ENGINE_WIRE_H_
