#include "src/engine/wire.h"

#include <array>
#include <cstring>

#include "src/obs/histogram.h"

namespace pmk::engine {

const char* WireFaultName(WireFault f) {
  switch (f) {
    case WireFault::kTruncated:
      return "Truncated";
    case WireFault::kBadMagic:
      return "BadMagic";
    case WireFault::kBadLength:
      return "BadLength";
    case WireFault::kBadChecksum:
      return "BadChecksum";
    case WireFault::kBadValue:
      return "BadValue";
  }
  return "?";
}

namespace {

std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t Crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = MakeCrcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------- writer

void WireWriter::F64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::Bytes(const std::uint8_t* data, std::size_t n) {
  U32(static_cast<std::uint32_t>(n));
  buf_.insert(buf_.end(), data, data + n);
}

// ---------------------------------------------------------------- reader

void WireReader::Need(std::size_t n, const char* what) const {
  if (end_ - pos_ < n) {
    throw WireError(WireFault::kTruncated, what);
  }
}

std::uint8_t WireReader::U8() {
  Need(1, "u8");
  return data_[pos_++];
}

std::uint16_t WireReader::U16() {
  Need(2, "u16");
  const std::uint16_t v =
      static_cast<std::uint16_t>(data_[pos_]) | static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::U32() {
  Need(4, "u32");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::U64() {
  Need(8, "u64");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
  }
  pos_ += 8;
  return v;
}

bool WireReader::Bool() {
  const std::uint8_t v = U8();
  if (v > 1) {
    throw WireError(WireFault::kBadValue, "bool out of range");
  }
  return v != 0;
}

double WireReader::F64() {
  const std::uint64_t bits = U64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string WireReader::Str() {
  const std::uint32_t n = U32();
  if (n > remaining()) {
    throw WireError(WireFault::kBadLength, "string length exceeds buffer");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> WireReader::Bytes() {
  const std::uint32_t n = U32();
  if (n > remaining()) {
    throw WireError(WireFault::kBadLength, "byte-array length exceeds buffer");
  }
  std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

void WireReader::ExpectEnd(const char* what) const {
  if (!AtEnd()) {
    throw WireError(WireFault::kBadLength, std::string(what) + ": trailing bytes");
  }
}

// ---------------------------------------------------------------- histogram

void WriteHistogram(WireWriter& w, const LatencyHistogram& h) {
  w.U64(h.count_);
  w.U64(h.min_);
  w.U64(h.max_);
  w.F64(h.sum_);
  std::uint32_t n = 0;
  for (const std::uint64_t b : h.buckets_) {
    if (b != 0) {
      n++;
    }
  }
  w.U32(n);
  for (std::uint32_t i = 0; i < h.buckets_.size(); ++i) {
    if (h.buckets_[i] != 0) {
      w.U32(i);
      w.U64(h.buckets_[i]);
    }
  }
}

LatencyHistogram ReadHistogram(WireReader& r) {
  // Far above any bucket index a 64-bit value maps to; rejects a corrupt
  // index before it becomes a huge allocation.
  constexpr std::uint32_t kMaxBucketIndex = 1u << 26;
  constexpr std::size_t kBucketEntryBytes = 12;  // u32 index + u64 count
  LatencyHistogram h;
  h.count_ = r.U64();
  h.min_ = r.U64();
  h.max_ = r.U64();
  h.sum_ = r.F64();
  const std::uint32_t n = r.U32();
  if (static_cast<std::uint64_t>(n) * kBucketEntryBytes > r.remaining()) {
    throw WireError(WireFault::kTruncated, "histogram bucket count exceeds remaining payload");
  }
  std::uint64_t total = 0;
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t index = r.U32();
    const std::uint64_t count = r.U64();
    if (index > kMaxBucketIndex || count == 0) {
      throw WireError(WireFault::kBadValue, "histogram bucket entry invalid");
    }
    if (index >= h.buckets_.size()) {
      h.buckets_.resize(index + 1);
    }
    if (h.buckets_[index] != 0) {
      throw WireError(WireFault::kBadValue, "histogram bucket index repeated");
    }
    h.buckets_[index] = count;
    total += count;
  }
  if (total != h.count_) {
    throw WireError(WireFault::kBadValue, "histogram bucket sum disagrees with count");
  }
  return h;
}

// ---------------------------------------------------------------- framing

void AppendFrame(std::vector<std::uint8_t>& out, FrameType type, const std::uint8_t* payload,
                 std::size_t n) {
  if (n > kMaxFramePayload) {
    throw WireError(WireFault::kBadLength, "frame payload over size cap");
  }
  WireWriter header;
  header.U32(kFrameMagic);
  header.U8(static_cast<std::uint8_t>(type));
  header.U32(static_cast<std::uint32_t>(n));
  header.U32(Crc32(payload, n));
  out.insert(out.end(), header.bytes().begin(), header.bytes().end());
  out.insert(out.end(), payload, payload + n);
}

std::optional<Frame> DecodeFrame(const std::uint8_t* data, std::size_t n) {
  if (n < kFrameHeaderBytes) {
    // Check what bytes ARE present against the magic so a corrupt stream is
    // reported as corrupt even when short.
    for (std::size_t i = 0; i < n && i < 4; ++i) {
      if (data[i] != (kFrameMagic >> (8 * i) & 0xFFu)) {
        throw WireError(WireFault::kBadMagic, "frame does not start with PMKF");
      }
    }
    return std::nullopt;
  }
  WireReader r(data, kFrameHeaderBytes);
  if (r.U32() != kFrameMagic) {
    throw WireError(WireFault::kBadMagic, "frame does not start with PMKF");
  }
  const std::uint8_t type = r.U8();
  const std::uint32_t len = r.U32();
  const std::uint32_t crc = r.U32();
  if (len > kMaxFramePayload) {
    throw WireError(WireFault::kBadLength, "frame payload over size cap");
  }
  if (type < static_cast<std::uint8_t>(FrameType::kJournalHeader) ||
      type > static_cast<std::uint8_t>(FrameType::kWcetReply)) {
    throw WireError(WireFault::kBadValue, "unknown frame type");
  }
  if (n - kFrameHeaderBytes < len) {
    return std::nullopt;  // payload still in flight
  }
  const std::uint8_t* payload = data + kFrameHeaderBytes;
  if (Crc32(payload, len) != crc) {
    throw WireError(WireFault::kBadChecksum, "frame payload CRC mismatch");
  }
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.payload.assign(payload, payload + len);
  f.encoded_size = kFrameHeaderBytes + len;
  return f;
}

}  // namespace pmk::engine
