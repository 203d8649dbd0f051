// Full-fidelity System serialization: the shard engine's checkpoint wire
// format.
//
// SerializeSystem captures EVERYTHING a System::Clone would copy — machine
// microarchitecture (cache tag arrays and replacement state, branch
// predictor, pending IRQs with assertion times, timer phase, cycle and PMU
// counters), the complete kernel object heap, scheduler queues/bitmaps and
// roots — as a flat byte payload, and DeserializeSystem rebuilds a System
// that replays cycle-for-cycle identically. Intrusive pointers are encoded
// structurally (a TcbObj* as its object's base address, a CapSlot* as the
// slot's physical address) and re-resolved after decoding, mirroring
// src/kernel/snapshot.cc's remap passes; a dangling encoded pointer throws
// rather than aliasing.
//
// The payload is CANONICAL: serialize(deserialize(serialize(s))) ==
// serialize(s) byte-for-byte, which the round-trip tests exploit. Corrupt
// input throws engine::WireError (never crashes); the framed form produced
// by SystemCheckpoint::Serialize additionally CRC-protects the payload so a
// single flipped bit is detected before any field is interpreted.
//
// StateSerializer is a friend of every class whose private state it moves;
// it has no instance state and no public constructor.

#ifndef SRC_ENGINE_SERIALIZE_H_
#define SRC_ENGINE_SERIALIZE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/engine/wire.h"
#include "src/obs/histogram.h"
#include "src/sim/workload.h"

namespace pmk::engine {

class StateSerializer {
 public:
  StateSerializer() = delete;

  // Version stamped into every payload; bumped on any layout change so a
  // stale journal or checkpoint image fails loudly with kBadVersion.
  static constexpr std::uint32_t kSystemImageVersion = 2;

  // Raw (unframed) payload. Throws std::logic_error if the executor is
  // mid-path (checkpoints exist between kernel entries only).
  static std::vector<std::uint8_t> SerializeSystem(const System& sys);

  // Rebuilds a System from SerializeSystem's payload. Throws WireError on
  // any corruption: truncation, out-of-range enums, dangling encoded
  // pointers, or a decoded heap that fails Kernel::CheckInvariants.
  static std::unique_ptr<System> DeserializeSystem(const std::uint8_t* data, std::size_t n);
  static std::unique_ptr<System> DeserializeSystem(const std::vector<std::uint8_t>& payload) {
    return DeserializeSystem(payload.data(), payload.size());
  }

  // Digest identifying the kernel-image/analysis context a campaign result
  // depends on: FNV-1a64 over the serialized KernelConfig and every laid-out
  // Block of its kernel image (address, costs, resolved static accesses, CFG
  // edges, preemption points). Editing src/kernel/image.cc or flipping a
  // config switch changes the digest, so journaled results from the old
  // kernel are never replayed against the new.
  static std::uint64_t KernelImageDigest(const KernelConfig& config);

  // LatencyHistogram payload helpers (sparse bucket encoding), shared by the
  // campaign's ScenarioResult wire format.
  static void WriteHistogram(WireWriter& w, const LatencyHistogram& h);
  static LatencyHistogram ReadHistogram(WireReader& r);

 private:
  // KernelConfig codec, shared by SerializeSystem and KernelImageDigest.
  static void WriteKernelConfig(WireWriter& w, const KernelConfig& c);
  static KernelConfig ReadKernelConfig(WireReader& r);
};

}  // namespace pmk::engine

#endif  // SRC_ENGINE_SERIALIZE_H_
