// Client-fleet generator: thousands of badged IPC clients against a bank of
// endpoint server threads.
//
// Section 3.4's badged-endpoint sessions, at saturation scale. Each client
// gets one badged capability to one of the server endpoints (clients are
// partitioned round-robin over servers so no endpoint queue outgrows the
// analysis bound of 256 queued senders), and every badge is unique —
// badge_base + client index — so a server can authenticate each request.
//
// Two boot paths share this builder:
//
//   - the DIRECT path (default) installs caps in a dedicated one-level fleet
//     CNode (radix sized to the client count, zero guard) via the uncharged
//     Direct API — thousands of clients boot in microseconds, and the fleet
//     CNode's guard+radix == 32 shape keeps the IPC fastpath eligible;
//   - the KERNEL-MINT path issues charged kCNodeMint syscalls from the first
//     server into root-CNode slots, exactly what examples/badge_server did by
//     hand — that example now runs on this builder, so there is one badged-
//     client boot path in the tree.
//
// A Fleet records the base address of every object it created, and
// ResolveFleet() re-binds those addresses to live pointers inside a forked
// System clone: boot one fleet, checkpoint it (engine::SystemCheckpoint),
// fork per load point.

#ifndef SRC_LOAD_FLEET_H_
#define SRC_LOAD_FLEET_H_

#include <cstdint>
#include <vector>

#include "src/sim/workload.h"

namespace pmk::load {

// How a client paces its requests (used by the traffic harness; the fleet
// builder itself is shape-agnostic).
enum class ArrivalShape : std::uint8_t {
  kOpenLoop,     // jittered think time, independent of service completions
  kClosedLoop,   // fixed short think: next request as soon as replied
  kBurstyStorm,  // long synchronized silences, then back-to-back bursts
};
const char* ArrivalShapeName(ArrivalShape s);

struct FleetSpec {
  std::uint32_t clients = 1000;
  std::uint32_t servers = 8;  // one endpoint per server thread
  std::uint64_t badge_base = 100;  // client i gets badge badge_base + i

  // Kernel-mint mode: charged kCNodeMint syscalls into consecutive root
  // slots (the badge_server path; requires the root CNode to fit the fleet).
  // Its threads are left unresumed: badge_server drives scheduling by hand
  // via DirectSetCurrent. Default: uncharged direct installs into a fleet
  // CNode, with every thread resumed (runnable) so a Runner can schedule the
  // fleet at once.
  bool mint_via_kernel = false;
};

struct Fleet {
  std::vector<TcbObj*> clients;
  std::vector<TcbObj*> servers;
  std::vector<EndpointObj*> endpoints;      // one per server
  std::vector<std::uint32_t> ep_cptrs;      // root cptr per endpoint
  std::vector<std::uint32_t> client_cptrs;  // badged ep cap, in client i's cspace
  std::uint32_t root_cptr = 0;              // kernel-mint mode: root CNode self-cap
  CNodeObj* fleet_cnode = nullptr;          // direct mode only

  // Base addresses of the same objects, for re-resolution after a fork.
  std::vector<Addr> client_addrs;
  std::vector<Addr> server_addrs;
  std::vector<Addr> endpoint_addrs;
  Addr fleet_cnode_addr = 0;
};

// Boots the fleet onto |sys| (objects, caps, badges; threads resumed in
// direct mode). Deterministic: the same spec against the same System
// produces the same object addresses and charged-cycle sequence.
Fleet BuildClientFleet(System& sys, const FleetSpec& spec);

// Re-binds |fleet|'s recorded base addresses to the live objects inside
// |sys| — a clone of the System the fleet was built on. cptrs carry over
// unchanged (cspace structure is part of the clone).
Fleet ResolveFleet(System& sys, const Fleet& fleet);

}  // namespace pmk::load

#endif  // SRC_LOAD_FLEET_H_
