// badge_server — badged endpoints as authenticated client sessions
// (Section 3.4's motivating use case).
//
// A server mints one badged capability per client, serves requests while
// verifying each sender's badge, then revokes one client's badge while other
// clients keep IPC in flight. The revocation aborts exactly the matching
// pending requests, preempts under a periodic timer without hurting
// interrupt response, and afterwards the badge can be re-issued safely.
//
//   $ badge_server

#include <cstdio>

#include "src/load/fleet.h"
#include "src/sim/latency.h"
#include "src/sim/workload.h"

int main() {
  using namespace pmk;
  const ClockSpec clk;

  System sys(KernelConfig::After(), EvalMachine(false));

  // Endpoint, server thread, kernel-minted badges, client threads — the
  // load::ClientFleet kernel-mint path is this example's historical boot
  // sequence, so the generator builds the world for us.
  load::FleetSpec spec;
  spec.clients = 3;
  spec.servers = 1;
  spec.badge_base = 100;
  spec.mint_via_kernel = true;  // leaves the threads unresumed: scheduled by hand below
  const load::Fleet fleet = load::BuildClientFleet(sys, spec);
  for (std::uint32_t i = 0; i < spec.clients; ++i) {
    std::printf("minted badge %u for client %u at slot %u\n",
                static_cast<unsigned>(spec.badge_base + i), i, fleet.client_cptrs[i]);
  }

  EndpointObj* ep = fleet.endpoints[0];
  const std::uint32_t ep_cptr = fleet.ep_cptrs[0];
  TcbObj* server = fleet.servers[0];
  const std::uint32_t root_cptr = fleet.root_cptr;
  const std::vector<std::uint32_t>& client_cptr = fleet.client_cptrs;
  const std::vector<TcbObj*>& clients = fleet.clients;
  for (int round = 0; round < 3; ++round) {
    const std::uint32_t c = static_cast<std::uint32_t>(round) % 3;
    if (server->blocked_on != ep->base) {
      sys.kernel().DirectBlockOnRecv(server, ep);
    }
    sys.kernel().DirectSetCurrent(clients[c]);
    SyscallArgs call;
    call.msg_len = 2;
    clients[c]->mrs[0] = 0xC0DE + static_cast<std::uint64_t>(round);
    sys.kernel().Syscall(SysOp::kCall, client_cptr[c], call);
    // The server (higher priority) was switched to directly.
    std::printf("server got request 0x%llx from badge %llu\n",
                static_cast<unsigned long long>(server->mrs[0]),
                static_cast<unsigned long long>(server->recv_badge));
    // Reply and wait for the next request.
    sys.kernel().Syscall(SysOp::kReplyRecv, ep_cptr, SyscallArgs{});
  }

  // Now: client 1 misbehaves. Revoke its badge while a pile of requests
  // (from client 1 AND the others) is already queued. Pull the server off
  // the receive queue first so the senders pile up.
  sys.kernel().DirectUnblock(server);
  auto flood = sys.QueueSenders(ep, 60, {101, 100, 102});  // mixed badges
  std::printf("\n60 requests queued (badges 101/100/102 interleaved)\n");

  sys.kernel().DirectSetCurrent(server);
  SyscallArgs revoke;
  revoke.label = InvLabel::kCNodeRevoke;
  revoke.arg0 = client_cptr[1];  // badge 101
  const LongOpResult res =
      RunLongOpWithTimer(sys, SysOp::kCall, root_cptr, revoke, /*timer_period=*/4000);
  std::printf("revoked badge 101: %u preemptions, worst interrupt response %.1f us\n",
              res.preemptions, clk.ToMicros(res.max_irq_latency));

  std::uint32_t aborted = 0;
  std::uint32_t untouched = 0;
  for (TcbObj* t : flood) {
    if (t->state == ThreadState::kRestart && t->last_error == KError::kAborted) {
      aborted++;
    } else if (t->state == ThreadState::kBlockedOnSend) {
      untouched++;
    }
  }
  std::printf("aborted %u in-flight requests with badge 101; %u other-badge requests"
              " untouched\n", aborted, untouched);
  sys.kernel().CheckInvariants();

  // The badge can now be re-issued with full authenticity guarantees.
  SyscallArgs remint;
  remint.label = InvLabel::kCNodeMint;
  remint.arg0 = ep_cptr;
  remint.dest_index = 35;
  remint.badge = 101;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, remint);
  std::printf("badge 101 re-issued at slot 35 (error=%s)\n",
              KErrorName(server->last_error));
  sys.kernel().CheckInvariants();
  std::printf("kernel invariants: OK\n");
  return 0;
}
