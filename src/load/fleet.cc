#include "src/load/fleet.h"

#include <stdexcept>

namespace pmk::load {

const char* ArrivalShapeName(ArrivalShape s) {
  switch (s) {
    case ArrivalShape::kOpenLoop:
      return "open";
    case ArrivalShape::kClosedLoop:
      return "closed";
    case ArrivalShape::kBurstyStorm:
      return "storm";
  }
  return "?";
}

namespace {

constexpr std::uint8_t kClientPrio = 50;
constexpr std::uint8_t kServerPrio = 100;
constexpr std::uint32_t kFirstMintSlot = 30;  // kernel-mint mode's first root slot

// Smallest radix whose slot count covers |clients| (min 1 bit).
std::uint8_t FleetRadixBits(std::uint32_t clients) {
  std::uint8_t bits = 1;
  while ((1u << bits) < clients && bits < 31) {
    bits++;
  }
  return bits;
}

}  // namespace

Fleet BuildClientFleet(System& sys, const FleetSpec& spec) {
  if (spec.clients == 0 || spec.servers == 0) {
    throw std::invalid_argument("BuildClientFleet: clients and servers must be nonzero");
  }
  Kernel& k = sys.kernel();
  Fleet fleet;
  fleet.clients.reserve(spec.clients);
  fleet.client_cptrs.reserve(spec.clients);

  // Endpoints and server threads first: their addresses precede the fleet's,
  // matching the historical badge_server boot order.
  for (std::uint32_t s = 0; s < spec.servers; ++s) {
    EndpointObj* ep = nullptr;
    fleet.ep_cptrs.push_back(sys.AddEndpoint(&ep));
    fleet.endpoints.push_back(ep);
    fleet.endpoint_addrs.push_back(ep->base);
  }
  for (std::uint32_t s = 0; s < spec.servers; ++s) {
    TcbObj* t = sys.AddThread(kServerPrio);
    fleet.servers.push_back(t);
    fleet.server_addrs.push_back(t->base);
  }

  if (spec.mint_via_kernel) {
    // badge_server path: the first server mints each badge through a charged
    // kCNodeMint on the root CNode. Clients share the root cspace.
    Cap root_cap;
    root_cap.type = ObjType::kCNode;
    root_cap.obj = sys.root()->base;
    fleet.root_cptr = sys.AddCap(root_cap);
    k.DirectSetCurrent(fleet.servers[0]);
    for (std::uint32_t i = 0; i < spec.clients; ++i) {
      SyscallArgs mint;
      mint.label = InvLabel::kCNodeMint;
      mint.arg0 = fleet.ep_cptrs[i % spec.servers];
      mint.dest_index = kFirstMintSlot + i;
      mint.badge = spec.badge_base + i;
      k.Syscall(SysOp::kCall, fleet.root_cptr, mint);
      fleet.client_cptrs.push_back(kFirstMintSlot + i);
    }
    for (std::uint32_t i = 0; i < spec.clients; ++i) {
      TcbObj* t = sys.AddThread(kClientPrio);
      fleet.clients.push_back(t);
      fleet.client_addrs.push_back(t->base);
    }
    return fleet;
  }

  // Direct path: a dedicated one-level fleet CNode (guard + radix == 32, so
  // a cptr is a plain slot index and the IPC fastpath stays eligible) shared
  // as every client's cspace root. Scales to thousands of clients without
  // touching the 256-slot root CNode.
  const std::uint8_t radix = FleetRadixBits(spec.clients);
  CNodeObj* cn = k.DirectCNode(radix, static_cast<std::uint8_t>(32 - radix), 0);
  fleet.fleet_cnode = cn;
  fleet.fleet_cnode_addr = cn->base;
  for (std::uint32_t i = 0; i < spec.clients; ++i) {
    TcbObj* t = k.DirectTcb(kClientPrio, cn);
    k.DirectResume(t);
    fleet.clients.push_back(t);
    fleet.client_addrs.push_back(t->base);
  }
  for (std::uint32_t i = 0; i < spec.clients; ++i) {
    Cap cap;
    cap.type = ObjType::kEndpoint;
    cap.obj = fleet.endpoints[i % spec.servers]->base;
    cap.badge = spec.badge_base + i;
    k.DirectCap(cn, i, cap);
    fleet.client_cptrs.push_back(i);
  }
  for (TcbObj* s : fleet.servers) {
    k.DirectResume(s);
  }
  return fleet;
}

namespace {

// Looks addresses up in a table's sorted index with one forward walk, as long
// as each address is at least the one before; an address below its
// predecessor falls back to the table's binary search.
class AscendingLookup {
 public:
  explicit AscendingLookup(const ObjectTable& objs)
      : objs_(objs), next_(objs.objects().begin()) {}

  // The object of struct T at |base|, or null (as ObjectTable::Get).
  template <typename T>
  T* Get(Addr base) {
    if (base < last_) {
      return objs_.Get<T>(base);
    }
    last_ = base;
    const auto end = objs_.objects().end();
    while (next_ != end && next_->first < base) {
      ++next_;
    }
    return next_ != end && next_->first == base && next_->second->type == T::kType
               ? static_cast<T*>(next_->second.get())
               : nullptr;
  }

 private:
  const ObjectTable& objs_;
  std::vector<ObjectTable::Entry>::const_iterator next_;  // first entry not below last_
  Addr last_ = 0;
};

template <typename T>
void Resolve(AscendingLookup& lookup, const std::vector<Addr>& addrs, std::vector<T*>& out,
             const char* missing) {
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    out[i] = lookup.Get<T>(addrs[i]);
    if (out[i] == nullptr) {
      throw std::logic_error(missing);
    }
  }
}

}  // namespace

Fleet ResolveFleet(System& sys, const Fleet& fleet) {
  Fleet out = fleet;  // copies cptrs, addresses, partition shape
  // In boot order, which is address order: endpoints, servers, then clients.
  AscendingLookup lookup(sys.kernel().objects());
  Resolve(lookup, fleet.endpoint_addrs, out.endpoints, "ResolveFleet: endpoint missing in clone");
  Resolve(lookup, fleet.server_addrs, out.servers, "ResolveFleet: server TCB missing in clone");
  Resolve(lookup, fleet.client_addrs, out.clients, "ResolveFleet: client TCB missing in clone");
  out.fleet_cnode = fleet.fleet_cnode_addr == 0
                        ? nullptr
                        : sys.kernel().objects().Get<CNodeObj>(fleet.fleet_cnode_addr);
  return out;
}

}  // namespace pmk::load
