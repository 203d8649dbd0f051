#include "src/sim/workload.h"

#include <stdexcept>

namespace pmk {

MachineConfig EvalMachine(bool l2_enabled, bool bpred_enabled) {
  MachineConfig mc;
  mc.l2_enabled = l2_enabled;
  mc.bpred.enabled = bpred_enabled;
  return mc;
}

System::System(const KernelConfig& kc, const MachineConfig& mc)
    : kernel_config(kc), machine_config(mc) {
  machine_ = std::make_unique<Machine>(mc);
  kernel_ = std::make_unique<Kernel>(kc, machine_.get());
  // One-level 32-bit cspace: 24 guard bits of zero + 8-bit radix.
  root_ = kernel_->DirectCNode(/*radix_bits=*/8, /*guard_bits=*/24, /*guard_value=*/0);
  if (kc.vspace == VSpaceKind::kAsid) {
    kernel_->DirectRegisterAsidPool(kernel_->DirectAsidPool());
  }
}

std::unique_ptr<System> System::Clone() const {
  std::unique_ptr<System> copy(new System());
  copy->kernel_config = kernel_config;
  copy->machine_config = machine_config;
  copy->machine_ = std::make_unique<Machine>(*machine_);
  copy->kernel_ = kernel_->Clone(copy->machine_.get());
  copy->root_ = copy->kernel_->objects().Get<CNodeObj>(root_->base);
  if (copy->root_ == nullptr) {
    throw std::logic_error("System::Clone: root CNode missing from cloned heap");
  }
  copy->next_slot_ = next_slot_;
  return copy;
}

void System::AttachTraceSink(TraceSink* sink) {
  kernel_->exec().set_trace_sink(sink);
  machine_->irq().set_trace_sink(sink);
}

std::uint32_t System::AddCap(Cap cap, CapSlot* parent) {
  while (next_slot_ < root_->NumSlots() && !root_->slots[next_slot_].IsNull()) {
    next_slot_++;
  }
  if (next_slot_ >= root_->NumSlots()) {
    throw std::runtime_error("System::AddCap: root CNode full");
  }
  kernel_->DirectCap(root_, next_slot_, cap, parent);
  return next_slot_++;
}

TcbObj* System::AddThread(std::uint8_t prio) {
  TcbObj* t = kernel_->DirectTcb(prio, root_);
  return t;
}

std::uint32_t System::AddEndpoint(EndpointObj** out) {
  EndpointObj* ep = kernel_->DirectEndpoint();
  if (out != nullptr) {
    *out = ep;
  }
  Cap cap;
  cap.type = ObjType::kEndpoint;
  cap.obj = ep->base;
  return AddCap(cap);
}

std::uint32_t System::AddUntyped(std::uint8_t size_bits, UntypedObj** out) {
  UntypedObj* ut = kernel_->DirectUntyped(size_bits);
  if (out != nullptr) {
    *out = ut;
  }
  Cap cap;
  cap.type = ObjType::kUntyped;
  cap.obj = ut->base;
  return AddCap(cap);
}

std::uint32_t System::BuildDeepCapSpace(TcbObj* t, Cap target, std::uint32_t levels) {
  if (levels == 0 || levels > 32) {
    throw std::logic_error("BuildDeepCapSpace: levels must be in [1,32]");
  }
  // Chain of |levels| CNodes. The first (root) consumes 32-(levels-1) bits
  // via its guard so that the remaining levels-1 CNodes each consume exactly
  // one bit (radix 1, guard 0) — the Figure 7 shape.
  const std::uint32_t first_bits = 32 - (levels - 1);
  // Root: radix 1, guard first_bits-1 zero bits.
  CNodeObj* first = kernel_->DirectCNode(1, static_cast<std::uint8_t>(first_bits - 1), 0);
  CNodeObj* cn = first;
  for (std::uint32_t i = 1; i < levels; ++i) {
    CNodeObj* next = kernel_->DirectCNode(1, 0, 0);
    Cap link;
    link.type = ObjType::kCNode;
    link.obj = next->base;
    kernel_->DirectCap(cn, 0, link);  // bit 0 at each level
    cn = next;
  }
  kernel_->DirectCap(cn, 0, target);
  t->cspace_root = first->base;
  return 0;  // cptr: all zero bits decode through the chain
}

std::vector<TcbObj*> System::QueueSenders(EndpointObj* ep, std::uint32_t n,
                                          const std::vector<std::uint64_t>& badges,
                                          std::uint8_t prio) {
  std::vector<TcbObj*> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TcbObj* t = AddThread(prio);
    const std::uint64_t badge = badges.empty() ? kBadgeNone : badges[i % badges.size()];
    kernel_->DirectBlockOnSend(t, ep, badge);
    out.push_back(t);
  }
  return out;
}

std::vector<TcbObj*> System::MakeStaleRunQueue(EndpointObj* ep, std::uint32_t n,
                                               std::uint8_t prio) {
  std::vector<TcbObj*> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    TcbObj* t = AddThread(prio);
    kernel_->DirectResume(t);  // enqueue
    // Blocks while staying in the run queue: the lazy-scheduling leftover.
    kernel_->DirectBlockOnSend(t, ep, kBadgeNone, /*is_call=*/false,
                               /*leave_in_run_queue=*/true);
    out.push_back(t);
  }
  return out;
}

System::WorstIpc System::BuildWorstCaseIpc() {
  WorstIpc w;
  w.receiver = AddThread(/*prio=*/50);
  w.caller = AddThread(/*prio=*/50);

  EndpointObj* ep = nullptr;
  w.reply_cptr = AddEndpoint(&ep);
  Cap ep_cap;
  ep_cap.type = ObjType::kEndpoint;
  ep_cap.obj = ep->base;

  // Caller's cspace: 32-level decode for the endpoint cap. Receive slot and
  // granted caps live in the shared root so the receiver can accept them.
  w.ep_cptr = BuildDeepCapSpace(w.caller, ep_cap, 32);

  // Receiver waits on the endpoint.
  kernel_->DirectBlockOnRecv(w.receiver, ep);
  w.receiver->cspace_root = root_->base;
  w.receiver->recv_slot = 200;

  // Full-length message plus the maximum number of granted caps. Each extra
  // cap is decoded in the caller's cspace — which is the 32-level chain, so
  // each decode is another worst-case traversal. The chain ends at the
  // endpoint cap; granting it is legal.
  w.args.msg_len = KernelConfig::kMaxMsgWords;
  w.args.n_extra = KernelConfig::kMaxExtraCaps;
  for (std::uint32_t i = 0; i < KernelConfig::kMaxExtraCaps; ++i) {
    w.args.extra_caps[i] = 0;  // decodes through all 32 levels
  }
  kernel_->DirectSetCurrent(w.caller);
  return w;
}

System::FaultHandler System::BuildFaultHandlerScenario() {
  FaultHandler f;
  EndpointObj* ep = nullptr;
  f.ep_cptr = AddEndpoint(&ep);
  TcbObj* pager = AddThread(/*prio=*/150);
  f.task = AddThread(/*prio=*/10);
  Cap ep_cap;
  ep_cap.type = ObjType::kEndpoint;
  ep_cap.obj = ep->base;
  f.task->fault_handler_cptr = BuildDeepCapSpace(f.task, ep_cap, 32);
  kernel_->DirectBlockOnRecv(pager, ep);
  kernel_->DirectSetCurrent(f.task);
  return f;
}

System::IrqHandler System::BuildIrqHandlerScenario() {
  IrqHandler h;
  AddEndpoint(&h.ep);
  h.handler = AddThread(/*prio=*/200);
  h.task = AddThread(/*prio=*/10);
  kernel_->DirectBindIrq(0, h.ep);
  kernel_->DirectBlockOnRecv(h.handler, h.ep);
  kernel_->DirectSetCurrent(h.task);
  return h;
}

}  // namespace pmk
