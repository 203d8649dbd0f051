#include "src/kernel/objects.h"

#include <iterator>
#include <stdexcept>
#include <string>

namespace pmk {

const char* ObjTypeName(ObjType t) {
  switch (t) {
    case ObjType::kNull:
      return "Null";
    case ObjType::kUntyped:
      return "Untyped";
    case ObjType::kCNode:
      return "CNode";
    case ObjType::kTcb:
      return "TCB";
    case ObjType::kEndpoint:
      return "Endpoint";
    case ObjType::kFrame:
      return "Frame";
    case ObjType::kPageTable:
      return "PageTable";
    case ObjType::kPageDir:
      return "PageDir";
    case ObjType::kAsidPool:
      return "ASIDPool";
    case ObjType::kIrqHandler:
      return "IRQHandler";
    case ObjType::kReply:
      return "Reply";
  }
  return "?";
}

const char* ThreadStateName(ThreadState s) {
  switch (s) {
    case ThreadState::kInactive:
      return "Inactive";
    case ThreadState::kRunning:
      return "Running";
    case ThreadState::kBlockedOnSend:
      return "BlockedOnSend";
    case ThreadState::kBlockedOnRecv:
      return "BlockedOnRecv";
    case ThreadState::kBlockedOnReply:
      return "BlockedOnReply";
    case ThreadState::kRestart:
      return "Restart";
    case ThreadState::kIdle:
      return "Idle";
  }
  return "?";
}

const char* KErrorName(KError e) {
  switch (e) {
    case KError::kOk:
      return "Ok";
    case KError::kInvalidCap:
      return "InvalidCap";
    case KError::kInvalidArg:
      return "InvalidArg";
    case KError::kNotEnoughMemory:
      return "NotEnoughMemory";
    case KError::kRevokeFirst:
      return "RevokeFirst";
    case KError::kAborted:
      return "Aborted";
    case KError::kDeleted:
      return "Deleted";
  }
  return "?";
}

std::uint8_t ObjSizeBits(ObjType type, std::uint8_t user_bits, const KernelConfig& config) {
  switch (type) {
    case ObjType::kUntyped:
      return user_bits;
    case ObjType::kCNode:
      // 16-byte slots: radix_bits + 4.
      return static_cast<std::uint8_t>(user_bits + 4);
    case ObjType::kTcb:
      return 9;  // 512 B
    case ObjType::kEndpoint:
      return 4;  // 16 B
    case ObjType::kFrame:
      return user_bits;  // 12 (4 KiB) .. 24 (16 MiB)
    case ObjType::kPageTable:
      // 1 KiB; doubled by the adjacent shadow (Section 3.6).
      return config.vspace == VSpaceKind::kShadow ? 11 : 10;
    case ObjType::kPageDir:
      // 16 KiB; doubled by the adjacent shadow.
      return config.vspace == VSpaceKind::kShadow ? 15 : 14;
    case ObjType::kAsidPool:
      return 12;  // 4 KiB (1024 x 4 B)
    case ObjType::kIrqHandler:
      return 4;
    case ObjType::kNull:
    case ObjType::kReply:
      break;
  }
  throw std::logic_error("ObjSizeBits: bad type");
}

KObject* ObjectTable::Insert(std::unique_ptr<KObject> obj) {
  memo_base_ = kNoMemo;
  memo_obj_ = nullptr;
  const Addr base = obj->base;
  if (base % obj->SizeBytes() != 0) {
    throw std::logic_error("object misaligned: " + std::string(ObjTypeName(obj->type)) + " at " +
                           std::to_string(base));
  }
  if (obj->type == ObjType::kUntyped) {
    if (untypeds_.count(base) != 0) {
      throw std::logic_error("untyped region already registered at " + std::to_string(base));
    }
    UntypedObj* raw = static_cast<UntypedObj*>(obj.release());
    untypeds_.emplace(base, std::unique_ptr<UntypedObj>(raw));
    return raw;
  }
  // Untyped regions legitimately contain the objects retyped from them, so
  // only non-untyped objects are checked against one another. Those never
  // overlap, so the predecessor and the successor are the only candidates.
  const auto next = objects_.empty() || objects_.rbegin()->first < base
                        ? objects_.end()
                        : objects_.lower_bound(base);
  if ((next != objects_.end() && next->first < obj->End()) ||
      (next != objects_.begin() && std::prev(next)->second->End() > base)) {
    throw std::logic_error("object overlap: " + std::string(ObjTypeName(obj->type)) + " at " +
                           std::to_string(base));
  }
  KObject* raw = obj.get();
  objects_.emplace_hint(next, base, std::move(obj));
  return raw;
}

void ObjectTable::Remove(Addr base) {
  memo_base_ = kNoMemo;
  memo_obj_ = nullptr;
  if (const auto it = objects_.find(base); it != objects_.end()) {
    objects_.erase(it);
    return;
  }
  if (const auto it = untypeds_.find(base); it != untypeds_.end()) {
    untypeds_.erase(it);
    return;
  }
  throw std::logic_error("ObjectTable::Remove: no object at " + std::to_string(base));
}

KObject* ObjectTable::Find(Addr base) const {
  if (base == memo_base_) {
    return memo_obj_;
  }
  if (const auto it = objects_.find(base); it != objects_.end()) {
    memo_base_ = base;
    memo_obj_ = it->second.get();
    return memo_obj_;
  }
  if (const auto it = untypeds_.find(base); it != untypeds_.end()) {
    memo_base_ = base;
    memo_obj_ = it->second.get();
    return memo_obj_;
  }
  return nullptr;
}

}  // namespace pmk
