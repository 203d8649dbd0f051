#include "src/kernel/objects.h"

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>

#include <sanitizer/asan_interface.h>

#include "src/obs/metrics.h"

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

namespace {

// Calls |f| with a null pointer to the struct that models |type|.
template <typename F>
decltype(auto) WithObjStruct(ObjType type, F&& f) {
  switch (type) {
    case ObjType::kUntyped:
      return f(static_cast<UntypedObj*>(nullptr));
    case ObjType::kCNode:
      return f(static_cast<CNodeObj*>(nullptr));
    case ObjType::kTcb:
      return f(static_cast<TcbObj*>(nullptr));
    case ObjType::kEndpoint:
      return f(static_cast<EndpointObj*>(nullptr));
    case ObjType::kFrame:
      return f(static_cast<FrameObj*>(nullptr));
    case ObjType::kPageTable:
      return f(static_cast<PageTableObj*>(nullptr));
    case ObjType::kPageDir:
      return f(static_cast<PageDirObj*>(nullptr));
    case ObjType::kAsidPool:
      return f(static_cast<AsidPoolObj*>(nullptr));
    case ObjType::kIrqHandler:
      return f(static_cast<IrqHandlerObj*>(nullptr));
    case ObjType::kNull:
    case ObjType::kReply:
      break;
  }
  throw std::logic_error("no kernel object struct for type " + std::string(ObjTypeName(type)));
}

// Storage granule: every object starts on a max_align_t boundary.
constexpr std::size_t kGranule = alignof(std::max_align_t);

// Bytes of storage one object of |type| takes.
std::size_t StorageBytes(ObjType type) {
  return WithObjStruct(type, [](auto* t) {
    using T = std::remove_pointer_t<decltype(t)>;
    static_assert(alignof(T) <= kGranule);
    return (sizeof(T) + kGranule - 1) & ~(kGranule - 1);
  });
}

void Destroy(KObject* obj) {
  WithObjStruct(obj->type, [obj](auto* t) {
    using T = std::remove_pointer_t<decltype(t)>;
    static_cast<T*>(obj)->~T();
  });
}

// The block a growing table adds. An object larger than this gets a block of
// its own; the tail of a block too short for the next object stays unused.
constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

// Set when this thread's spare list is destroyed at thread exit. A bool has
// no destructor, so a table that dies later in the exit (a thread_local built
// before the list) can still read it, and then frees its blocks itself.
thread_local bool spares_gone = false;

obs::Counter& BlocksReused() {
  static obs::Counter c("kernel.heap.blocks_reused");
  return c;
}

}  // namespace

// The blocks of the tables that died on this thread, oldest first.
class ObjectTable::SpareList {
 public:
  SpareList() = default;
  SpareList(const SpareList&) = delete;
  SpareList& operator=(const SpareList&) = delete;
  ~SpareList() { spares_gone = true; }

  std::size_t bytes() const { return bytes_; }

  // Keeps |b|, freeing the oldest spares to stay within the budget. A block
  // larger than the whole budget is freed at once.
  void Put(Block b) {
    if (b.size > kSpareBytes) {
      return;
    }
    while (count_ == kSpareBlocks || bytes_ + b.size > kSpareBytes) {
      Pop(0);
    }
    ASAN_POISON_MEMORY_REGION(b.bytes.get(), b.size);
    b.used = 0;
    bytes_ += b.size;
    blocks_[count_++] = std::move(b);
  }

  // The newest spare of at least |bytes| and at most twice that, if any.
  std::optional<Block> Take(std::size_t bytes) {
    for (std::size_t i = count_; i-- > 0;) {
      if (blocks_[i].size >= bytes && blocks_[i].size - bytes <= bytes) {
        Block b = Pop(i);
        ASAN_UNPOISON_MEMORY_REGION(b.bytes.get(), b.size);
        return b;
      }
    }
    return std::nullopt;
  }

 private:
  Block Pop(std::size_t i) {
    Block b = std::move(blocks_[i]);
    std::move(blocks_.begin() + i + 1, blocks_.begin() + count_, blocks_.begin() + i);
    --count_;
    bytes_ -= b.size;
    return b;
  }

  std::array<Block, kSpareBlocks> blocks_;
  std::size_t count_ = 0;
  std::size_t bytes_ = 0;
};

ObjectTable::SpareList* ObjectTable::Spares() {
  if (spares_gone) {
    return nullptr;
  }
  thread_local SpareList list;
  return &list;
}

std::size_t ObjectTable::SpareBytes() {
  const SpareList* spares = Spares();
  return spares != nullptr ? spares->bytes() : 0;
}

ObjectTable::~ObjectTable() {
  for (const Entry& e : objects_) {
    Destroy(e.second.get());
  }
  for (const UntypedEntry& e : untypeds_) {
    Destroy(e.second.get());
  }
  if (SpareList* spares = Spares(); spares != nullptr) {
    for (Block& b : blocks_) {
      spares->Put(std::move(b));
    }
  }
}

void ObjectTable::AddBlock(std::size_t bytes) {
  SpareList* spares = Spares();
  if (std::optional<Block> spare = spares != nullptr ? spares->Take(bytes) : std::nullopt) {
    BlocksReused().Inc();
    blocks_.push_back(std::move(*spare));
    return;
  }
  // new[] of std::byte leaves the bytes uninitialised: pages a block never
  // fills are never touched.
  blocks_.push_back({std::unique_ptr<std::byte[]>(new std::byte[bytes]), bytes, 0});
}

void* ObjectTable::Allocate(std::size_t bytes) {
  if (blocks_.empty() || blocks_.back().size - blocks_.back().used < bytes) {
    AddBlock(std::max(bytes, kBlockBytes));
  }
  Block& b = blocks_.back();
  void* p = b.bytes.get() + b.used;
  b.used += bytes;
  return p;
}

template <typename Construct>
KObject* ObjectTable::Place(ObjType type, Addr base, std::uint8_t size_bits,
                            Construct&& construct) {
  memo_base_ = kNoMemo;
  memo_obj_ = nullptr;
  const std::size_t bytes = StorageBytes(type);
  const Addr size = Addr{1} << size_bits;
  if (base % size != 0) {
    throw std::logic_error("object misaligned: " + std::string(ObjTypeName(type)) + " at " +
                           std::to_string(base));
  }
  if (type == ObjType::kUntyped) {
    const auto pos = LowerBound(untypeds_, base);
    if (pos != untypeds_.end() && pos->first == base) {
      throw std::logic_error("untyped region already registered at " + std::to_string(base));
    }
    // A region owns nothing, so a copy the index fails to take needs no
    // clean-up.
    static_assert(std::is_trivially_destructible_v<UntypedObj>);
    auto* ut = static_cast<UntypedObj*>(construct(Allocate(bytes)));
    untypeds_.insert(pos, {base, Ref<UntypedObj>(ut)});
    live_bytes_ += bytes;
    return ut;
  }
  // Untyped regions legitimately contain the objects retyped from them, so
  // only non-untyped objects are checked against one another. Those never
  // overlap, so the predecessor and the successor are the only candidates.
  const auto next = objects_.empty() || objects_.back().first < base
                        ? objects_.end()
                        : LowerBound(objects_, base);
  if ((next != objects_.end() && next->first < base + size) ||
      (next != objects_.begin() && std::prev(next)->second->End() > base)) {
    throw std::logic_error("object overlap: " + std::string(ObjTypeName(type)) + " at " +
                           std::to_string(base));
  }
  // If the index cannot grow, the object (a CNode copy owns its slots) is
  // destroyed before the exception leaves.
  KObject* obj = construct(Allocate(bytes));
  try {
    objects_.insert(next, {base, Ref<KObject>(obj)});
  } catch (...) {
    Destroy(obj);
    throw;
  }
  live_bytes_ += bytes;
  return obj;
}

KObject* ObjectTable::Insert(ObjType type, Addr base, std::uint8_t size_bits) {
  return Place(type, base, size_bits, [&](void* p) -> KObject* {
    KObject* obj = WithObjStruct(type, [p](auto* t) -> KObject* {
      using T = std::remove_pointer_t<decltype(t)>;
      return new (p) T();
    });
    obj->type = type;
    obj->base = base;
    obj->size_bits = size_bits;
    return obj;
  });
}

void ObjectTable::Remove(Addr base) {
  memo_base_ = kNoMemo;
  memo_obj_ = nullptr;
  // A removed object's bytes are not reused while the table lives. Under ASan
  // they are poisoned, so reading a removed object is reported as a use after
  // delete would be.
  const auto drop = [this](KObject* obj) {
    const std::size_t bytes = StorageBytes(obj->type);
    live_bytes_ -= bytes;
    Destroy(obj);
    ASAN_POISON_MEMORY_REGION(obj, bytes);
  };
  if (const auto it = LowerBound(objects_, base); it != objects_.end() && it->first == base) {
    drop(it->second.get());
    objects_.erase(it);
    return;
  }
  if (const auto it = LowerBound(untypeds_, base); it != untypeds_.end() && it->first == base) {
    drop(it->second.get());
    untypeds_.erase(it);
    return;
  }
  throw std::logic_error("ObjectTable::Remove: no object at " + std::to_string(base));
}

ObjectTable::Relocation ObjectTable::CopyFrom(const ObjectTable& src) {
  Relocation moved;
  if (src.live_bytes_ != 0) {
    AddBlock(src.live_bytes_);
  }
  objects_.reserve(src.objects_.size());
  untypeds_.reserve(src.untypeds_.size());
  const auto copy_of = [this](const KObject& from) {
    return Place(from.type, from.base, from.size_bits, [&from](void* p) -> KObject* {
      return WithObjStruct(from.type, [&from, p](auto* t) -> KObject* {
        using T = std::remove_pointer_t<decltype(t)>;
        return new (p) T(static_cast<const T&>(from));
      });
    });
  };
  for (const Entry& e : src.objects_) {
    const KObject& from = *e.second;
    KObject* to = copy_of(from);
    // Extend the current run while source and copy both continue back to
    // back; a removed object, a block boundary or an out-of-order insert in
    // the source starts a new one.
    const auto* from_bytes = reinterpret_cast<const std::byte*>(&from);
    auto* to_bytes = reinterpret_cast<std::byte*>(to);
    const std::size_t n = StorageBytes(from.type);
    std::vector<Relocation::Run>& runs = moved.objects_;
    if (!runs.empty() && runs.back().from_end == from_bytes &&
        runs.back().to + (runs.back().from_end - runs.back().from) == to_bytes) {
      runs.back().from_end += n;
    } else {
      runs.push_back({from_bytes, from_bytes + n, to_bytes});
    }
    if (from.type == ObjType::kCNode) {
      // Slot identity: a slot maps to the same index of the copied CNode.
      const auto& from_slots = static_cast<const CNodeObj&>(from).slots;
      const auto* from_slot_bytes = reinterpret_cast<const std::byte*>(from_slots.data());
      moved.slots_.push_back(
          {from_slot_bytes, from_slot_bytes + from_slots.size() * sizeof(CapSlot),
           reinterpret_cast<std::byte*>(static_cast<CNodeObj*>(to)->slots.data())});
    }
  }
  for (const UntypedEntry& e : src.untypeds_) {
    copy_of(*e.second);
  }
  const auto by_source = [](const Relocation::Run& a, const Relocation::Run& b) {
    return std::less<const std::byte*>()(a.from, b.from);
  };
  std::sort(moved.objects_.begin(), moved.objects_.end(), by_source);
  std::sort(moved.slots_.begin(), moved.slots_.end(), by_source);
  return moved;
}

std::byte* ObjectTable::Relocation::Map(const std::vector<Run>& runs, const void* p) {
  const auto* b = static_cast<const std::byte*>(p);
  const std::less<const std::byte*> less;
  const auto it = std::partition_point(runs.begin(), runs.end(),
                                       [&](const Run& r) { return !less(b, r.from_end); });
  if (it == runs.end() || less(b, it->from)) {
    throw std::logic_error("ObjectTable::CopyFrom: link outside the source heap");
  }
  return it->to + (b - it->from);
}

TcbObj* ObjectTable::Relocation::operator()(const TcbObj* p) const {
  return std::launder(reinterpret_cast<TcbObj*>(Map(objects_, p)));
}

CapSlot* ObjectTable::Relocation::operator()(const CapSlot* p) const {
  return std::launder(reinterpret_cast<CapSlot*>(Map(slots_, p)));
}

KObject* ObjectTable::Find(Addr base) const {
  if (base == memo_base_) {
    return memo_obj_;
  }
  if (const auto it = LowerBound(objects_, base); it != objects_.end() && it->first == base) {
    memo_base_ = base;
    memo_obj_ = it->second.get();
    return memo_obj_;
  }
  if (const auto it = LowerBound(untypeds_, base); it != untypeds_.end() && it->first == base) {
    memo_base_ = base;
    memo_obj_ = it->second.get();
    return memo_obj_;
  }
  return nullptr;
}

}  // namespace pmk
