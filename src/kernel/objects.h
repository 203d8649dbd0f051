// Kernel objects, capabilities and the object table.
//
// Mirrors seL4's object model: all kernel memory is typed from untyped
// regions; capabilities (16 bytes: one word of metadata too small for frame
// mapping info, which motivates the ASID / shadow-page-table designs of
// Section 3.6) live in CNode slots and are linked into a derivation tree
// (seL4's MDB) supporting delete and revoke.
//
// Objects carry the incremental-consistency resume state the paper stores
// "within the object itself": untyped clearing progress (Section 3.5), the
// endpoint badged-abort four-tuple (Section 3.4), and page tables' lowest
// mapped index (Section 3.6).

#ifndef SRC_KERNEL_OBJECTS_H_
#define SRC_KERNEL_OBJECTS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/kernel/config.h"
#include "src/kernel/types.h"

namespace pmk {

struct TcbObj;

// A capability: type, object reference, badge, rights. seL4 packs this into
// 16 bytes (8 bytes of MDB links + 8 bytes of payload); we model the size for
// cache purposes via slot addresses, not via actual packing.
struct Cap {
  ObjType type = ObjType::kNull;
  Addr obj = 0;
  std::uint64_t badge = kBadgeNone;
  CapRights rights;

  bool IsNull() const { return type == ObjType::kNull; }
};

// A CNode slot holding a capability, threaded into the global mapping
// database (MDB): a doubly-linked list in derivation order where a cap's
// descendants follow it contiguously with greater depth.
struct CapSlot {
  Cap cap;
  CapSlot* mdb_prev = nullptr;
  CapSlot* mdb_next = nullptr;
  std::uint16_t mdb_depth = 0;
  Addr addr = 0;  // physical address of this 16-byte slot

  bool IsNull() const { return cap.IsNull(); }
};

// The common header of every kernel object. Each object struct names its
// type as kType; ObjectTable constructs, copies and destroys objects as that
// struct, chosen by |type|, so nothing is deleted through a KObject pointer.
struct KObject {
  ObjType type = ObjType::kNull;
  Addr base = 0;
  std::uint8_t size_bits = 0;

  std::uint64_t SizeBytes() const { return std::uint64_t{1} << size_bits; }
  Addr End() const { return base + SizeBytes(); }

 protected:
  ~KObject() = default;
};

struct UntypedObj : KObject {
  static constexpr ObjType kType = ObjType::kUntyped;
  Addr watermark = 0;  // next free byte within the region (seL4 freeIndex)

  // Retype-in-progress state (Section 3.5): clearing happens before any other
  // kernel state is modified; its progress lives here so a preempted retype
  // resumes where it left off when the system call restarts.
  bool retype_active = false;
  ObjType retype_type = ObjType::kNull;
  std::uint8_t retype_bits = 0;
  Addr retype_base = 0;
  std::uint64_t cleared_bytes = 0;
};

struct CNodeObj : KObject {
  static constexpr ObjType kType = ObjType::kCNode;
  std::uint8_t radix_bits = 0;
  std::uint8_t guard_bits = 0;
  std::uint32_t guard_value = 0;
  std::vector<CapSlot> slots;  // 1 << radix_bits

  std::uint32_t NumSlots() const { return 1u << radix_bits; }
  Addr SlotAddr(std::uint32_t index) const { return base + static_cast<Addr>(index) * 16; }
};

struct EndpointObj : KObject {
  static constexpr ObjType kType = ObjType::kEndpoint;
  enum class QState : std::uint8_t { kIdle, kSend, kRecv };
  QState qstate = QState::kIdle;
  TcbObj* q_head = nullptr;
  TcbObj* q_tail = nullptr;
  std::uint32_t q_len = 0;  // bookkeeping mirror (not charged; metadata only)

  // Deactivated at the start of a delete so no thread can start a new IPC on
  // it (Section 3.3's forward-progress guarantee).
  bool active = true;

  // Pending IRQ-notification bits (badge = line + 1), delivered on next Recv.
  std::uint64_t pending_notifications = 0;

  // Badged-abort resume state (Section 3.4): (1) resume point in the list,
  // (2) end marker fixed when the operation commenced, (3) the badge being
  // removed, (4) the thread performing the abort.
  struct AbortState {
    bool valid = false;
    std::uint64_t badge = kBadgeNone;
    TcbObj* resume = nullptr;
    TcbObj* end_marker = nullptr;
    TcbObj* aborter = nullptr;
  };
  AbortState abort;
};

struct TcbObj : KObject {
  static constexpr ObjType kType = ObjType::kTcb;
  ThreadState state = ThreadState::kInactive;
  std::uint8_t prio = 0;
  Addr cspace_root = 0;  // CNode
  Addr vspace = 0;       // PageDir (0 = none)

  // Scheduler queue links (intrusive, Section 3.1) + membership flag.
  TcbObj* sched_next = nullptr;
  TcbObj* sched_prev = nullptr;
  bool in_run_queue = false;

  // Endpoint queue links.
  TcbObj* ep_next = nullptr;
  TcbObj* ep_prev = nullptr;
  Addr blocked_on = 0;  // endpoint the thread is queued on

  // IPC state.
  std::uint64_t blocked_badge = kBadgeNone;  // badge of the blocked send
  bool blocked_is_call = false;
  TcbObj* reply_to = nullptr;  // caller awaiting our Reply
  std::array<std::uint64_t, 8> mrs{};
  std::uint32_t msg_len = 0;
  std::uint64_t recv_badge = 0;  // badge/sender info of last received message
  KError last_error = KError::kOk;

  // Remaining timeslice ticks (kernel preemption timer, round-robin).
  std::uint32_t timeslice = 5;

  // Receive slot: index in the root CNode where transferred caps land.
  std::uint32_t recv_slot = 0;

  // Fault handling.
  std::uint32_t fault_handler_cptr = 0;  // cap address of fault endpoint
};

struct PageTableObj : KObject {
  static constexpr ObjType kType = ObjType::kPageTable;
  static constexpr std::uint32_t kEntries = 256;  // ARMv6: 1 KiB, 256 x 4 B

  std::array<Addr, kEntries> pte{};          // frame base or 0
  std::array<CapSlot*, kEntries> shadow{};   // back-pointer to the frame cap
  std::uint32_t mapped_count = 0;
  std::uint32_t lowest_mapped = kEntries;    // resume index (Section 3.6)

  bool mapped_in_pd = false;
  Addr parent_pd = 0;
  std::uint32_t pd_index = 0;

  Addr PteAddr(std::uint32_t i) const { return base + static_cast<Addr>(i) * 4; }
  // Shadow stored adjacent to the table itself (Figure 5).
  Addr ShadowAddr(std::uint32_t i) const { return base + 1024 + static_cast<Addr>(i) * 4; }
};

struct PageDirObj : KObject {
  static constexpr ObjType kType = ObjType::kPageDir;
  static constexpr std::uint32_t kEntries = 4096;  // ARMv6: 16 KiB, 4096 x 4 B
  // Top 256 entries (256 MiB) are the kernel's global mappings.
  static constexpr std::uint32_t kUserEntries = kEntries - 256;

  std::array<Addr, kEntries> pde{};         // page table (or section frame) base
  std::array<bool, kEntries> is_section{};  // large frame mapped directly
  std::array<CapSlot*, kEntries> shadow{};  // back-pointer for sections / PTs
  std::uint32_t mapped_count = 0;           // user entries only
  std::uint32_t lowest_mapped = kUserEntries;

  bool global_mappings_present = false;  // invariant: true once created
  std::uint32_t asid = 0;                // ASID variant only (0 = none)

  Addr PdeAddr(std::uint32_t i) const { return base + static_cast<Addr>(i) * 4; }
  Addr ShadowAddr(std::uint32_t i) const { return base + 16 * 1024 + static_cast<Addr>(i) * 4; }
};

struct FrameObj : KObject {
  static constexpr ObjType kType = ObjType::kFrame;
  bool mapped = false;
  std::uint32_t asid = 0;   // ASID variant
  Addr mapped_pd = 0;       // shadow variant: containing address space
  Addr vaddr = 0;
};

struct AsidPoolObj : KObject {
  static constexpr ObjType kType = ObjType::kAsidPool;
  static constexpr std::uint32_t kEntries = 1024;
  std::array<Addr, kEntries> pd{};  // PageDir base or 0

  Addr EntryAddr(std::uint32_t i) const { return base + static_cast<Addr>(i) * 4; }
};

struct IrqHandlerObj : KObject {
  static constexpr ObjType kType = ObjType::kIrqHandler;
  std::uint32_t line = 0;
  Addr notify_ep = 0;  // endpoint notified on interrupt (0 = unbound)
};

// Returns the object's size in bits for allocation/alignment. PT/PD sizes
// double in the shadow-page-table configuration (the paper's Section 3.6
// memory-overhead discussion).
std::uint8_t ObjSizeBits(ObjType type, std::uint8_t user_bits, const KernelConfig& config);

// Owns all kernel objects, keyed by base address. Enforces the paper's
// object-alignment and no-overlap invariants on insertion (Section 2.2).
//
// Storage follows seL4, where every object is carved from untyped memory:
// the table constructs its objects in large blocks it owns (a copy fills
// exactly one), in allocation order, and never moves them, so the raw
// TcbObj*/CapSlot* links between objects stay valid for the table's
// lifetime. Remove destroys an object in place; its bytes stay unused until
// the table is destroyed. The index is a sorted, contiguous array of (base,
// object) entries, so Find and Get are a binary search. Untyped regions have
// an index of their own, because the objects retyped from an untyped
// legitimately share addresses with it (the first child starts at the
// region base).
//
// Insert is the only way in, for boot, retype and CopyFrom alike. Since the
// non-untyped objects never overlap one another, an insert checks just its
// two address neighbours: O(1) when appending above the highest object (the
// bump allocator's and CopyFrom's ascending order), otherwise a binary search
// plus a shift of the index entries above the new one.
class ObjectTable {
 public:
  // An index entry's object: a pointer into the table's storage that reads
  // like an owning handle (obj->type, obj.get()).
  template <typename T>
  class Ref {
   public:
    explicit Ref(T* p) : p_(p) {}
    T* get() const { return p_; }
    T* operator->() const { return p_; }
    T& operator*() const { return *p_; }

   private:
    T* p_;
  };
  using Entry = std::pair<Addr, Ref<KObject>>;
  using UntypedEntry = std::pair<Addr, Ref<UntypedObj>>;

  // Where CopyFrom put the source table's objects. A link into one of the
  // source's live objects, or into a CNode's slot array, maps to the same
  // byte of its copy, by offset within a run of objects that sit back to
  // back in both tables. A source that is itself a copy is a single run.
  // Any other link (a removed object, another table's object) throws
  // std::logic_error.
  class Relocation {
   public:
    TcbObj* operator()(const TcbObj* p) const;
    CapSlot* operator()(const CapSlot* p) const;

   private:
    friend class ObjectTable;
    struct Run {
      const std::byte* from;
      const std::byte* from_end;
      std::byte* to;
    };
    static std::byte* Map(const std::vector<Run>& runs, const void* p);
    std::vector<Run> objects_;  // sorted by source address
    std::vector<Run> slots_;    // one per CNode, sorted by source address
  };

  ObjectTable() = default;
  ObjectTable(const ObjectTable&) = delete;
  ObjectTable& operator=(const ObjectTable&) = delete;
  ~ObjectTable();

  // Constructs a default |type| object spanning [base, base + 2^size_bits)
  // and indexes it. Throws std::logic_error on misalignment or overlap,
  // leaving the table unchanged.
  KObject* Insert(ObjType type, Addr base, std::uint8_t size_bits);

  // Destroys the non-untyped object at |base|, else the untyped region there.
  void Remove(Addr base);

  // Fills this empty table with copies of |src|'s objects: one block sized to
  // |src|'s live objects, filled in address order through Insert's checks, so
  // a corrupt heap cannot be copied. The copies' links still point into
  // |src|; the returned Relocation maps them.
  Relocation CopyFrom(const ObjectTable& src);

  // Finds the non-untyped object at |base|, falling back to an untyped
  // region starting exactly there.
  KObject* Find(Addr base) const;

  // The object of struct T at |base|, or null. Untyped regions are looked up
  // only among the regions.
  template <typename T>
  T* Get(Addr base) const {
    if constexpr (std::is_same_v<T, UntypedObj>) {
      const auto it = LowerBound(untypeds_, base);
      return it != untypeds_.end() && it->first == base ? it->second.get() : nullptr;
    } else {
      KObject* o = Find(base);
      return o != nullptr && o->type == T::kType ? static_cast<T*>(o) : nullptr;
    }
  }

  std::size_t Count() const { return objects_.size() + untypeds_.size(); }

  const std::vector<Entry>& objects() const { return objects_; }
  const std::vector<UntypedEntry>& untypeds() const { return untypeds_; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> bytes;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  // The first entry whose base is not below |base|. Branch-free: which half
  // a search step takes depends on the key, so a predicted branch would miss
  // about every other step.
  template <typename E>
  static typename std::vector<E>::const_iterator LowerBound(const std::vector<E>& index,
                                                            Addr base) {
    if (index.empty()) {
      return index.end();
    }
    const E* first = index.data();
    for (std::size_t n = index.size(); n > 1;) {
      const std::size_t half = n / 2;
      first = first[half].first < base ? first + half : first;
      n -= half;
    }
    return index.begin() + ((first - index.data()) + (first->first < base ? 1 : 0));
  }

  // Checks |type|'s placement at |base|, then indexes the object |construct|
  // builds in fresh storage.
  template <typename Construct>
  KObject* Place(ObjType type, Addr base, std::uint8_t size_bits, Construct&& construct);
  void* Allocate(std::size_t bytes);
  void AddBlock(std::size_t bytes);

  std::vector<Block> blocks_;
  std::size_t live_bytes_ = 0;  // storage of the indexed objects
  std::vector<Entry> objects_;
  std::vector<UntypedEntry> untypeds_;
  // Single-entry lookup memo: syscall decode resolves the same capability
  // object repeatedly (the invoked cap, the IRQ endpoint), so the last
  // successful Find short-circuits most searches. Invalidated by every
  // table mutation; no real object sits at ~0, so it doubles as the empty
  // sentinel. The table is non-copyable, so the cached pointer can never
  // leak into another table's memo.
  static constexpr Addr kNoMemo = ~Addr{0};
  mutable Addr memo_base_ = kNoMemo;
  mutable KObject* memo_obj_ = nullptr;
};

}  // namespace pmk

#endif  // SRC_KERNEL_OBJECTS_H_
