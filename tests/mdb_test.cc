// Unit tests for the mapping database (capability derivation tree) and the
// object table's alignment/overlap invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <utility>
#include <vector>

#include "src/kernel/cap.h"
#include "src/sim/workload.h"

namespace pmk {
namespace {

CapSlot MakeSlot(Addr obj, std::uint64_t badge = 0) {
  CapSlot s;
  s.cap.type = ObjType::kEndpoint;
  s.cap.obj = obj;
  s.cap.badge = badge;
  return s;
}

TEST(MdbTest, InsertChildLinksAndDeepens) {
  CapSlot parent = MakeSlot(0x1000);
  CapSlot child = MakeSlot(0x1000, 5);
  Mdb::InsertChild(&parent, &child);
  EXPECT_EQ(parent.mdb_next, &child);
  EXPECT_EQ(child.mdb_prev, &parent);
  EXPECT_EQ(child.mdb_depth, parent.mdb_depth + 1);
  EXPECT_TRUE(Mdb::HasChildren(&parent));
  EXPECT_EQ(Mdb::FirstDescendant(&parent), &child);
}

TEST(MdbTest, SameObjectCapsStayContiguous) {
  CapSlot a = MakeSlot(0x1000);
  CapSlot b = MakeSlot(0x1000);
  CapSlot c = MakeSlot(0x1000);
  Mdb::InsertChild(&a, &b);
  Mdb::InsertChild(&a, &c);  // inserted between a and b
  EXPECT_EQ(a.mdb_next, &c);
  EXPECT_EQ(c.mdb_next, &b);
  EXPECT_FALSE(Mdb::IsFinal(&a));
  EXPECT_FALSE(Mdb::IsFinal(&b));
  EXPECT_FALSE(Mdb::IsFinal(&c));
}

TEST(MdbTest, FinalityDetectsLastCap) {
  CapSlot a = MakeSlot(0x1000);
  CapSlot b = MakeSlot(0x1000);
  Mdb::InsertChild(&a, &b);
  Mdb::Remove(&b);
  EXPECT_TRUE(Mdb::IsFinal(&a));
  EXPECT_TRUE(b.IsNull());
  EXPECT_EQ(b.mdb_prev, nullptr);
  EXPECT_EQ(b.mdb_next, nullptr);
}

TEST(MdbTest, DistinctObjectsAreEachFinal) {
  CapSlot a = MakeSlot(0x1000);
  CapSlot b = MakeSlot(0x2000);
  Mdb::InsertSibling(&a, &b);
  EXPECT_TRUE(Mdb::IsFinal(&a));
  EXPECT_TRUE(Mdb::IsFinal(&b));
}

TEST(MdbTest, RemoveMiddleRelinksNeighbours) {
  CapSlot a = MakeSlot(0x1000);
  CapSlot b = MakeSlot(0x1000);
  CapSlot c = MakeSlot(0x1000, 9);
  Mdb::InsertChild(&a, &b);
  Mdb::InsertChild(&b, &c);
  Mdb::Remove(&b);  // c reparents to a implicitly
  EXPECT_EQ(a.mdb_next, &c);
  EXPECT_EQ(c.mdb_prev, &a);
  EXPECT_TRUE(Mdb::WellFormedAt(&a));
  EXPECT_TRUE(Mdb::WellFormedAt(&c));
}

TEST(MdbTest, DescendantEnumerationStopsAtDepth) {
  CapSlot root = MakeSlot(0x1000);
  CapSlot child1 = MakeSlot(0x1000, 1);
  CapSlot grand = MakeSlot(0x1000, 2);
  CapSlot sibling = MakeSlot(0x3000);
  Mdb::InsertSibling(&root, &sibling);  // not a descendant
  Mdb::InsertChild(&root, &child1);
  Mdb::InsertChild(&child1, &grand);
  std::size_t count = 0;
  for (CapSlot* d = Mdb::FirstDescendant(&root); d != nullptr;
       d = Mdb::NextDescendant(&root, d)) {
    count++;
  }
  EXPECT_EQ(count, 2u);  // child1 + grand, not sibling
}

TEST(MdbTest, WellFormedDetectsBrokenBackPointer) {
  CapSlot a = MakeSlot(0x1000);
  CapSlot b = MakeSlot(0x1000);
  Mdb::InsertChild(&a, &b);
  b.mdb_prev = nullptr;  // corrupt
  EXPECT_FALSE(Mdb::WellFormedAt(&a));
}

TEST(ObjectTableTest, RejectsMisalignedObject) {
  ObjectTable t;
  EXPECT_THROW(t.Insert(ObjType::kEndpoint, 0x1008, 4), std::logic_error);  // not 16-aligned
}

TEST(ObjectTableTest, RejectsOverlap) {
  ObjectTable t;
  t.Insert(ObjType::kTcb, 0x1000, 9);
  EXPECT_THROW(t.Insert(ObjType::kEndpoint, 0x1100, 4), std::logic_error);  // inside the TCB
}

TEST(ObjectTableTest, UntypedMayContainItsChildren) {
  ObjectTable t;
  static_cast<UntypedObj*>(t.Insert(ObjType::kUntyped, 0x2000, 12))->watermark = 0x2000;
  // Same base as the untyped: legal.
  EXPECT_NO_THROW(t.Insert(ObjType::kEndpoint, 0x2000, 4));
  EXPECT_NE(t.Get<UntypedObj>(0x2000), nullptr);
  EXPECT_NE(t.Get<EndpointObj>(0x2000), nullptr);
}

TEST(ObjectTableTest, RemoveDistinguishesUntypedFromChild) {
  ObjectTable t;
  t.Insert(ObjType::kUntyped, 0x2000, 12);
  t.Insert(ObjType::kEndpoint, 0x2000, 4);
  t.Remove(0x2000);  // removes the non-untyped object first
  EXPECT_EQ(t.Get<EndpointObj>(0x2000), nullptr);
  EXPECT_NE(t.Get<UntypedObj>(0x2000), nullptr);
}

// Get<T> returns an object only when its stored type is T's: no struct
// answers for another type's base, and untyped regions answer only
// Get<UntypedObj>, which sees nothing else.
TEST(ObjectTableTest, GetReturnsOnlyItsOwnType) {
  ObjectTable t;
  t.Insert(ObjType::kEndpoint, 0x1000, 4);
  t.Insert(ObjType::kTcb, 0x1200, 9);
  t.Insert(ObjType::kUntyped, 0x4000, 12);
  t.Insert(ObjType::kFrame, 0x4000, 12);  // retyped at the region's base
  EXPECT_EQ(t.Get<TcbObj>(0x1000), nullptr);
  EXPECT_EQ(t.Get<EndpointObj>(0x1200), nullptr);
  EXPECT_NE(t.Get<EndpointObj>(0x1000), nullptr);
  EXPECT_NE(t.Get<TcbObj>(0x1200), nullptr);
  EXPECT_EQ(t.Get<UntypedObj>(0x1000), nullptr);
  EXPECT_EQ(t.Get<UntypedObj>(0x1200), nullptr);
  ASSERT_NE(t.Get<UntypedObj>(0x4000), nullptr);
  EXPECT_EQ(t.Get<UntypedObj>(0x4000)->type, ObjType::kUntyped);
  EXPECT_EQ(t.Get<FrameObj>(0x4000), t.Find(0x4000));
  t.Remove(0x4000);  // the frame: now only the region starts there
  EXPECT_EQ(t.Get<FrameObj>(0x4000), nullptr);
  EXPECT_NE(t.Get<UntypedObj>(0x4000), nullptr);
}

TEST(ObjectTableTest, RejectsObjectCoveringTheNextBase) {
  ObjectTable t;
  t.Insert(ObjType::kEndpoint, 0x1100, 4);
  // Inserted below the endpoint, but its 512 bytes run over the endpoint.
  EXPECT_THROW(t.Insert(ObjType::kTcb, 0x1000, 9), std::logic_error);
  EXPECT_EQ(t.Count(), 1u);
}

TEST(ObjectTableTest, AcceptsExactAdjacency) {
  ObjectTable t;
  t.Insert(ObjType::kTcb, 0x1000, 9);
  EXPECT_NO_THROW(t.Insert(ObjType::kEndpoint, 0x1200, 4));  // starts at its end
  EXPECT_NO_THROW(t.Insert(ObjType::kEndpoint, 0xFF0, 4));   // ends at its base
  EXPECT_EQ(t.Count(), 3u);
}

TEST(ObjectTableTest, RejectsDuplicateBase) {
  ObjectTable t;
  t.Insert(ObjType::kTcb, 0x1000, 9);
  EXPECT_THROW(t.Insert(ObjType::kEndpoint, 0x1000, 4), std::logic_error);
  EXPECT_THROW(t.Insert(ObjType::kTcb, 0x1000, 9), std::logic_error);
  t.Insert(ObjType::kUntyped, 0x1000, 12);
  EXPECT_THROW(t.Insert(ObjType::kUntyped, 0x1000, 12), std::logic_error);
  EXPECT_EQ(t.Count(), 2u);
}

TEST(ObjectTableTest, InsertsBelowEveryObject) {
  ObjectTable t;
  t.Insert(ObjType::kTcb, 0x4000, 9);
  t.Insert(ObjType::kTcb, 0x5000, 9);
  EXPECT_NO_THROW(t.Insert(ObjType::kEndpoint, 0x1000, 4));
  // Below every object again, but 16 KiB long: covers all three.
  EXPECT_THROW(t.Insert(ObjType::kPageDir, 0x0, 14), std::logic_error);
  std::vector<Addr> keys;
  for (const auto& [base, obj] : t.objects()) {
    keys.push_back(base);
  }
  EXPECT_EQ(keys, (std::vector<Addr>{0x1000, 0x4000, 0x5000}));
  EXPECT_NE(t.Find(0x1000), nullptr);
}

TEST(ObjectTableTest, UntypedMayContainChildrenInsertedBeforeIt) {
  ObjectTable t;
  t.Insert(ObjType::kEndpoint, 0x2000, 4);
  t.Insert(ObjType::kTcb, 0x2200, 9);
  EXPECT_NO_THROW(t.Insert(ObjType::kUntyped, 0x2000, 12));  // around both
  EXPECT_NO_THROW(t.Insert(ObjType::kUntyped, 0x2400, 10));  // nested region
  // Inside a region, children still may not overlap one another.
  EXPECT_THROW(t.Insert(ObjType::kEndpoint, 0x2300, 4), std::logic_error);
  EXPECT_NO_THROW(t.Insert(ObjType::kEndpoint, 0x2400, 4));
  EXPECT_EQ(t.Count(), 5u);
}

// Seeded property: whatever the insertion order, Insert accepts an object
// exactly when a brute-force scan of the objects accepted so far finds no
// clash. Non-untyped objects clash when their ranges intersect; untyped
// regions clash only with another region at the same base.
TEST(ObjectTableTest, InsertMatchesBruteForceOverlapScan) {
  struct Candidate {
    ObjType type;
    std::uint8_t bits;
    Addr base;
    Addr End() const { return base + (Addr{1} << bits); }
  };
  constexpr std::array<std::pair<ObjType, std::uint8_t>, 6> kShapes = {{
      {ObjType::kEndpoint, 4},
      {ObjType::kTcb, 9},
      {ObjType::kPageTable, 10},
      {ObjType::kFrame, 12},
      {ObjType::kPageDir, 14},
      {ObjType::kUntyped, 13},
  }};
  constexpr Addr kSpan = Addr{1} << 20;
  enum class Order { kAscending, kDescending, kShuffled };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<Candidate> candidates;
    for (int i = 0; i < 300; ++i) {
      const auto [type, bits] = kShapes[rng() % kShapes.size()];
      candidates.push_back({type, bits, (rng() % (kSpan >> bits)) << bits});
    }
    for (const Order order : {Order::kAscending, Order::kDescending, Order::kShuffled}) {
      std::vector<Candidate> seq = candidates;
      if (order == Order::kShuffled) {
        std::shuffle(seq.begin(), seq.end(), rng);
      } else {
        std::stable_sort(seq.begin(), seq.end(), [order](const Candidate& a, const Candidate& b) {
          return order == Order::kAscending ? a.base < b.base : a.base > b.base;
        });
      }
      ObjectTable t;
      std::vector<Candidate> accepted;
      std::size_t rejected = 0;
      for (const Candidate& c : seq) {
        bool clash = false;
        for (const Candidate& a : accepted) {
          const bool untyped = c.type == ObjType::kUntyped || a.type == ObjType::kUntyped;
          clash = clash || (untyped ? c.type == a.type && c.base == a.base
                                    : a.base < c.End() && c.base < a.End());
        }
        bool threw = false;
        try {
          t.Insert(c.type, c.base, c.bits);
        } catch (const std::logic_error&) {
          threw = true;
        }
        ASSERT_EQ(threw, clash) << "seed " << seed << " order " << static_cast<int>(order)
                                << ": " << ObjTypeName(c.type) << " at " << c.base;
        if (clash) {
          rejected++;
        } else {
          accepted.push_back(c);
        }
      }
      EXPECT_EQ(t.Count(), accepted.size());
      EXPECT_GT(accepted.size(), 50u);  // both outcomes well exercised
      EXPECT_GT(rejected, 50u);
      Addr prev_end = 0;
      for (const auto& [base, obj] : t.objects()) {
        EXPECT_GE(base, prev_end);
        prev_end = obj->End();
      }
    }
  }
}

TEST(UntypedRevokeTest, RevokeResetsWatermark) {
  System sys(KernelConfig::After(), EvalMachine(false));
  TcbObj* t = sys.AddThread(10);
  UntypedObj* ut = nullptr;
  const std::uint32_t ut_cptr = sys.AddUntyped(14, &ut);
  sys.kernel().DirectSetCurrent(t);

  SyscallArgs mk;
  mk.label = InvLabel::kUntypedRetype;
  mk.obj_type = ObjType::kEndpoint;
  mk.dest_index = 70;
  sys.kernel().Syscall(SysOp::kCall, ut_cptr, mk);
  ASSERT_EQ(t->last_error, KError::kOk);
  ASSERT_GT(ut->watermark, ut->base);

  Cap root_cap;
  root_cap.type = ObjType::kCNode;
  root_cap.obj = sys.root()->base;
  const std::uint32_t root_cptr = sys.AddCap(root_cap);
  SyscallArgs revoke;
  revoke.label = InvLabel::kCNodeRevoke;
  revoke.arg0 = ut_cptr & 0xFF;
  sys.kernel().Syscall(SysOp::kCall, root_cptr, revoke);
  EXPECT_EQ(ut->watermark, ut->base);  // memory reclaimed
  EXPECT_TRUE(sys.root()->slots[70].IsNull());

  // The region is reusable.
  mk.dest_index = 71;
  sys.kernel().Syscall(SysOp::kCall, ut_cptr, mk);
  EXPECT_EQ(t->last_error, KError::kOk);
  EXPECT_FALSE(sys.root()->slots[71].IsNull());
  sys.kernel().CheckInvariants();
}

}  // namespace
}  // namespace pmk
