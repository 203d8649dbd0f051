// Scale guard for the kernel heap's three whole-heap walks: insertion at
// boot, Kernel::Clone and Kernel::CheckInvariants. Each costs O(1) or
// O(log n) per object, so a 10^5-client fleet boots, forks and audits in
// well under a second in a Release build. A quadratic walk (an insert that
// scans the whole table for overlaps) takes minutes here and trips the
// ctest timeout (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include "src/load/fleet.h"

namespace pmk {
namespace {

TEST(HeapScaleTest, HundredThousandClientFleetBootsClonesAndAudits) {
  System sys(KernelConfig::After(), EvalMachine(false));
  load::FleetSpec spec;
  spec.clients = 100000;
  spec.servers = 16;
  const load::Fleet fleet = load::BuildClientFleet(sys, spec);
  ASSERT_EQ(fleet.clients.size(), spec.clients);
  const std::size_t objects = sys.kernel().objects().Count();
  EXPECT_GT(objects, std::size_t{spec.clients + spec.servers});

  const std::unique_ptr<System> clone = sys.Clone();
  EXPECT_EQ(clone->kernel().objects().Count(), objects);
  EXPECT_EQ(clone->kernel().objects().objects().size(), sys.kernel().objects().objects().size());
  EXPECT_NO_THROW(clone->kernel().CheckInvariants());

  // The clone owns its own objects at the same addresses.
  const load::Fleet resolved = load::ResolveFleet(*clone, fleet);
  EXPECT_EQ(resolved.clients.back()->base, fleet.clients.back()->base);
  EXPECT_NE(resolved.clients.back(), fleet.clients.back());
}

}  // namespace
}  // namespace pmk
