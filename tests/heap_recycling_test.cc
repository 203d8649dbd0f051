// The kernel heap's per-thread block recycling: a dying ObjectTable hands its
// blocks to the spare list of the thread that destroys it, and that thread's
// next table takes a spare of a fitting size before asking the allocator.
// Each test runs on threads of its own, so no other test's spares interfere.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/load/fleet.h"
#include "src/obs/metrics.h"
#include "src/sim/runner.h"

namespace pmk {
namespace {

std::uint64_t BlocksReused() {
  return obs::MetricsRegistry::Get().Snapshot().CounterValue("kernel.heap.blocks_reused");
}

// Runs |body| on a new thread and waits for it.
template <typename F>
void OnThread(F&& body) {
  std::thread(std::forward<F>(body)).join();
}

struct World {
  std::unique_ptr<System> sys;
  load::Fleet fleet;
};

World Boot(std::uint32_t clients) {
  World w;
  w.sys = std::make_unique<System>(KernelConfig::After(), EvalMachine(false));
  load::FleetSpec spec;
  spec.clients = clients;
  spec.servers = 4;
  w.fleet = load::BuildClientFleet(*w.sys, spec);
  return w;
}

const KObject* FirstObject(System& sys) {
  return sys.kernel().objects().objects().front().second.get();
}

TEST(HeapRecyclingTest, ADroppedTableGivesItsBlockToTheThreadsNextTable) {
  OnThread([] {
    const World w = Boot(200);
    auto first = w.sys->Clone();
    const KObject* first_object = FirstObject(*first);
    const std::size_t spare = ObjectTable::SpareBytes();
    const std::uint64_t reused = BlocksReused();
    first.reset();
    EXPECT_GT(ObjectTable::SpareBytes(), spare);

    // The next fork fills the same block, in the same order.
    const auto second = w.sys->Clone();
    EXPECT_EQ(BlocksReused(), reused + 1);
    EXPECT_EQ(ObjectTable::SpareBytes(), spare);
    EXPECT_EQ(FirstObject(*second), first_object);
    EXPECT_NO_THROW(second->kernel().CheckInvariants());
  });
}

TEST(HeapRecyclingTest, ARecycledBlockThatHeldRemovedObjectsServesAFullFork) {
  OnThread([] {
    World w = Boot(64);
    std::vector<Addr> loose;  // endpoints no capability names
    for (int i = 0; i < 8; ++i) {
      loose.push_back(w.sys->kernel().DirectEndpoint()->base);
    }
    // Remove them from one fork, which poisons their bytes under ASan, and
    // drop it.
    {
      auto doomed = w.sys->Clone();
      for (const Addr a : loose) {
        doomed->kernel().objects().Remove(a);
      }
      doomed->kernel().CheckInvariants();
    }
    const std::uint64_t reused = BlocksReused();
    const auto fork = w.sys->Clone();
    ASSERT_EQ(BlocksReused(), reused + 1);
    for (const Addr a : loose) {
      ASSERT_NE(fork->kernel().objects().Get<EndpointObj>(a), nullptr);
    }

    // The fork on the recycled block runs, changes and audits like the
    // system it was forked from.
    const auto run = [&w](System& sys) {
      const load::Fleet fleet = load::ResolveFleet(sys, w.fleet);
      Runner r(&sys);
      SyscallArgs call;
      call.msg_len = 2;
      for (std::size_t s = 0; s < fleet.servers.size(); ++s) {
        r.SetProgram(fleet.servers[s], {UserStep::Syscall(SysOp::kReplyRecv, fleet.ep_cptrs[s])});
      }
      for (std::size_t i = 0; i < fleet.clients.size(); ++i) {
        r.SetProgram(fleet.clients[i],
                     {UserStep::Compute(200 + 10 * (i % 9)),
                      UserStep::Syscall(SysOp::kCall, fleet.client_cptrs[i], call)});
      }
      sys.kernel().DirectSetCurrent(fleet.clients[0]);
      sys.machine().timer().set_period(8'000);
      sys.machine().timer().Restart(sys.machine().Now());
      const std::uint64_t steps = r.Run(200'000);
      sys.machine().timer().set_period(0);
      sys.kernel().CheckInvariants();
      return std::make_pair(steps, sys.machine().Now());
    };
    const auto on_recycled = run(*fork);
    for (const Addr a : loose) {
      fork->kernel().objects().Remove(a);
    }
    fork->kernel().CheckInvariants();
    EXPECT_GT(on_recycled.first, 50u);
    EXPECT_EQ(on_recycled, run(*w.sys));
  });
}

TEST(HeapRecyclingTest, ATableMayDieOnAnotherThread) {
  World w;
  std::unique_ptr<System> fork;
  OnThread([&] {
    w = Boot(100);
    fork = w.sys->Clone();
  });
  const KObject* fork_object = FirstObject(*fork);
  // One thread drops the fork another thread built and forks again, while a
  // second one boots, forks and drops its own.
  std::unique_ptr<System> base = std::move(w.sys);
  std::unique_ptr<System> refork;
  const std::uint64_t reused = BlocksReused();
  std::thread dropper([&] {
    fork.reset();  // to this thread's spares
    refork = base->Clone();
  });
  std::thread other([] {
    const World mine = Boot(100);
    const auto copy = mine.sys->Clone();
    copy->kernel().CheckInvariants();
  });
  dropper.join();
  other.join();
  EXPECT_GE(BlocksReused(), reused + 1);
  EXPECT_EQ(FirstObject(*refork), fork_object);
  EXPECT_NO_THROW(refork->kernel().CheckInvariants());
  OnThread([&] { base.reset(); });
}

// Set by a table's owner that its thread destroys after the spare list.
std::atomic<std::size_t> late_spare_bytes{1};

struct LateOwner {
  std::unique_ptr<System> sys;
  ~LateOwner() {
    sys.reset();  // the list is gone: the blocks go back to the allocator
    late_spare_bytes = ObjectTable::SpareBytes();
  }
};

TEST(HeapRecyclingTest, ATableMayOutliveItsThreadsSpareList) {
  OnThread([] {
    // Built before the spare list, so the thread's exit destroys it after.
    thread_local LateOwner owner;
    owner.sys = Boot(50).sys;
    auto fork = owner.sys->Clone();
    fork.reset();
    EXPECT_GT(ObjectTable::SpareBytes(), 0u);
  });
  EXPECT_EQ(late_spare_bytes.load(), 0u);
}

}  // namespace
}  // namespace pmk
