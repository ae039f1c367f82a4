// Storage bound of sim::CondVar under timed waits that are never notified
// (the idle poll loops of host threads and firmware). The test counts live
// heap allocations through a replaced global operator new, which is why it
// builds as its own binary: the hook must not reach the other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace {
std::atomic<std::int64_t> g_live_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    g_live_allocations.fetch_add(1, std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace vnet::sim {
namespace {

TEST(CondVar, TimedOutWaitsKeepStorageBounded) {
  constexpr int kTimeouts = 1'000'000;
  constexpr int kWarmup = 1'000;
  Engine eng;
  CondVar cv(eng);
  std::int64_t after_warmup = 0;
  std::int64_t growth = 0;
  eng.spawn([](CondVar& c, std::int64_t& base, std::int64_t& grew) -> Process {
    for (int i = 0; i < kTimeouts; ++i) {
      if (i == kWarmup) base = g_live_allocations.load();
      const bool notified = co_await c.wait_for(50 * us);
      if (notified) co_return;
    }
    grew = g_live_allocations.load() - base;
  }(cv, after_warmup, growth));
  eng.run();
  EXPECT_EQ(eng.now(), kTimeouts * 50 * us);
  EXPECT_EQ(cv.waiter_count(), 0u);
  // Each timed-out wait state is released within a few waits; only the
  // engine's and the allocator's bounded pools may grow past warm-up.
  EXPECT_LE(growth, 64);
}

}  // namespace
}  // namespace vnet::sim
