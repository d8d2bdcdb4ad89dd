/**
 * @file
 * Tests for the InstrumentedLock statistics wrapper on both backends.
 */
#include <gtest/gtest.h>

#include "locks/hbo.hpp"
#include "locks/instrumented.hpp"
#include "locks/tatas.hpp"
#include "native/machine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;

TEST(InstrumentedSim, CountsAcquisitions)
{
    sim::SimMachine m(Topology::wildfire(4));
    InstrumentedLock<HboGtLock<sim::SimContext>, sim::SimContext> lock(m);
    m.add_threads(4, Placement::RoundRobinNodes,
                  [&](sim::SimContext& ctx, int) {
                      for (int i = 0; i < 25; ++i) {
                          lock.acquire(ctx);
                          ctx.delay(100);
                          lock.release(ctx);
                          ctx.delay(500);
                      }
                  });
    m.run();
    const LockStats& stats = lock.stats();
    EXPECT_EQ(stats.acquisitions, 100u);
    EXPECT_EQ(stats.wait_ns.count(), 100u);
    EXPECT_EQ(stats.hold_ns.count(), 100u);
    EXPECT_GE(stats.handoff_ratio(), 0.0);
    EXPECT_LE(stats.handoff_ratio(), 1.0);
}

TEST(InstrumentedSim, HoldTimeReflectsCriticalSection)
{
    sim::SimMachine m(Topology::wildfire(2));
    InstrumentedLock<TatasLock<sim::SimContext>, sim::SimContext> lock(m);
    m.add_thread(0, [&](sim::SimContext& ctx) {
        for (int i = 0; i < 10; ++i) {
            lock.acquire(ctx);
            ctx.delay_ns(50'000); // hold for 50 us
            lock.release(ctx);
        }
    });
    m.run();
    EXPECT_GE(lock.stats().hold_ns.mean(), 50'000.0);
    EXPECT_LT(lock.stats().hold_ns.mean(), 80'000.0);
}

TEST(InstrumentedSim, UncontendedWaitsAreFast)
{
    sim::SimMachine m(Topology::wildfire(2));
    InstrumentedLock<TatasLock<sim::SimContext>, sim::SimContext> lock(m);
    m.add_thread(0, [&](sim::SimContext& ctx) {
        for (int i = 0; i < 50; ++i) {
            lock.acquire(ctx);
            lock.release(ctx);
        }
    });
    m.run();
    EXPECT_EQ(lock.stats().contended_acquisitions, 0u);
}

TEST(InstrumentedSim, ContentionIsDetected)
{
    sim::SimMachine m(Topology::wildfire(4));
    InstrumentedLock<TatasLock<sim::SimContext>, sim::SimContext> lock(m);
    m.add_threads(8, Placement::RoundRobinNodes,
                  [&](sim::SimContext& ctx, int) {
                      for (int i = 0; i < 20; ++i) {
                          lock.acquire(ctx);
                          ctx.delay_ns(20'000); // long CS => real waiting
                          lock.release(ctx);
                          ctx.delay_ns(5'000); // let someone else grab it
                      }
                  });
    m.run();
    EXPECT_GT(lock.stats().contended_acquisitions, 50u);
    EXPECT_GT(lock.stats().node_handoffs, 0u);
}

TEST(InstrumentedSim, UnderlyingLockAccessible)
{
    sim::SimMachine m(Topology::wildfire(2));
    InstrumentedLock<TatasLock<sim::SimContext>, sim::SimContext> lock(m);
    m.add_thread(0, [&](sim::SimContext& ctx) {
        EXPECT_TRUE(lock.underlying().try_acquire(ctx));
        lock.underlying().release(ctx);
    });
    m.run();
}

TEST(InstrumentedNative, CountsOnRealThreads)
{
    native::NativeMachine m(Topology::symmetric(2, 2));
    InstrumentedLock<HboGtLock<native::NativeContext>, native::NativeContext>
        lock(m);
    const native::NativeRef counter = m.alloc(0);
    m.run_threads(4, Placement::RoundRobinNodes,
                  [&](native::NativeContext& ctx, int) {
                      for (int i = 0; i < 500; ++i) {
                          lock.acquire(ctx);
                          ctx.store(counter, ctx.load(counter) + 1);
                          lock.release(ctx);
                      }
                  });
    EXPECT_EQ(lock.stats().acquisitions, 2000u);
    EXPECT_EQ(lock.stats().wait_ns.count(), 2000u);
    native::NativeContext ctx = m.make_context(0, 0);
    EXPECT_EQ(ctx.load(counter), 2000u);
}

TEST(LockStatsStruct, HandoffRatioEdgeCases)
{
    LockStats stats;
    EXPECT_DOUBLE_EQ(stats.handoff_ratio(), 0.0);
    stats.acquisitions = 1;
    EXPECT_DOUBLE_EQ(stats.handoff_ratio(), 0.0);
    stats.acquisitions = 5;
    stats.node_handoffs = 2;
    EXPECT_DOUBLE_EQ(stats.handoff_ratio(), 0.5);
}

} // namespace
