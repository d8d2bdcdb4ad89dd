/**
 * @file
 * Tests for the CLH_TRY timeout queue lock: timeout semantics, queue
 * integrity across abandonments, FIFO behaviour without timeouts, and the
 * bound on the nodes a timeout storm allocates.
 */
#include <gtest/gtest.h>

#include "locks/clh_try.hpp"
#include "sim/engine.hpp"
#include "unwalked_peak.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;
using namespace nucalock::sim;
using nucalock::testing_support::UnwalkedPeak;

constexpr int kStormThreads = 8;

struct StormResult
{
    std::uint64_t acquisitions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t order_hash = 0xcbf29ce484222325ULL; // FNV-1a over tids
    AbandonStats stats;
    SimTime end = 0;
    TrafficStats traffic;
    std::uint32_t lines_grown = 0; ///< lines the acquisitions allocated
    std::uint64_t unwalked_peak = 0;
};

/**
 * A timeout storm on 2x4 cpus: thread 0 always acquires and holds for
 * 3 us; threads 1-7 acquire on every third iteration and otherwise try
 * for 300 + 50 t ns, hold for 400 ns, and wait 200 ns after a timeout and
 * 100 ns after a release.
 */
StormResult
run_timeout_storm(int iterations)
{
    SimMachine m(Topology::symmetric(2, 4));
    ClhTryLock<SimContext> lock(m);
    UnwalkedPeak unwalked;
    m.install_probe(&unwalked);
    const std::uint32_t lines_before = m.memory().num_lines();
    StormResult r;
    for (int t = 0; t < kStormThreads; ++t) {
        m.add_thread(t, [&, t](SimContext& ctx) {
            for (int i = 0; i < iterations; ++i) {
                if (t == 0 || (i + t) % 3 == 0) {
                    lock.acquire(ctx);
                } else if (!lock.try_acquire_for(
                               ctx, 300 + 50 * static_cast<SimTime>(t))) {
                    ++r.timeouts;
                    ctx.delay_ns(200);
                    continue;
                }
                ++r.acquisitions;
                r.order_hash ^= static_cast<std::uint64_t>(t);
                r.order_hash *= std::uint64_t{0x100000001b3};
                ctx.delay_ns(t == 0 ? 3'000 : 400);
                lock.release(ctx);
                ctx.delay_ns(100);
            }
        });
    }
    m.run();
    r.stats = lock.abandon_stats();
    r.end = m.now();
    r.traffic = m.traffic();
    r.lines_grown = m.memory().num_lines() - lines_before;
    r.unwalked_peak = unwalked.peak();
    return r;
}

TEST(ClhTry, TimesOutWhileHeldThenSucceeds)
{
    SimMachine m(Topology::wildfire(2));
    ClhTryLock<SimContext> lock(m);
    const MemRef phase = m.alloc(0, 0);
    bool timed_out = false;
    bool later = false;

    m.add_thread(0, [&](SimContext& ctx) {
        lock.acquire(ctx);
        ctx.store(phase, 1);
        ctx.delay_ns(500'000);
        lock.release(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) {
        ctx.spin_while_equal(phase, 0);
        timed_out = !lock.try_acquire_for(ctx, 50'000);
        ctx.delay_ns(600'000); // holder released by now
        later = lock.try_acquire_for(ctx, 50'000);
        if (later)
            lock.release(ctx);
    });
    m.run();
    EXPECT_TRUE(timed_out);
    EXPECT_TRUE(later);
}

TEST(ClhTry, AbandonedMiddleWaiterDoesNotBreakTheChain)
{
    // Queue: holder <- A (times out) <- B (patient). When the holder
    // releases, B must inherit the grant through A's redirect.
    SimMachine m(Topology::wildfire(3));
    ClhTryLock<SimContext> lock(m);
    std::vector<int> order;
    bool a_timed_out = false;

    m.add_thread(0, [&](SimContext& ctx) {
        lock.acquire(ctx);
        ctx.delay_ns(1'000'000);
        lock.release(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) { // A: impatient
        ctx.delay_ns(50'000);
        a_timed_out = !lock.try_acquire_for(ctx, 100'000);
    });
    m.add_thread(2, [&](SimContext& ctx) { // B: patient
        ctx.delay_ns(100'000);
        lock.acquire(ctx);
        order.push_back(2);
        lock.release(ctx);
    });
    m.run();
    EXPECT_TRUE(a_timed_out);
    EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(ClhTry, AbandonedTailIsRecoveredByNextArrival)
{
    // A times out as the queue tail; a later arriver must chain through
    // its abandoned node and still get the lock.
    SimMachine m(Topology::wildfire(3));
    ClhTryLock<SimContext> lock(m);
    bool late_got_it = false;

    m.add_thread(0, [&](SimContext& ctx) {
        lock.acquire(ctx);
        ctx.delay_ns(800'000);
        lock.release(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) { // times out, tail position
        ctx.delay_ns(50'000);
        EXPECT_FALSE(lock.try_acquire_for(ctx, 100'000));
    });
    m.add_thread(2, [&](SimContext& ctx) { // arrives after the abandonment
        ctx.delay_ns(400'000);
        lock.acquire(ctx);
        late_got_it = true;
        lock.release(ctx);
    });
    m.run();
    EXPECT_TRUE(late_got_it);
}

TEST(ClhTry, ManyChainedAbandonments)
{
    SimMachine m(Topology::wildfire(6));
    ClhTryLock<SimContext> lock(m);
    int impatient_failures = 0;
    bool patient_ok = false;

    m.add_thread(0, [&](SimContext& ctx) {
        lock.acquire(ctx);
        ctx.delay_ns(2'000'000);
        lock.release(ctx);
    });
    for (int t = 1; t <= 5; ++t) { // five impatient waiters in a row
        m.add_thread(t, [&, t](SimContext& ctx) {
            ctx.delay_ns(static_cast<SimTime>(t) * 20'000);
            if (!lock.try_acquire_for(ctx, 150'000))
                ++impatient_failures;
            else
                lock.release(ctx);
        });
    }
    m.add_thread(6, [&](SimContext& ctx) { // patient, enqueued last
        ctx.delay_ns(150'000);
        lock.acquire(ctx);
        patient_ok = true;
        lock.release(ctx);
    });
    m.run();
    EXPECT_EQ(impatient_failures, 5);
    EXPECT_TRUE(patient_ok);
}

TEST(ClhTry, FifoWithoutTimeouts)
{
    SimMachine m(Topology::symmetric(2, 4));
    ClhTryLock<SimContext> lock(m);
    std::vector<int> order;
    m.add_thread(0, [&](SimContext& ctx) {
        lock.acquire(ctx);
        ctx.delay_ns(1'000'000);
        lock.release(ctx);
    });
    for (int i = 1; i < 8; ++i) {
        m.add_thread(i, [&, i](SimContext& ctx) {
            ctx.delay_ns(static_cast<SimTime>(i) * 50'000);
            lock.acquire(ctx);
            order.push_back(i);
            lock.release(ctx);
        });
    }
    m.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
}

TEST(ClhTry, TimeoutStormRunIsPinned)
{
    // Reusing nodes changes no simulated access: this is the run a fresh
    // node per acquisition gives.
    const StormResult r = run_timeout_storm(500);
    EXPECT_EQ(r.acquisitions, 1'666u);
    EXPECT_EQ(r.timeouts, 2'334u);
    EXPECT_EQ(r.stats.abandons, 2'334u);
    EXPECT_EQ(r.stats.parked, 2'334u);
    EXPECT_EQ(r.stats.reclaims, 2'334u);
    EXPECT_EQ(r.end, 7'912'241u);
    EXPECT_EQ(r.traffic.local_tx, 14'419u);
    EXPECT_EQ(r.traffic.global_tx, 8'852u);
    EXPECT_EQ(r.order_hash, 0x88fdb52beaf50e01u);
}

TEST(ClhTry, TimeoutStormNodeLinesAreBounded)
{
    const StormResult short_run = run_timeout_storm(500);
    const StormResult long_run = run_timeout_storm(2'000);
    // The node count stops growing with the run's length...
    EXPECT_EQ(long_run.lines_grown, short_run.lines_grown);
    // ...and stays within the bound ClhTryLock documents.
    for (const StormResult* r : {&short_run, &long_run})
        EXPECT_LE(r->lines_grown, ClhTryLock<SimContext>::max_acquire_nodes(
                                      kStormThreads, r->unwalked_peak))
            << "unwalked peak " << r->unwalked_peak;
}

TEST(ClhTry, ZeroTimeoutIsAPoliteTrylock)
{
    SimMachine m(Topology::wildfire(2));
    ClhTryLock<SimContext> lock(m);
    bool first = false;
    bool second = true;
    m.add_thread(0, [&](SimContext& ctx) {
        first = lock.try_acquire_for(ctx, 0); // free: should succeed
        ctx.delay_ns(100'000);
        lock.release(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) {
        ctx.delay_ns(20'000);
        second = lock.try_acquire_for(ctx, 0); // held: immediate timeout
        if (second)
            lock.release(ctx);
    });
    m.run();
    EXPECT_TRUE(first);
    EXPECT_FALSE(second);
}

} // namespace
