/**
 * @file
 * Native-backend tests: the same lock algorithms on real std::thread,
 * including mutual exclusion under oversubscription (this CI box may have
 * a single core — the yield in the spin loops is what keeps this live).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "locks/any_lock.hpp"
#include "locks/guard.hpp"
#include "native/machine.hpp"
#include "obs/probe.hpp"
#include "unwalked_peak.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;
using namespace nucalock::native;

class NativeLockTest : public testing::TestWithParam<LockKind>
{
};

TEST_P(NativeLockTest, MutualExclusionOnRealThreads)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    AnyLock<NativeContext> lock(machine, GetParam());
    const NativeRef counter = machine.alloc(0);
    constexpr int kThreads = 4;
    constexpr int kIters = 2000;

    machine.run_threads(kThreads, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int) {
                            for (int i = 0; i < kIters; ++i) {
                                lock.acquire(ctx);
                                const std::uint64_t v = ctx.load(counter);
                                ctx.store(counter, v + 1);
                                lock.release(ctx);
                            }
                        });

    NativeContext ctx = machine.make_context(0, 0);
    EXPECT_EQ(ctx.load(counter),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST_P(NativeLockTest, SingleThreadReacquire)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    AnyLock<NativeContext> lock(machine, GetParam());
    NativeContext ctx = machine.make_context(0, 0);
    const NativeRef counter = machine.alloc(0);
    for (int i = 0; i < 1000; ++i) {
        LockGuard guard(lock, ctx);
        ctx.store(counter, ctx.load(counter) + 1);
    }
    EXPECT_EQ(ctx.load(counter), 1000u);
}

TEST_P(NativeLockTest, ContendedTryAcquireFailsWhileHeld)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    AnyLock<NativeContext> lock(machine, GetParam());
    std::atomic<bool> held{false};
    std::atomic<bool> tried{false};
    std::atomic<bool> got_it{true};

    machine.run_threads(2, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int i) {
                            if (i == 0) {
                                lock.acquire(ctx);
                                held.store(true);
                                while (!tried.load())
                                    std::this_thread::yield();
                                lock.release(ctx);
                                // For the queue locks the failed attempt is a
                                // bounded abort that leaves a marker node
                                // behind; the lock must stay fully usable.
                                lock.acquire(ctx);
                                lock.release(ctx);
                            } else {
                                while (!held.load())
                                    std::this_thread::yield();
                                got_it.store(lock.try_acquire(ctx));
                                tried.store(true);
                            }
                        });
    EXPECT_FALSE(got_it.load());
}

TEST_P(NativeLockTest, AcquireForExpiresWhileHeld)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    AnyLock<NativeContext> lock(machine, GetParam());
    std::atomic<bool> held{false};
    std::atomic<bool> expired{false};
    std::atomic<bool> got_it{true};
    constexpr std::uint64_t kTimeoutNs = 5'000'000; // 5 ms
    std::uint64_t waited_ns = 0;

    machine.run_threads(2, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int i) {
                            if (i == 0) {
                                lock.acquire(ctx);
                                held.store(true);
                                while (!expired.load())
                                    std::this_thread::yield();
                                lock.release(ctx);
                                // Usable again after the timed-out waiter's
                                // bounded abort.
                                lock.acquire(ctx);
                                lock.release(ctx);
                            } else {
                                while (!held.load())
                                    std::this_thread::yield();
                                const auto t0 =
                                    std::chrono::steady_clock::now();
                                got_it.store(
                                    lock.acquire_for(ctx, kTimeoutNs));
                                waited_ns = static_cast<std::uint64_t>(
                                    std::chrono::duration_cast<
                                        std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count());
                                expired.store(true);
                            }
                        });
    EXPECT_FALSE(got_it.load());
    // The failure must come from the deadline, not from a wrapped or
    // instantly-expired one: the waiter waited at least the timeout...
    EXPECT_GE(waited_ns, kTimeoutNs);
    // ...and returned with bounded overshoot. The bound is deliberately
    // loose (CI boxes get descheduled), but tight enough to catch an
    // abandonment path that spins a whole extra backoff ladder.
    EXPECT_LT(waited_ns, kTimeoutNs + 2'000'000'000u);
    // Locks with native abandonment must account the expiry.
    if (lock_supports_native_timeout(GetParam())) {
        EXPECT_GE(lock.abandon_stats().abandons, 1u);
    }
}

TEST_P(NativeLockTest, AbandonSoakLeavesNoLinkedNodes)
{
    // The leak audit from docs/robustness.md, as a live soak: hammer the
    // timed path until plenty of deadlines expire, then require that every
    // abandoned queue node was recovered (reclaimed by a releaser's walk
    // or rejoined/unparked by its owner). Only meaningful for locks with
    // native timed abandonment; the polling fallback never parks nodes.
    if (!lock_supports_native_timeout(GetParam()))
        GTEST_SKIP() << "no native timed-abandonment path to soak";

    NativeMachine machine(Topology::symmetric(2, 2));
    AnyLock<NativeContext> lock(machine, GetParam());
    const NativeRef counter = machine.alloc(0);
    const std::size_t chunks_built = machine.num_chunks();
    // CLH_TRY's node bound counts the redirects outstanding at once.
    const bool clh_try = GetParam() == LockKind::ClhTry;
    testing_support::UnwalkedPeak unwalked;
    obs::ThreadSafeSink sink(unwalked);
    if (clh_try)
        machine.install_probe(&sink);
    std::atomic<std::uint64_t> successes{0};
    constexpr int kThreads = 4;
    // Holds are longer than the timeout, so contenders expire constantly.
    constexpr std::uint64_t kTimeoutNs = 20'000;
    constexpr std::uint64_t kHoldNs = 40'000;

    // Two storms of different lengths on the same lock: what either leaves
    // behind must not depend on how long the lock has been in use.
    for (const int iters : {100, 400}) {
        machine.run_threads(
            kThreads, Placement::RoundRobinNodes,
            [&](NativeContext& ctx, int t) {
                for (int i = 0; i < iters; ++i) {
                    // Alternate timed and plain acquisitions so abandoned
                    // nodes always meet live traffic that can recover them.
                    if ((i + t) % 2 == 0) {
                        if (!lock.acquire_for(ctx, kTimeoutNs))
                            continue;
                    } else {
                        lock.acquire(ctx);
                    }
                    const std::uint64_t v = ctx.load(counter);
                    ctx.delay_ns(kHoldNs);
                    ctx.store(counter, v + 1);
                    lock.release(ctx);
                    successes.fetch_add(1, std::memory_order_relaxed);
                }
            });

        // Drain: quiescent acquire/release cycles walk any markers parked
        // by threads whose final act was an abandonment.
        NativeContext ctx = machine.make_context(0, 0);
        for (int i = 0; i < 4; ++i) {
            lock.acquire(ctx);
            lock.release(ctx);
        }

        // Mutual exclusion held throughout the storm...
        EXPECT_EQ(ctx.load(counter), successes.load()) << iters;
        const AbandonStats stats = lock.abandon_stats();
        // ...and at quiescence nothing abandoned is still linked: every
        // parked node was reclaimed, rejoined, or unparked (a leak here
        // would grow the queue without bound under repeated timeout
        // storms).
        EXPECT_EQ(stats.linked_abandoned(), 0u)
            << "parked=" << stats.parked << " reclaims=" << stats.reclaims
            << " rejoins=" << stats.rejoins << " unparks=" << stats.unparks;
        // CLH_TRY reuses its nodes: the machine holds no more than the
        // bound ClhTryLock documents, however long the storms ran.
        if (clh_try) {
            EXPECT_LE(machine.num_chunks() - chunks_built,
                      ClhTryLock<NativeContext>::max_acquire_nodes(
                          kThreads, unwalked.peak()))
                << "after " << iters << " iterations, unwalked peak "
                << unwalked.peak();
        }
    }
    // The soak actually exercised the abandonment path.
    EXPECT_GE(lock.abandon_stats().abandons, 1u);
}

TEST_P(NativeLockTest, AcquireForSucceedsUncontended)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    AnyLock<NativeContext> lock(machine, GetParam());
    NativeContext ctx = machine.make_context(0, 0);
    ASSERT_TRUE(lock.acquire_for(ctx, 1'000'000'000));
    EXPECT_FALSE(lock.try_acquire(ctx));
    lock.release(ctx);
    EXPECT_TRUE(lock.try_acquire(ctx));
    lock.release(ctx);
}

std::string
native_kind_name(const testing::TestParamInfo<LockKind>& param_info)
{
    return lock_name(param_info.param);
}

INSTANTIATE_TEST_SUITE_P(AllLocks, NativeLockTest,
                         testing::ValuesIn(all_lock_kinds()),
                         native_kind_name);

TEST(NativeMachine, AllocArraySpacing)
{
    NativeMachine machine(Topology::symmetric(1, 2));
    const NativeRef arr = machine.alloc_array(4, 9);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(arr.at(i).word->load(), 9u);
        // One full cache line apart, and line-aligned.
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arr.at(i).word) %
                      kCacheLineBytes,
                  0u);
    }
    EXPECT_EQ(reinterpret_cast<char*>(arr.at(1).word) -
                  reinterpret_cast<char*>(arr.at(0).word),
              static_cast<std::ptrdiff_t>(kCacheLineBytes));
}

TEST(NativeMachine, RefTokenRoundTrip)
{
    NativeMachine machine(Topology::symmetric(1, 2));
    const NativeRef ref = machine.alloc(5);
    EXPECT_EQ(NativeMachine::ref_from_token(ref.token()), ref);
    EXPECT_NE(ref.token(), 0u);
}

TEST(NativeMachine, NodeGatesDistinctAndStable)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    const NativeRef g0 = machine.node_gate(0);
    const NativeRef g1 = machine.node_gate(1);
    EXPECT_NE(g0, g1);
    EXPECT_EQ(machine.node_gate(0), g0);
    EXPECT_EQ(g0.word->load(), 0u);
}

TEST(NativeMachine, ContextIdentity)
{
    NativeMachine machine(Topology::hierarchical(2, 2, 2));
    NativeContext ctx = machine.make_context(3, 6);
    EXPECT_EQ(ctx.thread_id(), 3);
    EXPECT_EQ(ctx.cpu(), 6);
    EXPECT_EQ(ctx.node(), 1);
    EXPECT_EQ(ctx.chip(), 3);
    EXPECT_EQ(ctx.num_nodes(), 2);
}

TEST(NativeMachine, RunThreadsAssignsDistinctIds)
{
    NativeMachine machine(Topology::symmetric(2, 4));
    std::atomic<std::uint64_t> tid_mask{0};
    std::atomic<int> count{0};
    machine.run_threads(6, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int idx) {
                            EXPECT_EQ(ctx.thread_id(), idx);
                            tid_mask.fetch_or(1ull << ctx.thread_id());
                            count.fetch_add(1);
                        });
    EXPECT_EQ(count.load(), 6);
    EXPECT_EQ(tid_mask.load(), 0b111111u);
}

TEST(NativeContext, AtomicPrimitives)
{
    NativeMachine machine(Topology::symmetric(1, 2));
    NativeContext ctx = machine.make_context(0, 0);
    const NativeRef w = machine.alloc(10);

    EXPECT_EQ(ctx.load(w), 10u);
    EXPECT_EQ(ctx.cas(w, 10, 20), 10u); // success returns old (== expected)
    EXPECT_EQ(ctx.load(w), 20u);
    EXPECT_EQ(ctx.cas(w, 10, 30), 20u); // failure returns current
    EXPECT_EQ(ctx.load(w), 20u);
    EXPECT_EQ(ctx.swap(w, 40), 20u);
    EXPECT_EQ(ctx.tas(w), 40u);
    EXPECT_EQ(ctx.load(w), 1u);
    ctx.store(w, 0);
    EXPECT_EQ(ctx.tas(w), 0u);
}

TEST(NativeContext, SpinWhileEqualSeesWriterUpdate)
{
    NativeMachine machine(Topology::symmetric(1, 2));
    const NativeRef flag = machine.alloc(0);
    std::uint64_t observed = 0;
    machine.run_threads(2, Placement::Packed, [&](NativeContext& ctx, int i) {
        if (i == 0) {
            observed = ctx.spin_while_equal(flag, 0);
        } else {
            ctx.delay_ns(200'000);
            ctx.store(flag, 77);
        }
    });
    EXPECT_EQ(observed, 77u);
}

TEST(NativeContext, BackoffPollIsTheLiteralLoop)
{
    NativeMachine machine(Topology::symmetric(1, 2));
    NativeContext ctx = machine.make_context(0, 0);
    const NativeRef word = machine.alloc(5);

    // The word does not read `held`: one round, b grown once.
    std::uint32_t b = 4;
    PollResult r = backoff_poll(ctx, word, 7, &b, 2, 64, false);
    EXPECT_EQ(r.value, 5u);
    EXPECT_EQ(r.polls, 1u);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(b, 8u);

    // The deadline has passed: no round runs, and b stays.
    r = backoff_poll(ctx, word, 5, &b, 2, 64, false, obs::BackoffClass::Local,
                     kUnlimitedPolls, 1);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.value, 5u);
    EXPECT_EQ(r.polls, 0u);
    EXPECT_EQ(b, 8u);

    // It falls mid-poll: the rounds before it ran, and the poll ends on it.
    const std::uint64_t deadline = locks::detail::lock_clock_ns(ctx) + 2'000'000;
    r = backoff_poll(ctx, word, 5, &b, 2, 64, false, obs::BackoffClass::Local,
                     kUnlimitedPolls, deadline);
    EXPECT_TRUE(r.timed_out);
    EXPECT_EQ(r.value, 5u);
    EXPECT_GE(r.polls, 1u);
    EXPECT_GE(locks::detail::lock_clock_ns(ctx), deadline);

    // It reads `held` for good: max_polls rounds, b grown up to the cap.
    b = 8;
    r = backoff_poll(ctx, word, 5, &b, 2, 32, false, obs::BackoffClass::Local,
                     4);
    EXPECT_EQ(r.value, 5u);
    EXPECT_EQ(r.polls, 4u);
    EXPECT_FALSE(r.timed_out);
    EXPECT_EQ(b, 32u); // 8 -> 16 -> 32 -> 32 -> 32

    // A writer changes it mid-poll: the poll returns the new value, with b
    // grown once per round.
    const NativeRef flag = machine.alloc(1);
    PollResult seen;
    std::uint32_t grown = 0;
    constexpr std::uint32_t kCap = 1u << 20;
    machine.run_threads(2, Placement::Packed, [&](NativeContext& c, int i) {
        if (i == 0) {
            std::uint32_t bb = 1;
            seen = backoff_poll(c, flag, 1, &bb, 2, kCap, true);
            grown = bb;
        } else {
            c.delay_ns(200'000);
            c.store(flag, 9);
        }
    });
    EXPECT_EQ(seen.value, 9u);
    ASSERT_GE(seen.polls, 1u);
    EXPECT_EQ(grown, seen.polls >= 20 ? kCap : 1u << seen.polls);
}

TEST(NativeAnderson, TryAcquireWorksAfterContention)
{
    // A release counts its grant in a host-side shadow. Counted after the
    // grant is posted, it races with the next holder's release, and a lost
    // update leaves try_acquire failing for good.
    NativeMachine machine(Topology::symmetric(2, 2));
    AndersonLock<NativeContext> lock(machine);
    machine.run_threads(4, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int) {
                            for (int i = 0; i < 2000; ++i) {
                                lock.acquire(ctx);
                                lock.release(ctx);
                            }
                        });
    NativeContext ctx = machine.make_context(0, 0);
    ASSERT_TRUE(lock.try_acquire(ctx));
    bool other_got_it = true;
    std::thread([&] {
        NativeContext other = machine.make_context(1, 1);
        other_got_it = lock.try_acquire(other);
    }).join();
    EXPECT_FALSE(other_got_it);
    lock.release(ctx);
    EXPECT_TRUE(lock.try_acquire(ctx));
    lock.release(ctx);
}

TEST(NativeContext, TouchArrayIncrements)
{
    NativeMachine machine(Topology::symmetric(1, 2));
    NativeContext ctx = machine.make_context(0, 0);
    const NativeRef arr = machine.alloc_array(3, 1);
    ctx.touch_array(arr, 3, true);
    ctx.touch_array(arr, 3, false);
    for (std::uint32_t i = 0; i < 3; ++i)
        EXPECT_EQ(arr.at(i).word->load(), 2u);
}

TEST(NativeContext, RngSeededPerThread)
{
    NativeMachine machine(Topology::symmetric(1, 2));
    NativeContext a = machine.make_context(0, 0);
    NativeContext b = machine.make_context(1, 1);
    EXPECT_NE(a.rng().next(), b.rng().next());
    NativeContext a2 = machine.make_context(0, 0);
    EXPECT_EQ(a2.rng().next(), machine.make_context(0, 0).rng().next());
}

TEST(NativeGuard, ReleasesOnScopeExit)
{
    NativeMachine machine(Topology::symmetric(1, 2));
    TatasLock<NativeContext> lock(machine);
    NativeContext ctx = machine.make_context(0, 0);
    {
        LockGuard guard(lock, ctx);
        EXPECT_FALSE(lock.try_acquire(ctx));
    }
    EXPECT_TRUE(lock.try_acquire(ctx));
    lock.release(ctx);
}

} // namespace
