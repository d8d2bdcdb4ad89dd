/**
 * @file
 * The run_timed() ready queue (sim/ready_queue.hpp, a winner tree over
 * packed (wake, tid) keys) and the fiber stack pool (sim/stack_pool.hpp) —
 * the engine hot-path data structures. The queue's ordering must exactly
 * match the linear scan it replaced: earliest wake first, ties broken by
 * lowest tid. That tie-break is part of the determinism contract pinned in
 * tests/exec_test.cpp.
 */
#include <algorithm>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/ready_queue.hpp"
#include "sim/time.hpp"
#include "sim/stack_pool.hpp"

namespace {

using nucalock::sim::kTimeInfinity;
using nucalock::sim::ReadyQueue;
using nucalock::sim::SimConfig;
using nucalock::sim::SimTime;
using nucalock::sim::StackPool;

/** The scan the queue replaced, as a reference model. */
struct ScanModel
{
    struct Entry
    {
        SimTime wake;
        int tid;
    };
    std::vector<Entry> entries;

    void
    push_or_update(int tid, SimTime wake)
    {
        for (Entry& e : entries)
            if (e.tid == tid) {
                e.wake = wake;
                return;
            }
        entries.push_back({wake, tid});
    }

    void
    remove(int tid)
    {
        entries.erase(std::remove_if(entries.begin(), entries.end(),
                                     [tid](const Entry& e) {
                                         return e.tid == tid;
                                     }),
                      entries.end());
    }

    /** Earliest wake, lowest tid on ties — run_timed()'s old pick. */
    const Entry&
    top() const
    {
        const Entry* best = nullptr;
        for (const Entry& e : entries)
            if (best == nullptr || e.wake < best->wake ||
                (e.wake == best->wake && e.tid < best->tid))
                best = &e;
        return *best;
    }
};

TEST(ReadyQueue, OrdersByWakeThenTid)
{
    ReadyQueue q;
    q.reset(4);
    q.push_or_update(2, 50);
    q.push_or_update(0, 10);
    q.push_or_update(3, 10); // same wake as tid 0: lower tid wins
    q.push_or_update(1, 30);
    EXPECT_EQ(q.size(), 4u);
    EXPECT_EQ(q.top_tid(), 0);
    EXPECT_EQ(q.top_wake(), 10);
    q.remove(0);
    EXPECT_EQ(q.top_tid(), 3);
    q.remove(3);
    EXPECT_EQ(q.top_tid(), 1);
    q.remove(1);
    EXPECT_EQ(q.top_tid(), 2);
    q.remove(2);
    EXPECT_TRUE(q.empty());
}

TEST(ReadyQueue, UpdateRekeysInPlace)
{
    ReadyQueue q;
    q.reset(3);
    q.push_or_update(0, 100);
    q.push_or_update(1, 200);
    q.push_or_update(2, 300);
    EXPECT_EQ(q.top_tid(), 0);
    q.push_or_update(2, 1); // move to front
    EXPECT_EQ(q.top_tid(), 2);
    EXPECT_EQ(q.size(), 3u); // re-key, not duplicate
    q.push_or_update(2, 1000); // and to the back
    EXPECT_EQ(q.top_tid(), 0);
    EXPECT_TRUE(q.contains(2));
    q.remove(2);
    EXPECT_FALSE(q.contains(2));
    q.remove(2); // removing an absent tid is a no-op
    EXPECT_EQ(q.size(), 2u);
}

TEST(ReadyQueue, MatchesLinearScanUnderRandomChurn)
{
    // One leaf (T=1), a tree with unused leaves (T=13), and the largest
    // simulated machine (T=1024, every tid bit in use).
    for (const int threads : {1, 13, 1024}) {
        SCOPED_TRACE(threads);
        ReadyQueue q;
        ScanModel model;
        q.reset(static_cast<std::size_t>(threads));

        // Deterministic LCG so the "random" churn replays identically.
        std::uint64_t state = 0x2545f4914f6cdd1dULL;
        const auto next = [&state] {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            return state >> 33;
        };

        for (int step = 0; step < 5000; ++step) {
            const auto tid = static_cast<int>(
                next() % static_cast<std::uint64_t>(threads));
            switch (next() % 3) {
            case 0:
            case 1: {
                // Small wake range on purpose: plenty of ties to exercise
                // the tid tie-break.
                const auto wake = static_cast<SimTime>(next() % 8);
                q.push_or_update(tid, wake);
                model.push_or_update(tid, wake);
                break;
            }
            default:
                q.remove(tid);
                model.remove(tid);
                break;
            }
            ASSERT_EQ(q.size(), model.entries.size()) << "step " << step;
            if (!model.entries.empty()) {
                ASSERT_EQ(q.top_tid(), model.top().tid) << "step " << step;
                ASSERT_EQ(q.top_wake(), model.top().wake) << "step " << step;
            } else {
                ASSERT_TRUE(q.empty()) << "step " << step;
            }
        }
    }
}

TEST(ReadyQueue, KeyBoundaries)
{
    ReadyQueue q;
    q.reset(ReadyQueue::kMaxThreads);
    // The highest tid ties with tid 0 at an equal wake: lower tid first.
    q.push_or_update(1023, 7);
    q.push_or_update(0, 7);
    EXPECT_EQ(q.top_tid(), 0);
    EXPECT_FALSE(q.before_top(1023, 7));
    EXPECT_TRUE(q.before_top(1, 6));
    q.remove(0);
    EXPECT_EQ(q.top_tid(), 1023);
    EXPECT_EQ(q.top_wake(), 7u);
    EXPECT_TRUE(q.before_top(0, 7));

    // The largest wake a key holds, at the highest tid, is still a queued
    // key and not the absent one; it orders after a wake one ns earlier.
    q.push_or_update(1023, ReadyQueue::kMaxWake);
    q.push_or_update(5, ReadyQueue::kMaxWake - 1);
    EXPECT_EQ(q.top_tid(), 5);
    q.remove(5);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.contains(1023));
    EXPECT_EQ(q.top_tid(), 1023);
    EXPECT_EQ(q.top_wake(), ReadyQueue::kMaxWake);

    // Later wakes saturate to kMaxWake and then order by tid.
    q.push_or_update(6, kTimeInfinity);
    EXPECT_EQ(q.top_tid(), 6);
    EXPECT_EQ(q.top_wake(), ReadyQueue::kMaxWake);
    EXPECT_EQ(q.size(), 2u);

    // An empty queue lets anything run ahead.
    q.reset(ReadyQueue::kMaxThreads);
    EXPECT_TRUE(q.before_top(1023, kTimeInfinity));
}

TEST(ReadyQueueDeathTest, ResetBeyondTidBitsRejected)
{
    ReadyQueue q;
    EXPECT_DEATH(q.reset(ReadyQueue::kMaxThreads + 1),
                 "ReadyQueue holds at most 1024 threads");
}

TEST(ReadyQueue, ResetClearsMembership)
{
    ReadyQueue q;
    q.reset(2);
    q.push_or_update(0, 5);
    q.push_or_update(1, 6);
    q.reset(2);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.contains(0));
    EXPECT_FALSE(q.contains(1));
}

// ---------------------------------------------------------------------------

TEST(StackPool, ReusesSameSizedStacks)
{
    StackPool::trim();
    constexpr std::size_t kBytes = 64 * 1024;
    char* first = StackPool::acquire(kBytes);
    ASSERT_NE(first, nullptr);
    StackPool::release(first, kBytes);
    EXPECT_EQ(StackPool::pooled_count(), 1u);
    // Same size comes back out of the pool — the same block, in fact.
    char* second = StackPool::acquire(kBytes);
    EXPECT_EQ(second, first);
    EXPECT_EQ(StackPool::pooled_count(), 0u);
    StackPool::release(second, kBytes);
    StackPool::trim();
    EXPECT_EQ(StackPool::pooled_count(), 0u);
}

#ifdef __linux__
/** The 2 MiB-aligned windows that @p count stacks of @p bytes, acquired
 *  on a fresh host thread, lie in. */
std::size_t
huge_pages_spanned(std::size_t count, std::size_t bytes)
{
    constexpr int kHugePageShift = 21;
    std::set<std::uintptr_t> pages;
    std::thread([&] {
        std::vector<char*> stacks;
        for (std::size_t i = 0; i < count; ++i)
            stacks.push_back(StackPool::acquire(bytes));
        for (char* stack : stacks) {
            const auto low = reinterpret_cast<std::uintptr_t>(stack);
            pages.insert(low >> kHugePageShift);
            pages.insert((low + bytes - 1) >> kHugePageShift);
            StackPool::release(stack, bytes);
        }
    }).join();
    return pages.size();
}

TEST(StackPool, DefaultStacksOfA28ThreadMachineShareOneHugePage)
{
    // Stacks are carved side by side from 2 MiB-aligned huge-page slabs,
    // so the huge pages each executor worker keeps resident are its
    // machine's stacks over 2 MiB: one at the simulator's default size,
    // four at a bare Fiber's 256 KiB.
    EXPECT_EQ(huge_pages_spanned(28, SimConfig{}.fiber_stack_bytes), 1u);
    EXPECT_EQ(huge_pages_spanned(28, 256 * 1024), 4u);
}
#endif

TEST(StackPool, SizeMismatchAllocatesFresh)
{
    StackPool::trim();
    char* small = StackPool::acquire(32 * 1024);
    StackPool::release(small, 32 * 1024);
    EXPECT_EQ(StackPool::pooled_count(), 1u);
    // A different size must not be served by the pooled block.
    char* large = StackPool::acquire(128 * 1024);
    EXPECT_NE(large, small);
    EXPECT_EQ(StackPool::pooled_count(), 1u);
    StackPool::release(large, 128 * 1024);
    StackPool::trim();
}

} // namespace
