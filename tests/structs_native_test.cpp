/**
 * @file
 * Native-backend tests for the lock-backed structures (src/structs/) on
 * real std::thread: the MPMC queue soak asserting no item is lost or
 * duplicated under concurrent producers/consumers, plus striped-map and
 * locked-stack smoke under true parallelism. The same templates run on
 * the simulator in structs_test.cpp; this file proves the host-memory
 * side (the buckets/ring/stack vectors guarded by the simulated lock
 * words) is race-free when the locks are real.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "native/machine.hpp"
#include "structs/locked_stack.hpp"
#include "structs/mpmc_queue.hpp"
#include "structs/striped_map.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;
using namespace nucalock::native;

class NativeStructsTest : public testing::TestWithParam<LockKind>
{
};

TEST_P(NativeStructsTest, MpmcQueueSoakLosesAndDuplicatesNothing)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    structs::MpmcQueue<NativeContext>::Config cfg;
    cfg.capacity = 16;
    structs::MpmcQueue<NativeContext> queue(machine, GetParam(), cfg);

    constexpr int kProducers = 2;
    constexpr int kConsumers = 2;
    constexpr std::uint64_t kPerProducer = 3000;
    std::atomic<int> producers_done{0};
    std::vector<std::uint64_t> consumed[kConsumers];

    machine.run_threads(
        kProducers + kConsumers, Placement::RoundRobinNodes,
        [&](NativeContext& ctx, int) {
            const int tid = ctx.thread_id();
            if (tid < kProducers) {
                for (std::uint64_t j = 0; j < kPerProducer; ++j) {
                    const std::uint64_t v =
                        static_cast<std::uint64_t>(tid) * 1'000'000 + j;
                    while (!queue.enqueue(ctx, v))
                        std::this_thread::yield();
                }
                producers_done.fetch_add(1);
            } else {
                std::vector<std::uint64_t>& mine =
                    consumed[tid - kProducers];
                while (true) {
                    if (auto v = queue.dequeue(ctx)) {
                        mine.push_back(*v);
                    } else if (producers_done.load() == kProducers) {
                        // No enqueue can be in flight anymore, so an empty
                        // verdict is authoritative — drain and stop. The
                        // last producer may have enqueued after the empty
                        // dequeue above, so this one's item is kept too.
                        if (auto last = queue.dequeue(ctx))
                            mine.push_back(*last);
                        else
                            break;
                    } else {
                        std::this_thread::yield();
                    }
                }
            }
        });

    std::vector<std::uint64_t> all;
    for (const auto& mine : consumed)
        all.insert(all.end(), mine.begin(), mine.end());
    ASSERT_EQ(all.size(), kProducers * kPerProducer) << "items lost";
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
        << "item duplicated";
    // Sorted and complete => exactly the enqueued ids.
    for (int p = 0; p < kProducers; ++p)
        for (std::uint64_t j = 0; j < kPerProducer; ++j)
            ASSERT_EQ(all[static_cast<std::size_t>(p) * kPerProducer + j],
                      static_cast<std::uint64_t>(p) * 1'000'000 + j);
}

TEST_P(NativeStructsTest, StripedMapParallelPutsKeepEveryKey)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    structs::StripedMap<NativeContext>::Config cfg;
    cfg.stripes = 4;
    cfg.initial_buckets = 4;
    cfg.max_load_factor = 2.0; // force cooperative resize mid-run
    structs::StripedMap<NativeContext> map(machine, GetParam(), cfg);

    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 2000;
    std::atomic<std::uint64_t> missing{0};
    machine.run_threads(
        kThreads, Placement::RoundRobinNodes, [&](NativeContext& ctx, int) {
            const auto tid = static_cast<std::uint64_t>(ctx.thread_id());
            for (std::uint64_t j = 0; j < kPerThread; ++j)
                map.put(ctx, tid * 10'000'000 + j, tid);
            for (std::uint64_t j = 0; j < kPerThread; ++j)
                if (!map.get(ctx, tid * 10'000'000 + j).has_value())
                    missing.fetch_add(1);
        });

    EXPECT_EQ(missing.load(), 0u);
    EXPECT_EQ(map.host_size(), kThreads * kPerThread);
    EXPECT_GE(map.resize_epochs(), 1u);
}

TEST_P(NativeStructsTest, LockedStackBalancedPushPop)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    structs::LockedStack<NativeContext> stack(machine, GetParam());

    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    std::atomic<std::uint64_t> popped{0};
    machine.run_threads(kThreads, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int) {
                            for (int i = 0; i < kIters; ++i) {
                                stack.push(ctx, static_cast<std::uint64_t>(i));
                                if (stack.pop(ctx).has_value())
                                    popped.fetch_add(1);
                            }
                        });
    // Every pop follows this thread's own push, so none can miss.
    EXPECT_EQ(popped.load(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(stack.host_size(), 0u);
}

// A spread of lock families: plain spin, queue, NUCA backoff, adaptive.
INSTANTIATE_TEST_SUITE_P(Structs, NativeStructsTest,
                         testing::Values(LockKind::Tatas, LockKind::Ticket,
                                         LockKind::Mcs, LockKind::HboGt,
                                         LockKind::Adaptive),
                         [](const testing::TestParamInfo<LockKind>& param) {
                             return std::string(lock_name(param.param));
                         });

} // namespace
