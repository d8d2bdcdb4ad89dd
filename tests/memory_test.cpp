/**
 * @file
 * Unit tests for the coherence/memory model: state transitions, latency
 * ordering, traffic classification, cas semantics, and watchers.
 */
#include <gtest/gtest.h>

#include "sim/latency.hpp"
#include "sim/memory.hpp"
#include "topology/topology.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::sim;

class MemoryTest : public testing::Test
{
  protected:
    MemoryTest()
        : topo_(Topology::symmetric(2, 4)), lat_(LatencyModel::wildfire()),
          mem_(topo_, lat_)
    {
    }

    Topology topo_;
    LatencyModel lat_;
    SimMemory mem_;
};

TEST_F(MemoryTest, AllocInitialState)
{
    const MemRef ref = mem_.alloc(123, 1);
    EXPECT_TRUE(ref.valid());
    EXPECT_EQ(mem_.peek(ref), 123u);
    EXPECT_EQ(mem_.home_node(ref), 1);
    EXPECT_EQ(mem_.owner_cpu(ref), -1);
    EXPECT_FALSE(mem_.caches(ref, 0));
}

TEST_F(MemoryTest, AllocArrayContiguous)
{
    const MemRef a = mem_.alloc_array(3, 7, 0);
    EXPECT_EQ(a.at(0).line + 1, a.at(1).line);
    EXPECT_EQ(a.at(1).line + 1, a.at(2).line);
    EXPECT_EQ(mem_.peek(a.at(2)), 7u);
}

TEST_F(MemoryTest, TokenRoundTrips)
{
    const MemRef ref = mem_.alloc(0, 0);
    EXPECT_NE(ref.token(), 0u);
    EXPECT_EQ(MemRef{static_cast<std::uint32_t>(ref.token() - 1)}, ref);
}

TEST_F(MemoryTest, LoadFetchesThenHits)
{
    const MemRef ref = mem_.alloc(5, 0);
    const AccessOutcome cold = mem_.access(MemOp::Load, 0, 0, ref);
    EXPECT_EQ(cold.old_value, 5u);
    EXPECT_GE(cold.complete, lat_.local_mem);
    EXPECT_TRUE(mem_.caches(ref, 0));

    const AccessOutcome warm = mem_.access(MemOp::Load, 0, cold.complete, ref);
    EXPECT_EQ(warm.complete - cold.complete, lat_.issue + lat_.cache_hit);
}

TEST_F(MemoryTest, RemoteMemoryCostsMore)
{
    const MemRef local = mem_.alloc(0, 0);
    const MemRef remote = mem_.alloc(0, 1);
    const SimTime t_local = mem_.access(MemOp::Load, 0, 0, local).complete;
    const SimTime t_remote = mem_.access(MemOp::Load, 0, 0, remote).complete;
    EXPECT_GT(t_remote, t_local);
}

TEST_F(MemoryTest, LatencyClassesOrdered)
{
    // owner-hit < same-node c2c < remote c2c for the same word.
    const MemRef ref = mem_.alloc(0, 0);
    SimTime t = mem_.access(MemOp::Store, 0, 0, ref, 1).complete;

    const AccessOutcome own = mem_.access(MemOp::Cas, 0, t, ref, 1, 2);
    const SimTime own_cost = own.complete - t;
    t = own.complete;

    const AccessOutcome same = mem_.access(MemOp::Cas, 1, t, ref, 2, 3);
    const SimTime same_cost = same.complete - t;
    t = same.complete;

    const AccessOutcome remote = mem_.access(MemOp::Cas, 4, t, ref, 3, 4);
    const SimTime remote_cost = remote.complete - t;

    EXPECT_LT(own_cost, same_cost);
    EXPECT_LT(same_cost, remote_cost);
    EXPECT_GT(remote_cost, 2 * same_cost); // the NUCA gap is substantial
}

TEST_F(MemoryTest, StoreTakesExclusiveOwnership)
{
    const MemRef ref = mem_.alloc(0, 0);
    mem_.access(MemOp::Load, 1, 0, ref);
    mem_.access(MemOp::Load, 2, 0, ref);
    mem_.access(MemOp::Store, 0, 0, ref, 9);
    EXPECT_EQ(mem_.peek(ref), 9u);
    EXPECT_EQ(mem_.owner_cpu(ref), 0);
    EXPECT_TRUE(mem_.caches(ref, 0));
    EXPECT_FALSE(mem_.caches(ref, 1));
    EXPECT_FALSE(mem_.caches(ref, 2));
}

TEST_F(MemoryTest, CasSuccessAndFailure)
{
    const MemRef ref = mem_.alloc(10, 0);
    const AccessOutcome ok = mem_.access(MemOp::Cas, 0, 0, ref, 10, 20);
    EXPECT_EQ(ok.old_value, 10u);
    EXPECT_EQ(mem_.peek(ref), 20u);

    const AccessOutcome fail = mem_.access(MemOp::Cas, 1, 0, ref, 10, 30);
    EXPECT_EQ(fail.old_value, 20u);
    EXPECT_EQ(mem_.peek(ref), 20u);
    // The failed cas still acquired the line exclusively (SPARC semantics).
    EXPECT_EQ(mem_.owner_cpu(ref), 1);
}

TEST_F(MemoryTest, SwapAndTas)
{
    const MemRef ref = mem_.alloc(3, 0);
    EXPECT_EQ(mem_.access(MemOp::Swap, 0, 0, ref, 8).old_value, 3u);
    EXPECT_EQ(mem_.peek(ref), 8u);
    EXPECT_EQ(mem_.access(MemOp::Tas, 1, 0, ref).old_value, 8u);
    EXPECT_EQ(mem_.peek(ref), 1u);
}

TEST_F(MemoryTest, TrafficClassification)
{
    const MemRef ref = mem_.alloc(0, 0);
    const TrafficStats before = mem_.traffic();

    // cpu0 fetches from local memory: one local transaction.
    mem_.access(MemOp::Load, 0, 0, ref);
    TrafficStats after = mem_.traffic() - before;
    EXPECT_EQ(after.local_tx, 1u);
    EXPECT_EQ(after.global_tx, 0u);

    // cpu4 (other node) fetches: one global transaction.
    mem_.access(MemOp::Load, 4, 0, ref);
    after = mem_.traffic() - before;
    EXPECT_EQ(after.global_tx, 1u);

    // cpu4 writes: must invalidate cpu0's copy (one more global inval) but
    // needs no data fetch (it is already a sharer -> upgrade).
    mem_.access(MemOp::Store, 4, 0, ref, 1);
    after = mem_.traffic() - before;
    EXPECT_GE(after.invalidation_tx, 1u);
    EXPECT_GE(after.global_tx, 2u);
}

TEST_F(MemoryTest, ExclusiveRewriteIsQuiet)
{
    const MemRef ref = mem_.alloc(0, 0);
    mem_.access(MemOp::Store, 0, 0, ref, 1);
    const TrafficStats before = mem_.traffic();
    mem_.access(MemOp::Store, 0, 0, ref, 2);
    mem_.access(MemOp::Cas, 0, 0, ref, 2, 3);
    const TrafficStats delta = mem_.traffic() - before;
    EXPECT_EQ(delta.total(), 0u); // cache-local operations: no transactions
}

TEST_F(MemoryTest, InvalidationPerHoldingNode)
{
    const MemRef ref = mem_.alloc(0, 0);
    // Sharers in both nodes.
    mem_.access(MemOp::Load, 1, 0, ref);
    mem_.access(MemOp::Load, 5, 0, ref);
    const TrafficStats before = mem_.traffic();
    mem_.access(MemOp::Store, 0, 0, ref, 1);
    const TrafficStats delta = mem_.traffic() - before;
    // One local invalidation (cpu1) + one global (cpu5's node).
    EXPECT_EQ(delta.invalidation_tx, 2u);
    EXPECT_GE(delta.local_tx, 1u);
    EXPECT_GE(delta.global_tx, 1u);
}

TEST_F(MemoryTest, WatchersRegisterAndWake)
{
    const MemRef ref = mem_.alloc(0, 0);
    EXPECT_TRUE(mem_.watch(ref, 7, 0));
    EXPECT_FALSE(mem_.watch(ref, 8, 99)); // value differs: refuse

    const AccessOutcome out = mem_.access(MemOp::Store, 0, 0, ref, 1);
    EXPECT_TRUE(out.wakes_watchers);
    std::vector<int> got;
    mem_.take_watchers(ref, got);
    EXPECT_EQ(got, (std::vector<int>{7}));
    mem_.take_watchers(ref, got);
    EXPECT_TRUE(got.empty()); // cleared
}

TEST_F(MemoryTest, LoadDoesNotWakeWatchers)
{
    const MemRef ref = mem_.alloc(0, 0);
    mem_.watch(ref, 3, 0);
    const AccessOutcome out = mem_.access(MemOp::Load, 1, 0, ref);
    EXPECT_FALSE(out.wakes_watchers);
}

TEST_F(MemoryTest, PokeBypassesCoherence)
{
    const MemRef ref = mem_.alloc(0, 0);
    const TrafficStats before = mem_.traffic();
    mem_.poke(ref, 77);
    EXPECT_EQ(mem_.peek(ref), 77u);
    EXPECT_EQ((mem_.traffic() - before).total(), 0u);
}

TEST_F(MemoryTest, BusQueuingDelaysConcurrentFetches)
{
    const MemRef a = mem_.alloc(0, 0);
    const MemRef b = mem_.alloc(0, 0);
    // Two same-time remote fetches from node-1 cpus: the second queues on
    // the shared global link and completes strictly later.
    const SimTime t1 = mem_.access(MemOp::Load, 4, 0, a).complete;
    const SimTime t2 = mem_.access(MemOp::Load, 5, 0, b).complete;
    EXPECT_GT(t2, t1);
}

TEST_F(MemoryTest, AccessCountTracks)
{
    const MemRef ref = mem_.alloc(0, 0);
    const std::uint64_t before = mem_.num_accesses();
    mem_.access(MemOp::Load, 0, 0, ref);
    mem_.access(MemOp::Store, 0, 0, ref, 1);
    EXPECT_EQ(mem_.num_accesses(), before + 2);
}

TEST(MemoryLimits, RejectsTooManyCpus)
{
    const Topology big = Topology::symmetric(2, 520); // 1040 > kMaxCpus
    const LatencyModel lat;
    EXPECT_DEATH(SimMemory(big, lat), "at most");
}

TEST(MemoryLimits, RejectsTooManyNodes)
{
    const Topology big = Topology::symmetric(65, 1); // 65 > kMaxNodes
    const LatencyModel lat;
    EXPECT_DEATH(SimMemory(big, lat), "at most");
}

TEST(MemoryDeathTest, BadRefPanics)
{
    const Topology topo = Topology::symmetric(1, 2);
    SimMemory mem(topo, LatencyModel::wildfire());
    EXPECT_DEATH(mem.peek(MemRef{5}), "bad MemRef");
    EXPECT_DEATH(mem.peek(MemRef{}), "bad MemRef");
}

TEST(MemoryDeathTest, UnwatchingANonWatcherPanics)
{
    const Topology topo = Topology::symmetric(1, 4);
    SimMemory mem(topo, LatencyModel::wildfire());
    const MemRef a = mem.alloc(0, 0);
    const MemRef b = mem.alloc(0, 0);
    EXPECT_TRUE(mem.watch(a, 1, 0));
    EXPECT_DEATH(mem.unwatch(a, 2), "thread 2 does not watch line");
    EXPECT_DEATH(mem.unwatch(b, 1), "thread 1 does not watch line");
    mem.unwatch(a, 1);
    EXPECT_DEATH(mem.unwatch(a, 1), "thread 1 does not watch line");
}

TEST(LatencyModelTest, PresetRatios)
{
    EXPECT_NEAR(LatencyModel::wildfire().nuca_ratio(), 3.5, 0.6);
    EXPECT_NEAR(LatencyModel::flat_smp().nuca_ratio(), 1.0, 0.01);
    EXPECT_NEAR(LatencyModel::dash().nuca_ratio(), 4.5, 0.1);
    EXPECT_NEAR(LatencyModel::numaq().nuca_ratio(), 10.0, 0.1);
    EXPECT_GT(LatencyModel::cmp_cluster().nuca_ratio(), 6.0);
}

TEST(LatencyModelTest, ScaledHitsRequestedRatio)
{
    for (double ratio : {1.0, 2.0, 6.0, 10.0})
        EXPECT_NEAR(LatencyModel::scaled(ratio).nuca_ratio(), ratio, 0.05);
}

TEST(LatencyModelDeathTest, ScaledRejectsBelowOne)
{
    EXPECT_DEATH(LatencyModel::scaled(0.5), "NUCA ratio");
}


TEST(MemoryChips, SameChipTransferIsCheapest)
{
    const Topology topo = Topology::hierarchical(2, 2, 2); // cpus 0,1 chip 0
    const LatencyModel lat = LatencyModel::cmp_cluster();
    SimMemory mem(topo, lat);
    const MemRef ref = mem.alloc(0, 0);

    SimTime t = mem.access(MemOp::Store, 0, 0, ref, 1).complete;
    const AccessOutcome chip = mem.access(MemOp::Load, 1, t, ref); // same chip
    const SimTime chip_cost = chip.complete - t;
    t = chip.complete;
    mem.access(MemOp::Store, 0, t, ref, 2); // take it back exclusively
    t = mem.access(MemOp::Store, 0, t, ref, 2).complete;
    const AccessOutcome node = mem.access(MemOp::Load, 2, t, ref); // other chip
    const SimTime node_cost = node.complete - t;
    t = node.complete;
    mem.access(MemOp::Store, 0, t, ref, 3);
    t = mem.access(MemOp::Store, 0, t, ref, 3).complete;
    const AccessOutcome remote = mem.access(MemOp::Load, 4, t, ref); // node 1
    const SimTime remote_cost = remote.complete - t;

    EXPECT_LT(chip_cost, node_cost);
    EXPECT_LT(node_cost, remote_cost);
}

TEST_F(MemoryTest, WatchersWakeInRegistrationOrder)
{
    const MemRef ref = mem_.alloc(0, 0);
    EXPECT_TRUE(mem_.watch(ref, 3, 0));
    EXPECT_TRUE(mem_.watch(ref, 1, 0));
    EXPECT_TRUE(mem_.watch(ref, 2, 0));
    mem_.access(MemOp::Store, 0, 0, ref, 1);
    std::vector<int> got;
    mem_.take_watchers(ref, got);
    EXPECT_EQ(got, (std::vector<int>{3, 1, 2}));
}

TEST_F(MemoryTest, UnwatchKeepsTheOthersWakeOrder)
{
    // Removing the head, a middle or the tail watcher leaves the others in
    // registration order; the removed thread can watch again, last.
    for (const int gone : {3, 1, 2, 4}) {
        const MemRef ref = mem_.alloc(0, 0);
        std::vector<int> expected;
        for (const int tid : {3, 1, 2, 4}) {
            EXPECT_TRUE(mem_.watch(ref, tid, 0));
            if (tid != gone)
                expected.push_back(tid);
        }
        mem_.unwatch(ref, gone);
        EXPECT_EQ(mem_.first_watcher(ref), expected.front()) << gone;
        EXPECT_TRUE(mem_.watch(ref, gone, 0));
        expected.push_back(gone);
        std::vector<int> got;
        mem_.take_watchers(ref, got);
        EXPECT_EQ(got, expected) << gone;
    }
    // The only watcher: the line is left with none, and a write wakes
    // nobody.
    const MemRef ref = mem_.alloc(0, 0);
    EXPECT_TRUE(mem_.watch(ref, 5, 0));
    mem_.unwatch(ref, 5);
    EXPECT_EQ(mem_.first_watcher(ref), -1);
    EXPECT_FALSE(mem_.access(MemOp::Store, 0, 0, ref, 1).wakes_watchers);
}

TEST_F(MemoryTest, FailedCasWakesWatchersToo)
{
    // A failed cas invalidates the watchers' copies even though the value
    // does not change; they must be woken to re-fetch.
    const MemRef ref = mem_.alloc(7, 0);
    mem_.access(MemOp::Load, 1, 0, ref);
    mem_.watch(ref, 1, 7);
    const AccessOutcome out = mem_.access(MemOp::Cas, 0, 0, ref, 99, 100);
    EXPECT_EQ(out.old_value, 7u);
    EXPECT_TRUE(out.wakes_watchers);
}

TEST_F(MemoryTest, RecycleResetsALineToItsAllocState)
{
    const MemRef ref = mem_.alloc(1, 0);
    mem_.access(MemOp::Load, 5, 0, ref);
    mem_.access(MemOp::Store, 0, 1'000, ref, 9);
    mem_.access(MemOp::Load, 6, 2'000, ref);
    mem_.recycle(ref, 2, 1);
    EXPECT_EQ(mem_.peek(ref), 2u);
    EXPECT_EQ(mem_.home_node(ref), 1);
    EXPECT_EQ(mem_.owner_cpu(ref), -1);
    for (int cpu = 0; cpu < topo_.num_cpus(); ++cpu)
        EXPECT_FALSE(mem_.caches(ref, cpu)) << "cpu " << cpu;
}

TEST_F(MemoryTest, RecyclingAWatchedLineAborts)
{
    const MemRef ref = mem_.alloc(0, 0);
    EXPECT_TRUE(mem_.watch(ref, 3, 0));
    EXPECT_DEATH(mem_.recycle(ref, 0, 0), "while thread 3 watches it");
    const MemRef gate = mem_.alloc(0, 1);
    mem_.mark_node_gate(gate);
    EXPECT_DEATH(mem_.recycle(gate, 0, 1), "recycling node gate");
}

TEST_F(MemoryTest, DoubleWatchIsRejected)
{
    const MemRef ref = mem_.alloc(0, 0);
    EXPECT_TRUE(mem_.watch(ref, 5, 0));
    EXPECT_DEATH(mem_.watch(ref, 5, 0), "already watching");
}

} // namespace
