/**
 * @file
 * Big-topology engine tests (docs/performance.md): the reworked engine
 * structures — intrusive watcher lists, multi-word sharer bitsets, the
 * flat traffic table, the chunked line arena, and ready-queue bulk pushes
 * — plus the determinism contract they must preserve: pinned
 * acquisition-order hashes at the headline 2x14 shape across --jobs
 * levels, and reproducible runs at shapes beyond 64 cpus.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "exec/executor.hpp"
#include "harness/newbench.hpp"
#include "sim/arena.hpp"
#include "sim/flat_table.hpp"
#include "sim/latency.hpp"
#include "sim/memory.hpp"
#include "sim/ready_queue.hpp"
#include "topology/topology.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::harness;
using namespace nucalock::locks;
using namespace nucalock::sim;

// ---------------------------------------------------------------------------
// Pinned hashes: the 2x14 WildFire defaults must produce these exact
// acquisition orders after any engine refactor, at every host-parallelism
// level. A changed hash here means the big-topology engine changed
// simulated behavior, not just speed.

std::uint64_t
default_shape_hash(LockKind kind)
{
    const NewBenchConfig config; // 2x14, cw=1500, pw=4000, 60 iters, seed 1
    return run_newbench(kind, config).acquisition_order_hash;
}

TEST(BigTopologyDeterminism, PinnedHashesAt2x14AcrossJobs)
{
    const struct
    {
        LockKind kind;
        std::uint64_t hash;
    } expected[] = {
        {LockKind::Tatas, 0x6f392b82b13a3bfdULL},
        {LockKind::Mcs, 0x6e567f0c44ef1325ULL},
        {LockKind::HboGt, 0x910dd0cb0e364d61ULL},
    };
    for (const int jobs : {1, 4}) {
        exec::Executor executor(jobs);
        const std::vector<std::uint64_t> hashes =
            executor.map<std::uint64_t>(
                std::size(expected),
                [&](std::size_t i) {
                    return default_shape_hash(expected[i].kind);
                });
        for (std::size_t i = 0; i < std::size(expected); ++i)
            EXPECT_EQ(hashes[i], expected[i].hash)
                << lock_name(expected[i].kind) << " at --jobs=" << jobs;
    }
}

TEST(BigTopologyDeterminism, BigShapeRunsAreReproducible)
{
    // 16 nodes x 64 cpus: sharer bitsets span 16 words, so this exercises
    // the multi-word paths end to end. Two runs must agree bit for bit.
    NewBenchConfig config;
    config.topology = Topology::symmetric(16, 64);
    config.threads = 1024;
    config.critical_work = 100;
    config.iterations_per_thread = 2;
    const BenchResult first = run_newbench(LockKind::Mcs, config);
    const BenchResult second = run_newbench(LockKind::Mcs, config);
    EXPECT_EQ(first.acquisition_order_hash, second.acquisition_order_hash);
    EXPECT_EQ(first.total_time, second.total_time);
    EXPECT_EQ(first.total_acquires, 2048u);
    EXPECT_EQ(first.sim_memory_accesses, second.sim_memory_accesses);
}

// ---------------------------------------------------------------------------
// Watcher pool: the intrusive per-thread links must behave exactly like
// the old vector-of-tids representation — FIFO registration order, take
// empties the line, a taken watcher can re-register.

class BigMemoryTest : public testing::Test
{
  protected:
    BigMemoryTest()
        : topo_(Topology::symmetric(16, 64)), lat_(LatencyModel::wildfire()),
          mem_(topo_, lat_)
    {
    }

    Topology topo_;
    LatencyModel lat_;
    SimMemory mem_;
};

TEST_F(BigMemoryTest, WatcherOrderMatchesVectorReference)
{
    // Interleave registrations on three lines, mirroring them in plain
    // vectors; take_watchers must return exactly the reference order.
    const MemRef lines[3] = {mem_.alloc(0, 0), mem_.alloc(0, 5),
                             mem_.alloc(0, 15)};
    std::vector<int> reference[3];
    // A deterministic but scrambled registration pattern over 300 tids.
    for (int tid = 0; tid < 300; ++tid) {
        const int which = (tid * 7 + tid / 9) % 3;
        ASSERT_TRUE(mem_.watch(lines[which], tid, 0));
        reference[which].push_back(tid);
    }
    for (int i = 0; i < 3; ++i) {
        std::vector<int> got;
        mem_.take_watchers(lines[i], got);
        EXPECT_EQ(got, reference[i]) << "line " << i;
        // Taking again yields nothing: the list was fully consumed.
        mem_.take_watchers(lines[i], got);
        EXPECT_TRUE(got.empty());
    }
    // Every taken watcher may immediately watch a different line.
    for (int tid = 0; tid < 300; ++tid)
        ASSERT_TRUE(mem_.watch(lines[2 - (tid % 3)], tid, 0));
    std::vector<int> got;
    mem_.take_watchers(lines[0], got);
    EXPECT_FALSE(got.empty());
}

TEST_F(BigMemoryTest, SharersTrackedBeyondSixtyFourCpus)
{
    // Readers spread over the full 1024-cpu machine: every one of them
    // must be recorded as a sharer (cpu >= 64 exercises words beyond the
    // first) and a single write must invalidate them all.
    const MemRef ref = mem_.alloc(7, 0);
    std::vector<int> readers;
    for (int cpu = 1; cpu < 1024; cpu += 101)
        readers.push_back(cpu);
    SimTime t = 0;
    for (int cpu : readers) {
        const AccessOutcome out = mem_.access(MemOp::Load, cpu, t, ref);
        t = out.complete;
        EXPECT_TRUE(mem_.caches(ref, cpu)) << "cpu " << cpu;
    }
    // A spinner on a high-numbered cpu's thread: the store must wake it.
    ASSERT_TRUE(mem_.watch(ref, 1000, 7));
    const std::uint64_t invals_before = mem_.traffic().invalidation_tx;
    const AccessOutcome w = mem_.access(MemOp::Store, 0, t, ref, 99);
    EXPECT_TRUE(w.wakes_watchers);
    std::vector<int> woken;
    mem_.take_watchers(ref, woken);
    EXPECT_EQ(woken, std::vector<int>{1000});
    // One invalidation per node holding a copy; the readers stride lands
    // on distinct nodes, none of them the writer's own node 0 copy-free.
    std::vector<int> holding_nodes;
    for (int cpu : readers)
        holding_nodes.push_back(cpu / 64);
    std::sort(holding_nodes.begin(), holding_nodes.end());
    holding_nodes.erase(
        std::unique(holding_nodes.begin(), holding_nodes.end()),
        holding_nodes.end());
    EXPECT_EQ(mem_.traffic().invalidation_tx - invals_before,
              holding_nodes.size());
    for (int cpu : readers)
        EXPECT_FALSE(mem_.caches(ref, cpu)) << "cpu " << cpu;
    EXPECT_EQ(mem_.peek(ref), 99u);
    EXPECT_EQ(mem_.owner_cpu(ref), 0);
}

// ---------------------------------------------------------------------------
// Flat traffic table: collisions resolve by linear probing, growth keeps
// row indices stable (the hot path caches one).

TEST(FlatTrafficTableTest, CollisionsResolveAndIndicesAreStable)
{
    FlatTrafficTable table(8); // tiny: forces probing almost immediately
    std::vector<std::uint32_t> index_of_key;
    for (std::uint64_t key = 1; key <= 100; ++key) {
        const std::uint32_t idx = table.index_of(key);
        index_of_key.push_back(idx);
        table.row(idx).by_phase[0].local_tx = key; // stamp the row
    }
    EXPECT_EQ(table.size(), 100u);
    EXPECT_GE(table.slot_capacity(), 100u * 4u / 3u); // grew past 3/4 load
    for (std::uint64_t key = 1; key <= 100; ++key) {
        // Same key, same index, even after many growths in between.
        EXPECT_EQ(table.index_of(key), index_of_key[key - 1]);
        EXPECT_EQ(table.row(index_of_key[key - 1]).by_phase[0].local_tx, key);
        EXPECT_EQ(table.row(index_of_key[key - 1]).lock_id, key);
    }
    // Rows come back in insertion order.
    const auto& rows = table.rows();
    for (std::size_t i = 1; i < rows.size(); ++i)
        EXPECT_EQ(rows[i].lock_id, rows[i - 1].lock_id + 1);
}

TEST(FlatTrafficTableTest, GrowthDoublesSlotArray)
{
    FlatTrafficTable table(8);
    EXPECT_EQ(table.slot_capacity(), 8u);
    // 6 rows sit exactly at the 3/4 load factor of 8 slots; the 7th
    // insert crosses it and doubles the slot array.
    for (std::uint64_t key = 1; key <= 6; ++key)
        table.index_of(key);
    EXPECT_EQ(table.slot_capacity(), 8u);
    table.index_of(7);
    EXPECT_EQ(table.slot_capacity(), 16u);
    EXPECT_EQ(table.size(), 7u);
}

// ---------------------------------------------------------------------------
// Chunked arena: stable references, chunked growth.

TEST(ChunkArenaTest, ReferencesSurviveGrowth)
{
    ChunkArena<std::uint64_t, 4> arena; // 16-element chunks
    std::uint64_t& first = arena.push_back(41);
    std::uint64_t* const first_addr = &first;
    for (std::uint64_t i = 1; i < 1000; ++i)
        arena.push_back(i);
    // The reference from before 60+ chunk allocations still works.
    EXPECT_EQ(&arena[0], first_addr);
    first = 42;
    EXPECT_EQ(arena[0], 42u);
    EXPECT_EQ(arena.size(), 1000u);
    EXPECT_EQ(arena.num_chunks(), (1000 + 15) / 16);
    for (std::uint64_t i = 1; i < 1000; ++i)
        EXPECT_EQ(arena[i], i);
}

/** Counts its constructions and destructions (ChunkArenaTest). */
struct Counted
{
    static inline int constructed = 0;
    static inline int destroyed = 0;

    Counted() { ++constructed; }
    explicit Counted(int v) : value(v) { ++constructed; }
    Counted(const Counted& other) : value(other.value) { ++constructed; }
    Counted& operator=(const Counted&) = default;
    ~Counted() { ++destroyed; }

    int value = 0;
};

TEST(ChunkArenaTest, ConstructsOnlyWhatIsPushed)
{
    // A chunk is raw storage: only what is pushed is constructed.
    Counted::constructed = 0;
    Counted::destroyed = 0;
    {
        ChunkArena<Counted, 4> arena; // 16-element chunks
        const Counted seven(7);
        for (int i = 0; i < 17; ++i)
            arena.push_back(seven);
        EXPECT_EQ(arena.num_chunks(), 2u);
        EXPECT_EQ(Counted::constructed, 18); // `seven` and 17 copies
        EXPECT_EQ(Counted::destroyed, 0);
        EXPECT_EQ(arena[16].value, 7);
    }
    // The arena destroys exactly what it constructed.
    EXPECT_EQ(Counted::destroyed, Counted::constructed);
}

// ---------------------------------------------------------------------------
// Ready-queue bulk push: any batch must pop in exactly the order the
// equivalent sequence of single pushes would.

TEST(ReadyQueueBulk, PushBulkMatchesSequentialPushes)
{
    // Deterministic pseudo-random batches over a queue under churn.
    std::uint64_t state = 12345;
    const auto next = [&state]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };
    constexpr int kThreads = 512;
    ReadyQueue bulk, sequential;
    bulk.reset(kThreads);
    sequential.reset(kThreads);
    for (int round = 0; round < 50; ++round) {
        // Build a batch of distinct tids (some may already be queued, to
        // cover push_bulk's re-key pass).
        std::vector<ReadyQueue::Entry> batch;
        std::vector<bool> used(kThreads, false);
        const std::size_t n = 1 + next() % 64;
        for (std::size_t i = 0; i < n; ++i) {
            const int tid = static_cast<int>(next() % kThreads);
            if (used[static_cast<std::size_t>(tid)])
                continue;
            used[static_cast<std::size_t>(tid)] = true;
            batch.push_back(ReadyQueue::Entry{
                static_cast<SimTime>(next() % 1000), tid});
        }
        bulk.push_bulk(batch.data(), batch.size());
        for (const ReadyQueue::Entry& e : batch)
            sequential.push_or_update(e.tid, e.wake);
        ASSERT_EQ(bulk.size(), sequential.size());
        // Drain a few entries — both queues must agree on every pick.
        const std::size_t drain = next() % (bulk.size() + 1);
        for (std::size_t i = 0; i < drain; ++i) {
            ASSERT_EQ(bulk.top_tid(), sequential.top_tid());
            ASSERT_EQ(bulk.top_wake(), sequential.top_wake());
            const int tid = bulk.top_tid();
            bulk.remove(tid);
            sequential.remove(tid);
        }
    }
    // Drain to empty: complete extraction orders must match.
    while (!bulk.empty()) {
        ASSERT_EQ(bulk.top_tid(), sequential.top_tid());
        const int tid = bulk.top_tid();
        bulk.remove(tid);
        sequential.remove(tid);
    }
    EXPECT_TRUE(sequential.empty());
}

} // namespace
