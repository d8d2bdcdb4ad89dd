/**
 * @file
 * White-box algorithm tests using the memory-access tracer: these verify
 * the *mechanism* of each algorithm (backoff growth, token values, gate
 * throttling, remote poll rates), not just its external correctness.
 */
#include <gtest/gtest.h>

#include <map>

#include "locks/hbo.hpp"
#include "locks/tatas_exp.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;
using namespace nucalock::sim;

TEST(Whitebox, TatasExpBackoffGrowsGeometrically)
{
    SimMachine m(Topology::symmetric(1, 2));
    const std::uint32_t lock_line = m.memory().num_lines();
    LockParams params;
    params.jitter = false; // deterministic gaps for this test
    TatasExpLock<SimContext> lock(m, params);

    TraceRecorder recorder;
    recorder.watch_only({MemRef{lock_line}});
    m.memory().set_trace_hook(recorder.hook());

    m.add_thread(0, [&](SimContext& ctx) {
        lock.acquire(ctx);
        ctx.delay_ns(300'000); // hold long enough for several backoffs
        lock.release(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) {
        ctx.delay_ns(10'000);
        lock.acquire(ctx); // spins with exponential backoff meanwhile
        lock.release(ctx);
    });
    m.run();

    // Collect cpu1's polling loads on the lock word while cpu0 held it.
    std::vector<SimTime> polls;
    for (const TraceEvent& e : recorder.events())
        if (e.cpu == 1 && e.op == MemOp::Load && e.start < 300'000)
            polls.push_back(e.start);
    ASSERT_GE(polls.size(), 4u);

    // Inter-poll gaps must grow (geometrically, until the cap).
    std::vector<SimTime> gaps;
    for (std::size_t i = 1; i < polls.size(); ++i)
        gaps.push_back(polls[i] - polls[i - 1]);
    for (std::size_t i = 1; i + 1 < gaps.size(); ++i)
        EXPECT_GE(gaps[i] + 50, gaps[i - 1]) << "gap " << i;
    EXPECT_GE(gaps.back(), 3 * gaps.front());
}

TEST(Whitebox, HboStoresHolderNodeToken)
{
    SimMachine m(Topology::wildfire(2));
    const std::uint32_t lock_line = m.memory().num_lines();
    HboLock<SimContext> lock(m);
    const MemRef word{lock_line};
    std::uint64_t seen_node0 = 0;
    std::uint64_t seen_node1 = 0;
    m.add_thread(0, [&](SimContext& ctx) { // node 0
        lock.acquire(ctx);
        seen_node0 = m.memory().peek(word);
        lock.release(ctx);
    });
    m.add_thread(2, [&](SimContext& ctx) { // node 1
        ctx.delay_ns(100'000);
        lock.acquire(ctx);
        seen_node1 = m.memory().peek(word);
        lock.release(ctx);
    });
    m.run();
    EXPECT_EQ(seen_node0, hbo_node_token(0));
    EXPECT_EQ(seen_node1, hbo_node_token(1));
    EXPECT_EQ(m.memory().peek(word), kHboFree);
}

TEST(Whitebox, HboRemotePollsMuchRarerThanLocal)
{
    // The asymmetric backoff is THE mechanism of section 4.1: count lock
    // word accesses per node while node 0 holds the lock continuously.
    SimMachine m(Topology::wildfire(4));
    const std::uint32_t lock_line = m.memory().num_lines();
    HboLock<SimContext> lock(m);

    TraceRecorder recorder;
    recorder.watch_only({MemRef{lock_line}});
    m.memory().set_trace_hook(recorder.hook());

    const MemRef done = m.alloc(0, 0);
    m.add_thread(0, [&](SimContext& ctx) { // node 0: holds for 2 ms
        lock.acquire(ctx);
        ctx.delay_ns(2'000'000);
        lock.release(ctx);
        ctx.store(done, 1);
    });
    m.add_thread(1, [&](SimContext& ctx) { // node 0: local spinner
        ctx.delay_ns(10'000);
        lock.acquire(ctx);
        lock.release(ctx);
    });
    m.add_thread(4, [&](SimContext& ctx) { // node 1: remote spinner
        ctx.delay_ns(10'000);
        lock.acquire(ctx);
        lock.release(ctx);
    });
    m.run();

    std::uint64_t local_polls = 0;
    std::uint64_t remote_polls = 0;
    for (const TraceEvent& e : recorder.events()) {
        if (e.start > 2'000'000)
            continue; // only while the first holder is inside the CS
        if (e.cpu == 1)
            ++local_polls;
        if (e.cpu == 4)
            ++remote_polls;
    }
    EXPECT_GT(local_polls, 3 * remote_polls);
    EXPECT_GT(remote_polls, 0u);
}

TEST(Whitebox, GtGateSilencesGatedThreads)
{
    // With HBO_GT, while a node's winner spins remotely, the node's other
    // threads must not touch the lock word at all (they block on the
    // gate). Node 1 never gets the lock during the window, so its
    // non-winner cpus should be nearly silent on the lock line.
    SimMachine m(Topology::wildfire(6));
    const std::uint32_t lock_line = m.memory().num_lines();
    HboGtLock<SimContext> lock(m);

    TraceRecorder recorder;
    recorder.watch_only({MemRef{lock_line}});
    m.memory().set_trace_hook(recorder.hook());

    // Node 0 threads trade the lock continuously for the whole run.
    for (int t = 0; t < 4; ++t) {
        m.add_thread(t, [&](SimContext& ctx) {
            for (int i = 0; i < 150; ++i) {
                lock.acquire(ctx);
                ctx.delay(300);
                lock.release(ctx);
                ctx.delay(300);
            }
        });
    }
    // Node 1: the first contender becomes the node winner and publishes
    // the gate; the three late arrivals must block on it and stay silent.
    for (int t = 6; t < 10; ++t) {
        m.add_thread(t, [&, t](SimContext& ctx) {
            ctx.delay_ns(5'000 + static_cast<SimTime>(t - 6) * 60'000);
            lock.acquire(ctx);
            ctx.delay(300);
            lock.release(ctx);
        });
    }
    m.run();

    std::map<int, std::uint64_t> accesses_by_cpu;
    for (const TraceEvent& e : recorder.events())
        if (e.cpu >= 6 && e.start < 280'000)
            ++accesses_by_cpu[e.cpu];
    // The busiest node-1 cpu is the winner; the other three must have an
    // order of magnitude fewer lock-word accesses.
    std::vector<std::uint64_t> counts;
    for (int c = 6; c < 10; ++c)
        counts.push_back(accesses_by_cpu[c]);
    std::sort(counts.begin(), counts.end());
    EXPECT_GT(counts.back(), 0u);
    // Sum of the three quietest << the winner's count.
    EXPECT_LT(counts[0] + counts[1] + counts[2], counts.back());
}

TEST(Whitebox, GateValueIsLockToken)
{
    SimMachine m(Topology::wildfire(2));
    const std::uint32_t lock_line = m.memory().num_lines();
    HboGtLock<SimContext> lock(m);
    const MemRef gate1 = m.node_gate(1);
    std::uint64_t gate_during_remote_spin = 0;

    m.add_thread(0, [&](SimContext& ctx) { // node 0 holds
        lock.acquire(ctx);
        ctx.delay_ns(400'000);
        gate_during_remote_spin = m.memory().peek(gate1);
        ctx.delay_ns(400'000);
        lock.release(ctx);
    });
    m.add_thread(2, [&](SimContext& ctx) { // node 1 remote-spins
        ctx.delay_ns(50'000);
        lock.acquire(ctx);
        lock.release(ctx);
    });
    m.run();

    EXPECT_EQ(gate_during_remote_spin, MemRef{lock_line}.token());
    EXPECT_EQ(m.memory().peek(gate1), kGateDummy);
}

} // namespace
