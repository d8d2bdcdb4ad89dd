/**
 * @file
 * Unit tests for the simulation engine: scheduling, time, spin-wait
 * wakeups, preemption injection, gates, and failure diagnostics.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "locks/any_lock.hpp"
#include "locks/backoff.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"
#include "sim/trace.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::sim;

TEST(Engine, SingleThreadDelayAdvancesTime)
{
    SimMachine m(Topology::symmetric(1, 2));
    m.add_thread(0, [](SimContext& ctx) { ctx.delay_ns(1234); });
    m.run();
    EXPECT_EQ(m.now(), 1234u);
}

TEST(Engine, DelayConvertsIterations)
{
    SimMachine m(Topology::symmetric(1, 2));
    m.add_thread(0, [&](SimContext& ctx) { ctx.delay(100); });
    m.run();
    EXPECT_EQ(m.now(), 100 * m.latency().ns_per_delay_iteration);
}

TEST(Engine, LoadStoreRoundTrip)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef ref = m.alloc(5, 0);
    std::uint64_t seen = 0;
    m.add_thread(0, [&](SimContext& ctx) {
        seen = ctx.load(ref);
        ctx.store(ref, 9);
    });
    m.run();
    EXPECT_EQ(seen, 5u);
    EXPECT_EQ(m.memory().peek(ref), 9u);
}

/** Counts the copies made of it; moves are free (AddThreads test). */
struct CopyCounter
{
    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
    CopyCounter(CopyCounter&& other) noexcept : copies(other.copies) {}

    int* copies;
};

TEST(Engine, AddThreadsKeepsOneCopyOfItsBody)
{
    // The machine keeps add_threads()'s body for the run: a temporary
    // whose captured string dies with the call still runs, on every
    // thread, and it is never copied.
    SimMachine m(Topology::symmetric(2, 2));
    std::vector<std::string> seen(4);
    int copies = 0;
    m.add_threads(4, Placement::RoundRobinNodes,
                  std::function<void(SimContext&, int)>(
                      [text = std::string(40, 'x'), counter = CopyCounter(&copies),
                       &seen](SimContext& ctx, int i) {
                          ctx.delay(static_cast<std::uint64_t>(4 - i));
                          seen[static_cast<std::size_t>(i)] =
                              text + std::to_string(i);
                      }));
    m.run();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)],
                  std::string(40, 'x') + std::to_string(i));
    EXPECT_EQ(copies, 0);
}

TEST(Engine, ContextIdentity)
{
    SimMachine m(Topology::hierarchical(2, 2, 2));
    int node = -1, chip = -1, cpu = -1, tid = -1, nodes = 0;
    m.add_thread(5, [&](SimContext& ctx) {
        tid = ctx.thread_id();
        cpu = ctx.cpu();
        node = ctx.node();
        chip = ctx.chip();
        nodes = ctx.num_nodes();
    });
    m.run();
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(cpu, 5);
    EXPECT_EQ(node, 1);
    EXPECT_EQ(chip, 2);
    EXPECT_EQ(nodes, 2);
}

TEST(Engine, SpinWhileEqualWakesOnStore)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef flag = m.alloc(0, 0);
    std::uint64_t observed = 0;
    SimTime woke_at = 0;
    m.add_thread(0, [&](SimContext& ctx) {
        observed = ctx.spin_while_equal(flag, 0);
        woke_at = ctx.now();
    });
    m.add_thread(1, [&](SimContext& ctx) {
        ctx.delay_ns(50000);
        ctx.store(flag, 42);
    });
    m.run();
    EXPECT_EQ(observed, 42u);
    EXPECT_GE(woke_at, 50000u);
    EXPECT_LT(woke_at, 60000u); // woken promptly, not by polling luck
}

TEST(Engine, SpinWhileEqualReturnsImmediatelyWhenDifferent)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef flag = m.alloc(7, 0);
    std::uint64_t observed = 0;
    m.add_thread(0, [&](SimContext& ctx) {
        observed = ctx.spin_while_equal(flag, 0);
    });
    m.run();
    EXPECT_EQ(observed, 7u);
}

TEST(Engine, TouchArrayIncrementsEveryWord)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef arr = m.alloc_array(5, 10, 0);
    m.add_thread(0, [&](SimContext& ctx) {
        ctx.touch_array(arr, 5, true);
        ctx.touch_array(arr, 5, false); // read-only pass changes nothing
    });
    m.run();
    for (std::uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(m.memory().peek(arr.at(i)), 11u);
}

TEST(Engine, FinishTimesPerThread)
{
    SimMachine m(Topology::symmetric(1, 3));
    m.add_thread(0, [](SimContext& ctx) { ctx.delay_ns(100); });
    m.add_thread(1, [](SimContext& ctx) { ctx.delay_ns(300); });
    m.add_thread(2, [](SimContext& ctx) { ctx.delay_ns(200); });
    m.run();
    EXPECT_EQ(m.finish_time(0), 100u);
    EXPECT_EQ(m.finish_time(1), 300u);
    EXPECT_EQ(m.finish_time(2), 200u);
    EXPECT_EQ(m.now(), 300u);
}

TEST(Engine, NodeGateIsPerNodeAndStable)
{
    SimMachine m(Topology::symmetric(2, 2));
    const MemRef g0 = m.node_gate(0);
    const MemRef g1 = m.node_gate(1);
    EXPECT_NE(g0, g1);
    EXPECT_EQ(m.node_gate(0), g0);
    EXPECT_EQ(m.memory().peek(g0), kGateDummy);
    EXPECT_EQ(m.memory().home_node(g1), 1);
}

TEST(Engine, RefFromTokenRoundTrip)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef ref = m.alloc(0, 0);
    EXPECT_EQ(SimMachine::ref_from_token(ref.token()), ref);
}

TEST(Engine, TokenRoundTripForAllAllocationKinds)
{
    SimMachine m(Topology::symmetric(2, 2));
    const MemRef word = m.alloc(7, 1);
    const MemRef arr = m.alloc_array(3, 0, 0);
    const MemRef gate = m.node_gate(1);
    for (const MemRef ref : {word, arr, arr.at(1), arr.at(2), gate}) {
        EXPECT_EQ(SimMachine::ref_from_token(ref.token()), ref);
        EXPECT_EQ(m.checked_ref_from_token(ref.token()), ref);
    }
}

TEST(Engine, TokenRangeIsExact)
{
    // Tokens are line+1, so the largest token a valid() ref can produce is
    // exactly kInvalid — and it must map back to the last representable
    // line. One past it (an invalid ref's token) is rejected below.
    const MemRef last{MemRef::kInvalid - 1};
    EXPECT_EQ(last.token(), static_cast<std::uint64_t>(MemRef::kInvalid));
    EXPECT_EQ(SimMachine::ref_from_token(last.token()), last);
}

TEST(EngineDeathTest, TokenZeroRejected)
{
    EXPECT_DEATH(SimMachine::ref_from_token(0), "bad token");
}

TEST(EngineDeathTest, InvalidRefTokenRejected)
{
    // A default (invalid) ref encodes to kInvalid + 1, one past the
    // representable range.
    EXPECT_DEATH(SimMachine::ref_from_token(MemRef{}.token()), "bad token");
}

TEST(EngineDeathTest, CheckedTokenBeyondAllocationRejected)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef ref = m.alloc(0, 0);
    EXPECT_EQ(m.checked_ref_from_token(ref.token()), ref);
    // Statically fine (within the representable range), but past the last
    // allocated line of *this* machine.
    EXPECT_DEATH(m.checked_ref_from_token(ref.token() + 1), "beyond");
}

TEST(Engine, AddThreadsPlacesRoundRobin)
{
    SimMachine m(Topology::symmetric(2, 2));
    std::vector<int> nodes(4, -1);
    m.add_threads(4, Placement::RoundRobinNodes, [&](SimContext& ctx, int i) {
        nodes[static_cast<std::size_t>(i)] = ctx.node();
    });
    m.run();
    EXPECT_EQ(nodes, (std::vector<int>{0, 1, 0, 1}));
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto once = [] {
        SimMachine m(Topology::wildfire(4), LatencyModel::wildfire(),
                     SimConfig{.seed = 99});
        const MemRef word = m.alloc(0, 0);
        m.add_threads(8, Placement::RoundRobinNodes,
                      [&](SimContext& ctx, int) {
                          for (int i = 0; i < 50; ++i) {
                              ctx.swap(word, ctx.rng().next());
                              ctx.delay(ctx.rng().next_below(100));
                          }
                      });
        m.run();
        return std::tuple(m.now(), m.memory().peek(word),
                          m.traffic().local_tx, m.traffic().global_tx);
    };
    EXPECT_EQ(once(), once());
}

TEST(Engine, PreemptionStretchesRuntime)
{
    auto runtime = [](bool preempt) {
        SimConfig cfg;
        cfg.preemption = preempt;
        cfg.preempt_mean_interval = 1'000'000; // 1 ms
        cfg.preempt_duration = 500'000;        // 0.5 ms
        SimMachine m(Topology::symmetric(1, 2), LatencyModel::wildfire(), cfg);
        m.add_thread(0, [](SimContext& ctx) {
            for (int i = 0; i < 100; ++i)
                ctx.delay_ns(100'000);
        });
        m.run();
        return m.now();
    };
    EXPECT_EQ(runtime(false), 10'000'000u);
    EXPECT_GT(runtime(true), 11'000'000u);
}

TEST(Engine, FiberSwitchesCounted)
{
    SimMachine m(Topology::symmetric(1, 2));
    m.add_thread(0, [](SimContext& ctx) {
        ctx.delay_ns(1);
        ctx.delay_ns(1);
    });
    m.run();
    // One pick to start the thread, one after each delay. Both delay picks
    // are run-ahead (the only thread keeps running) and still count.
    EXPECT_EQ(m.fiber_switches(), 3u);
    EXPECT_EQ(m.run_ahead_picks(), 2u);
}

TEST(Engine, RunAheadAndDirectSwitchKeepEventOrder)
{
    // Host-side execution order of two delaying threads. Picks that choose
    // the thread that just delayed run ahead on its stack (t1 at 5, t0 at
    // 20); the others switch fiber to fiber (0->1 at 0, 1->0 at 10, 0->1 at
    // 55); t0's last pick comes from run_timed() after t1 finishes.
    SimMachine m(Topology::symmetric(1, 2));
    std::vector<std::pair<int, SimTime>> order;
    auto note = [&order](SimContext& ctx) {
        order.emplace_back(ctx.thread_id(), ctx.now());
    };
    m.add_thread(0, [&](SimContext& ctx) {
        note(ctx);
        ctx.delay_ns(10);
        note(ctx);
        ctx.delay_ns(10);
        note(ctx);
        ctx.delay_ns(100);
        note(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) {
        note(ctx);
        ctx.delay_ns(5);
        note(ctx);
        ctx.delay_ns(50);
        note(ctx);
    });
    m.run();
    const std::vector<std::pair<int, SimTime>> expected = {
        {0, 0}, {1, 0}, {1, 5}, {0, 10}, {0, 20}, {1, 55}, {0, 120}};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(m.fiber_switches(), 7u);
    EXPECT_EQ(m.run_ahead_picks(), 2u);
    EXPECT_EQ(m.finish_time(0), 120u);
    EXPECT_EQ(m.finish_time(1), 55u);
}

TEST(Engine, EqualWakeRunsAheadOnlyBelowTheTopsTid)
{
    // Both threads reach t=10 and t=20. At 10 t0 is running and t1 is the
    // queue's top: t0's lower tid wins the tie, so it runs ahead. At 20 t1
    // is running and t0 is the top: t1 loses the tie and switches to t0.
    SimMachine m(Topology::symmetric(1, 2));
    std::vector<std::pair<int, SimTime>> order;
    auto note = [&order](SimContext& ctx) {
        order.emplace_back(ctx.thread_id(), ctx.now());
    };
    m.add_thread(0, [&](SimContext& ctx) {
        note(ctx);
        ctx.delay_ns(5);
        note(ctx);
        ctx.delay_ns(5);
        note(ctx);
        ctx.delay_ns(10);
        note(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) {
        note(ctx);
        ctx.delay_ns(10);
        note(ctx);
        ctx.delay_ns(10);
        note(ctx);
    });
    m.run();
    const std::vector<std::pair<int, SimTime>> expected = {
        {0, 0}, {1, 0}, {0, 5}, {0, 10}, {1, 10}, {0, 20}, {1, 20}};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(m.fiber_switches(), 7u);
    EXPECT_EQ(m.run_ahead_picks(), 1u);
}

/** Counts probe events, so that installing it forces literal polls. */
class CountingSink final : public obs::ProbeSink
{
  public:
    void on_event(const obs::ProbeRecord&) override { ++events; }
    std::uint64_t events = 0;
};

/**
 * t0 polls a held word with backoff (no jitter) while t1 waits 500 ns and
 * then stores to it. Returns the (tid, now) points where the thread
 * bodies ran, in host order, and with @p traced also the (tid, start) of
 * every memory event, through a trace hook.
 */
std::vector<std::pair<int, SimTime>>
poll_while_other_stores(SimMachine& m, locks::PollResult& poll,
                        std::uint32_t& b, bool traced,
                        std::uint64_t deadline = locks::kNoDeadline)
{
    std::vector<std::pair<int, SimTime>> order;
    auto note = [&order](SimContext& ctx) {
        order.emplace_back(ctx.thread_id(), ctx.now());
    };
    if (traced)
        m.memory().set_trace_hook([&order](const TraceEvent& e) {
            order.emplace_back(e.cpu, e.start);
        });
    const MemRef word = m.alloc(1, 0);
    m.add_thread(0, [&](SimContext& ctx) {
        note(ctx);
        b = 8;
        poll = locks::backoff_poll(ctx, word, 1, &b, 2, 64, false,
                                   obs::BackoffClass::Generic,
                                   locks::kUnlimitedPolls, deadline);
        note(ctx);
    });
    m.add_thread(1, [&](SimContext& ctx) {
        note(ctx);
        ctx.delay_ns(500);
        ctx.store(word, 0);
        note(ctx);
    });
    m.run();
    return order;
}

TEST(Engine, TracedPollKeepsPickOrderAndCounts)
{
    // The trace hook sees every access, so the poll runs its literal loop.
    // t0's reload at 32 misses (done at 413); its 16-iteration backoff,
    // the hit at 477 (done at 498) and the 32-iteration backoff each keep
    // t0 the earliest (3 run-aheads) until t1 is due at 500. After t1's
    // store, t0's reload at 626 misses and reads 0 (done at 1491), and t1
    // finishes first, at 986. 10 picks.
    SimMachine m(Topology::symmetric(1, 2));
    locks::PollResult poll;
    std::uint32_t b = 0;
    const std::vector<std::pair<int, SimTime>> order =
        poll_while_other_stores(m, poll, b, true);
    const std::vector<std::pair<int, SimTime>> expected = {
        {0, 0},   {1, 0},   {0, 32},  {0, 477},
        {1, 500}, {0, 626}, {1, 986}, {0, 1491}};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(poll.value, 0u);
    EXPECT_EQ(poll.polls, 3u);
    EXPECT_EQ(b, 64u);
    EXPECT_EQ(m.fiber_switches(), 10u);
    EXPECT_EQ(m.run_ahead_picks(), 3u);
    EXPECT_EQ(m.lazy_picks(), 0u);

    // The same run with a sink installed: literal loops, same everything.
    SimMachine literal(Topology::symmetric(1, 2));
    CountingSink sink;
    literal.install_probe(&sink);
    locks::PollResult literal_poll;
    std::uint32_t literal_b = 0;
    EXPECT_EQ(poll_while_other_stores(literal, literal_poll, literal_b, true),
              order);
    EXPECT_EQ(literal_poll.value, poll.value);
    EXPECT_EQ(literal_poll.polls, poll.polls);
    EXPECT_EQ(literal_b, b);
    EXPECT_EQ(literal.fiber_switches(), m.fiber_switches());
    EXPECT_EQ(literal.run_ahead_picks(), m.run_ahead_picks());
    EXPECT_EQ(literal.lazy_picks(), 0u);
    EXPECT_EQ(literal.now(), m.now());
    EXPECT_GT(sink.events, 0u);
}

TEST(Engine, LazyPollSkipsTheHitPicks)
{
    // The same poll untraced. t0's reload at 32 reads the held word, so
    // t0 parks, and t1 runs at 500. Its store unparks t0: the reload's
    // end at 413, the backoff's at 477, and the hit's at 498 come before
    // the store's pick and are skipped; the backoff ending at 626 is
    // queued. t0's fiber is next entered there, for the reload that reads
    // 0. Same result, events and 10 picks as the literal loop, of which 3
    // lazy and no run-ahead (t0 is never the earliest when it blocks).
    SimMachine m(Topology::symmetric(1, 2));
    locks::PollResult poll;
    std::uint32_t b = 0;
    const std::vector<std::pair<int, SimTime>> order =
        poll_while_other_stores(m, poll, b, false);
    const std::vector<std::pair<int, SimTime>> expected = {
        {0, 0}, {1, 0}, {1, 986}, {0, 1491}};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(poll.value, 0u);
    EXPECT_EQ(poll.polls, 3u);
    EXPECT_EQ(b, 64u);
    EXPECT_EQ(m.memory().num_accesses(), 4u);
    EXPECT_EQ(m.now(), 1491u);
    EXPECT_EQ(m.fiber_switches(), 10u);
    EXPECT_EQ(m.lazy_picks(), 3u);
    EXPECT_EQ(m.run_ahead_picks(), 0u);
}

TEST(Engine, DeadlinePollMatchesTheLiteralLoop)
{
    // A finite deadline parks the poll like an unbounded one, and the run
    // is the sink-forced one. This deadline falls after the store, so it
    // ends nothing: the poll parks at 413, is queued at its end, and the
    // store unparks it first. The same 3 lazy picks and no run-ahead as
    // LazyPollSkipsTheHitPicks.
    SimMachine m(Topology::symmetric(1, 2));
    locks::PollResult poll;
    std::uint32_t b = 0;
    const std::vector<std::pair<int, SimTime>> order =
        poll_while_other_stores(m, poll, b, false, 10'000);
    EXPECT_FALSE(poll.timed_out);
    EXPECT_EQ(poll.value, 0u);
    EXPECT_EQ(poll.polls, 3u);
    EXPECT_EQ(b, 64u);
    EXPECT_EQ(m.now(), 1491u);
    EXPECT_EQ(m.fiber_switches(), 10u);
    EXPECT_EQ(m.lazy_picks(), 3u);
    EXPECT_EQ(m.run_ahead_picks(), 0u);

    SimMachine literal(Topology::symmetric(1, 2));
    CountingSink sink;
    literal.install_probe(&sink);
    locks::PollResult literal_poll;
    std::uint32_t literal_b = 0;
    EXPECT_EQ(poll_while_other_stores(literal, literal_poll, literal_b, false,
                                      10'000),
              order);
    EXPECT_EQ(literal_poll.value, poll.value);
    EXPECT_EQ(literal_poll.polls, poll.polls);
    EXPECT_EQ(literal_b, b);
    EXPECT_EQ(literal.fiber_switches(), m.fiber_switches());
    EXPECT_EQ(literal.run_ahead_picks(), 3u);
    EXPECT_EQ(literal.lazy_picks(), 0u);
    EXPECT_EQ(literal.now(), m.now());

    // A deadline before the store: t0's first reload ends at 413, past
    // it, so that reload is the poll's last round and does not park. The
    // poll ends there, timed out on the held value.
    SimMachine early(Topology::symmetric(1, 2));
    locks::PollResult early_poll;
    std::uint32_t early_b = 0;
    poll_while_other_stores(early, early_poll, early_b, false, 300);
    EXPECT_TRUE(early_poll.timed_out);
    EXPECT_EQ(early_poll.value, 1u);
    EXPECT_EQ(early_poll.polls, 1u);
    EXPECT_EQ(early_b, 16u);
    EXPECT_EQ(early.lazy_picks(), 0u);
}

/** What the bounded-poll tests compare between a run and its literal
 *  twin, and the engine-path counts they do not. */
struct BoundedPoll
{
    locks::PollResult poll;
    std::uint32_t b = 0;
    /** The poller's clock when the poll returned. */
    SimTime returned = 0;
    /** The poller's next draw after the poll. */
    std::uint64_t next_draw = 0;
    SimTime end = 0;
    std::uint64_t picks = 0;
    std::uint64_t accesses = 0;
    std::uint64_t lazy = 0;
    std::uint64_t run_ahead = 0;
};

/**
 * A poller polls a held word (b from 64, factor 2, cap 256, jitter on)
 * with @p max_polls and @p deadline, next to a thread that runs
 * @p other unless it is empty. The poller is thread 0, or thread 1 when
 * @p poller_second. With @p literal a sink forces the literal loop.
 */
BoundedPoll
run_bounded_poll(bool literal, std::uint64_t max_polls,
                 std::uint64_t deadline,
                 const std::function<void(SimContext&, MemRef)>& other,
                 bool poller_second = false, SimConfig cfg = SimConfig{})
{
    SimMachine m(Topology::symmetric(1, 2), LatencyModel::wildfire(), cfg);
    CountingSink sink;
    if (literal)
        m.install_probe(&sink);
    const MemRef word = m.alloc(1, 0);
    BoundedPoll run;
    const auto poller = [&](SimContext& ctx) {
        run.b = 64;
        run.poll = locks::backoff_poll(ctx, word, 1, &run.b, 2, 256, true,
                                       obs::BackoffClass::Generic, max_polls,
                                       deadline);
        run.returned = ctx.now();
        run.next_draw = ctx.rng().next();
    };
    const auto add_other = [&] {
        if (other)
            m.add_thread(poller_second ? 0 : 1,
                         [&other, word](SimContext& ctx) { other(ctx, word); });
    };
    if (poller_second)
        add_other();
    m.add_thread(poller_second ? 1 : 0, poller);
    if (!poller_second)
        add_other();
    m.run();
    run.end = m.now();
    run.picks = m.fiber_switches();
    run.accesses = m.memory().num_accesses();
    run.lazy = m.lazy_picks();
    run.run_ahead = m.run_ahead_picks();
    if (literal) {
        EXPECT_GT(sink.events, 0u);
    }
    return run;
}

/** run_bounded_poll() parked and literal: the same poll and run. Returns
 *  the parked run. */
BoundedPoll
expect_bounded_poll_is_literal(
    std::uint64_t max_polls, std::uint64_t deadline,
    const std::function<void(SimContext&, MemRef)>& other = {},
    bool poller_second = false, SimConfig cfg = SimConfig{})
{
    const BoundedPoll lazy =
        run_bounded_poll(false, max_polls, deadline, other, poller_second, cfg);
    const BoundedPoll literal =
        run_bounded_poll(true, max_polls, deadline, other, poller_second, cfg);
    EXPECT_EQ(lazy.poll.value, literal.poll.value);
    EXPECT_EQ(lazy.poll.polls, literal.poll.polls);
    EXPECT_EQ(lazy.poll.timed_out, literal.poll.timed_out);
    EXPECT_EQ(lazy.b, literal.b);
    EXPECT_EQ(lazy.returned, literal.returned);
    EXPECT_EQ(lazy.next_draw, literal.next_draw);
    EXPECT_EQ(lazy.end, literal.end);
    EXPECT_EQ(lazy.picks, literal.picks);
    EXPECT_EQ(lazy.accesses, literal.accesses);
    EXPECT_EQ(literal.lazy, 0u);
    return lazy;
}

/** Stores 0 to the word at @p at. */
std::function<void(SimContext&, MemRef)>
store_at(SimTime at)
{
    return [at](SimContext& ctx, MemRef word) {
        ctx.delay_ns(at - ctx.now());
        ctx.store(word, 0);
    };
}

TEST(Engine, RoundLimitedPollParksToItsLastRound)
{
    // Alone, the poll parks at its first reload and is queued at its end,
    // the 5th reload's: one pick for it, the rest lazy.
    const BoundedPoll run = expect_bounded_poll_is_literal(5, locks::kNoDeadline);
    EXPECT_EQ(run.poll.value, 1u);
    EXPECT_EQ(run.poll.polls, 5u);
    EXPECT_FALSE(run.poll.timed_out);
    EXPECT_EQ(run.b, 256u);
    EXPECT_EQ(run.lazy, 8u);
}

TEST(Engine, RoundLimitBeyondTheLookaheadRollsThroughCheckpoints)
{
    // 300 rounds are 600 stages, past kPollLookahead: the poll is queued
    // at checkpoints on the way to its end.
    const BoundedPoll alone =
        expect_bounded_poll_is_literal(300, locks::kNoDeadline);
    EXPECT_EQ(alone.poll.polls, 300u);
    EXPECT_EQ(alone.poll.value, 1u);
    EXPECT_GT(alone.lazy, 500u);
    // A store partway ends it on the new value, between checkpoints.
    const BoundedPoll written =
        expect_bounded_poll_is_literal(300, locks::kNoDeadline,
                                       store_at(alone.returned / 3));
    EXPECT_EQ(written.poll.value, 0u);
    EXPECT_LT(written.poll.polls, 200u);
    EXPECT_GT(written.poll.polls, 64u);
    EXPECT_GT(written.lazy, 0u);
}

TEST(Engine, StoreAtABoundedPollsEndKeepsTheTidOrder)
{
    // The poll alone ends at E, its 8th reload's end. A store picked at
    // exactly E by a lower tid comes first: it unparks the poll, which is
    // queued at E and ends there. By a higher tid, the poll's end comes
    // first, and the store finds no watcher. Either way the last reload
    // was issued before the store and read the held value.
    for (const bool writer_first : {true, false}) {
        // The poller's tid seeds its generator, so E is found with the
        // same tids.
        const BoundedPoll alone = expect_bounded_poll_is_literal(
            8, locks::kNoDeadline, [](SimContext&, MemRef) {}, writer_first);
        const BoundedPoll run = expect_bounded_poll_is_literal(
            8, locks::kNoDeadline, store_at(alone.returned), writer_first);
        EXPECT_EQ(run.poll.value, 1u) << writer_first;
        EXPECT_EQ(run.poll.polls, 8u) << writer_first;
        EXPECT_EQ(run.returned, alone.returned) << writer_first;
        EXPECT_EQ(run.lazy, 14u) << writer_first;
    }
}

TEST(Engine, DeadlineInsideAParkedPollEndsItTimedOut)
{
    // The poll parks at its first reload; its end is the first reload's
    // end at or past 5 us. No write comes, so it ends there, timed out.
    const BoundedPoll run = expect_bounded_poll_is_literal(
        locks::kUnlimitedPolls, 5'000);
    EXPECT_TRUE(run.poll.timed_out);
    EXPECT_EQ(run.poll.value, 1u);
    EXPECT_GE(run.returned, 5'000u);
    EXPECT_GT(run.lazy, 0u);
    // A deadline 2 ms on, past kPollLookahead stages: checkpoints.
    const BoundedPoll far = expect_bounded_poll_is_literal(
        locks::kUnlimitedPolls, 2'000'000);
    EXPECT_TRUE(far.poll.timed_out);
    EXPECT_GT(far.poll.polls, 1'000u);
    // With a limit too, whichever comes first ends the poll.
    const BoundedPoll both = expect_bounded_poll_is_literal(4, 5'000);
    EXPECT_FALSE(both.poll.timed_out);
    EXPECT_EQ(both.poll.polls, 4u);
}

TEST(Engine, PreemptedBoundedPollDrawsAsTheLiteralLoop)
{
    // Preemption every ~3 us draws from the generator the jitter draws
    // from, inside the lookahead, the checkpoints and the roll to a write.
    SimConfig cfg;
    cfg.preemption = true;
    cfg.preempt_mean_interval = 3'000;
    cfg.preempt_duration = 700;
    const BoundedPoll limited = expect_bounded_poll_is_literal(
        300, locks::kNoDeadline, {}, false, cfg);
    EXPECT_EQ(limited.poll.polls, 300u);
    EXPECT_GT(limited.lazy, 0u);
    const BoundedPoll timed = expect_bounded_poll_is_literal(
        locks::kUnlimitedPolls, 150'000, {}, false, cfg);
    EXPECT_TRUE(timed.poll.timed_out);
    const BoundedPoll written = expect_bounded_poll_is_literal(
        300, 150'000, store_at(60'000), true, cfg);
    EXPECT_EQ(written.poll.value, 0u);
    EXPECT_FALSE(written.poll.timed_out);
}

/** Host-order (tid, now) points where thread bodies ran. */
using Order = std::vector<std::pair<int, SimTime>>;

/** What the walk tests compare between a machine and its traced twin. */
struct WalkRun
{
    Order order;
    SimTime end = 0;
    std::uint64_t picks = 0;
    std::uint64_t replayed = 0;
    std::uint64_t accesses = 0;
    TrafficStats traffic;
    std::vector<std::uint64_t> values;
    std::vector<int> owners;
    ContentionStats contention;
};

/**
 * A 2x2 machine with a 64-line array homed in node 1: @p add adds the
 * threads, which note their points into the order. With @p traced a trace
 * hook sees every access, so every walk runs literally.
 */
WalkRun
run_walks(bool traced,
          const std::function<void(SimMachine&, MemRef, Order&)>& add)
{
    SimMachine m(Topology::symmetric(2, 2));
    WalkRun run;
    std::uint64_t traced_events = 0;
    if (traced)
        m.memory().set_trace_hook(
            [&traced_events](const TraceEvent&) { ++traced_events; });
    const MemRef arr = m.alloc_array(64, 0, 1);
    add(m, arr, run.order);
    m.run();
    run.end = m.now();
    run.picks = m.fiber_switches();
    run.replayed = m.replayed_picks();
    run.accesses = m.memory().num_accesses();
    run.traffic = m.traffic();
    run.contention = m.contention();
    for (std::uint32_t i = 0; i < 64; ++i) {
        run.values.push_back(m.memory().peek(arr.at(i)));
        run.owners.push_back(m.memory().owner_cpu(arr.at(i)));
    }
    if (traced) {
        EXPECT_EQ(traced_events, run.accesses);
    }
    return run;
}

/** The same simulated run, apart from the replayed picks. */
void
expect_same_walks(const WalkRun& a, const WalkRun& b)
{
    EXPECT_EQ(a.order, b.order);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.picks, b.picks);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.traffic.local_tx, b.traffic.local_tx);
    EXPECT_EQ(a.traffic.global_tx, b.traffic.global_tx);
    EXPECT_EQ(a.traffic.data_fetch_tx, b.traffic.data_fetch_tx);
    EXPECT_EQ(a.traffic.invalidation_tx, b.traffic.invalidation_tx);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.owners, b.owners);
    ASSERT_EQ(a.contention.resources.size(), b.contention.resources.size());
    for (std::size_t r = 0; r < a.contention.resources.size(); ++r) {
        const ResourceUsage& x = a.contention.resources[r];
        const ResourceUsage& y = b.contention.resources[r];
        EXPECT_EQ(x.transactions, y.transactions) << x.name;
        EXPECT_EQ(x.busy_ns, y.busy_ns) << x.name;
        EXPECT_EQ(x.queue_ns, y.queue_ns) << x.name;
        EXPECT_EQ(x.queue_delay_ns.bucket_count(0),
                  y.queue_delay_ns.bucket_count(0))
            << x.name;
        EXPECT_EQ(x.queue_delay_ns.count(), y.queue_delay_ns.count())
            << x.name;
    }
}

/** A lone thread on cpu 0 walks the array once. */
std::function<void(SimMachine&, MemRef, Order&)>
lone_walk(bool write)
{
    return [write](SimMachine& m, MemRef arr, Order&) {
        m.add_thread(0, [arr, write](SimContext& ctx) {
            ctx.touch_array(arr, 64, write);
        });
    };
}

TEST(Engine, LoneWritingWalkReplaysAfterItsFirstLine)
{
    // Each line is homed in the remote node and cached nowhere: the load
    // fetches it from remote memory through bus 0, the link and bus 1
    // (done 1906 ns after issue), and the store upgrades the only copy
    // (6 ns more, a local transaction with no bus). Line 0 runs, and lines
    // 1-63 replay it: 126 of the 129 picks.
    const WalkRun run = run_walks(false, lone_walk(true));
    EXPECT_EQ(run.end, 64u * 1912u);
    EXPECT_EQ(run.picks, 129u);
    EXPECT_EQ(run.replayed, 126u);
    EXPECT_EQ(run.accesses, 128u);
    EXPECT_EQ(run.traffic.global_tx, 64u);
    EXPECT_EQ(run.traffic.local_tx, 64u);
    EXPECT_EQ(run.traffic.data_fetch_tx, 128u);
    EXPECT_EQ(run.values, std::vector<std::uint64_t>(64, 1));
    EXPECT_EQ(run.owners, std::vector<int>(64, 0));
    const std::vector<ResourceUsage>& r = run.contention.resources;
    ASSERT_EQ(r.size(), 3u);
    for (const ResourceUsage& u : r) {
        EXPECT_EQ(u.transactions, 64u) << u.name;
        EXPECT_EQ(u.busy_ns, 64u * (u.node < 0 ? 110u : 45u)) << u.name;
        EXPECT_EQ(u.queue_ns, 0u) << u.name;
        EXPECT_EQ(u.queue_delay_ns.bucket_count(0), 64u) << u.name;
    }
    const WalkRun literal = run_walks(true, lone_walk(true));
    EXPECT_EQ(literal.replayed, 0u);
    expect_same_walks(run, literal);
}

TEST(Engine, LoneReadOnlyWalkReplaysAfterItsFirstLine)
{
    // Loads only, 1906 ns each: the lines stay in memory, shared by cpu 0.
    const WalkRun run = run_walks(false, lone_walk(false));
    EXPECT_EQ(run.end, 64u * 1906u);
    EXPECT_EQ(run.picks, 65u);
    EXPECT_EQ(run.replayed, 63u);
    EXPECT_EQ(run.accesses, 64u);
    EXPECT_EQ(run.traffic.global_tx, 64u);
    EXPECT_EQ(run.traffic.local_tx, 0u);
    EXPECT_EQ(run.values, std::vector<std::uint64_t>(64, 0));
    EXPECT_EQ(run.owners, std::vector<int>(64, -1));
    for (const ResourceUsage& u : run.contention.resources)
        EXPECT_EQ(u.transactions, 64u) << u.name;
    const WalkRun literal = run_walks(true, lone_walk(false));
    EXPECT_EQ(literal.replayed, 0u);
    expect_same_walks(run, literal);
}

TEST(Engine, ReplayStopsAtAnotherThreadsTimer)
{
    // t1's timers at 20000 and 50000 land inside t0's walk, whose lines
    // end every 1912 ns. Line 0's load queues behind t1's start, so it is
    // no template; line 1 is, and lines 2-9 replay it (to 19120). Line
    // 10's load ends at 21026, after t1's wake: t0 queues, t1 runs, then
    // t0 stores. Line 11 runs and lines 12-25 replay (to 49712); line 26's
    // load queues behind t1 again. Line 27 runs and lines 28-63 replay.
    // 58 lines, 116 picks.
    const auto add = [](SimMachine& m, MemRef arr, Order& order) {
        m.add_thread(0, [arr, &order](SimContext& ctx) {
            order.emplace_back(0, ctx.now());
            ctx.touch_array(arr, 64, true);
            order.emplace_back(0, ctx.now());
        });
        m.add_thread(1, [&order](SimContext& ctx) {
            order.emplace_back(1, ctx.now());
            ctx.delay_ns(20'000);
            order.emplace_back(1, ctx.now());
            ctx.delay_ns(30'000);
            order.emplace_back(1, ctx.now());
        });
    };
    const WalkRun run = run_walks(false, add);
    const Order expected = {
        {0, 0}, {1, 0}, {1, 20'000}, {1, 50'000}, {0, 64 * 1912}};
    EXPECT_EQ(run.order, expected);
    EXPECT_EQ(run.replayed, 116u);
    EXPECT_EQ(run.picks, 132u);
    const WalkRun literal = run_walks(true, add);
    EXPECT_EQ(literal.replayed, 0u);
    expect_same_walks(run, literal);
}

TEST(Engine, ReplayStopsAtTheFirstLineInAnotherState)
{
    // t1 (cpu 2, node 1) writes lines 10-63, then t0 (cpu 0) writes lines
    // 0-9 and walks all 64. It owns lines 0-9 exclusively: line 0 runs (a
    // hit and an owned store, 21 + 31 ns) and lines 1-9 replay it. Line 10
    // is t1's, so the replay stops there: line 10 runs (a remote
    // cache-to-cache fetch, 2026 ns, and a store that invalidates node 1,
    // 506 ns) and lines 11-63 replay it.
    std::uint64_t replayed_in_walk = 0;
    const auto add = [&replayed_in_walk](SimMachine& m, MemRef arr,
                                         Order& order) {
        m.add_thread(0, [&m, arr, &order, &replayed_in_walk](SimContext& ctx) {
            ctx.delay_ns(1'000'000);
            ctx.touch_array(arr, 10, true);
            order.emplace_back(0, ctx.now());
            const std::uint64_t before = m.replayed_picks();
            ctx.touch_array(arr, 64, true);
            replayed_in_walk = m.replayed_picks() - before;
            order.emplace_back(0, ctx.now());
        });
        m.add_thread(2, [arr](SimContext& ctx) {
            ctx.touch_array(arr.at(10), 54, true);
        });
    };
    const WalkRun run = run_walks(false, add);
    EXPECT_EQ(replayed_in_walk, 2u * (9 + 53));
    EXPECT_EQ(run.values, std::vector<std::uint64_t>(64, 2));
    EXPECT_EQ(run.owners, std::vector<int>(64, 0));
    EXPECT_EQ(run.order[1].second - run.order[0].second,
              10u * 52u + 54u * 2532u);
    const WalkRun literal = run_walks(true, add);
    EXPECT_EQ(literal.replayed, 0u);
    expect_same_walks(run, literal);
}

TEST(EngineDeathTest, DeadlockIsDiagnosed)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef flag = m.alloc(0, 0);
    m.add_thread(0, [&](SimContext& ctx) {
        ctx.spin_while_equal(flag, 0); // nobody will ever write
    });
    EXPECT_DEATH(m.run(), "deadlock");
}

TEST(EngineDeathTest, TwoThreadsPerCpuRejected)
{
    SimMachine m(Topology::symmetric(1, 2));
    m.add_thread(0, [](SimContext&) {});
    EXPECT_DEATH(m.add_thread(0, [](SimContext&) {}), "already has a thread");
}

TEST(EngineDeathTest, RunTwiceRejected)
{
    SimMachine m(Topology::symmetric(1, 2));
    m.add_thread(0, [](SimContext&) {});
    m.run();
    EXPECT_DEATH(m.run(), "run\\(\\) may only be called once");
}

TEST(EngineDeathTest, RunWithoutThreadsRejected)
{
    SimMachine m(Topology::symmetric(1, 2));
    EXPECT_DEATH(m.run(), "no threads");
}

TEST(EngineDeathTest, LivelockGuardFires)
{
    SimConfig cfg;
    cfg.max_sim_time = 1000;
    SimMachine m(Topology::symmetric(1, 2), LatencyModel::wildfire(), cfg);
    m.add_thread(0, [](SimContext& ctx) {
        while (true)
            ctx.delay_ns(100);
    });
    EXPECT_DEATH(m.run(), "max_sim_time");
}

TEST(EngineDeathTest, MaxSimTimeBeyondTheQueueKeysRejected)
{
    // Ready-queue keys saturate at ReadyQueue::kMaxWake; a time limit below
    // it makes every saturated wake fail when picked, as it must.
    SimConfig cfg;
    cfg.max_sim_time = ReadyQueue::kMaxWake;
    EXPECT_DEATH(SimMachine(Topology::symmetric(1, 2),
                            LatencyModel::wildfire(), cfg),
                 "max_sim_time [0-9]+ ns is beyond the ready queue's keys");
    cfg.max_sim_time = ReadyQueue::kMaxWake - 1;
    SimMachine m(Topology::symmetric(1, 2), LatencyModel::wildfire(), cfg);
    EXPECT_EQ(m.config().max_sim_time, ReadyQueue::kMaxWake - 1);
}

TEST(EngineDeathTest, DiagnosedFailureUsesDistinctExitCode)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef flag = m.alloc(0, 0);
    m.add_thread(0, [&](SimContext& ctx) { ctx.spin_while_equal(flag, 0); });
    EXPECT_EXIT(m.run(), ::testing::ExitedWithCode(kDiagnosisExitCode),
                "deadlock");
}

TEST(EngineDeathTest, DeadlockParkedFromInsideAFiberIsDiagnosed)
{
    // t1 parks last, from its own fiber with nothing left to switch to;
    // the diagnosis still exits 86 from the host stack, listing both
    // parked threads.
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef flag = m.alloc(0, 0);
    const MemRef other = m.alloc(0, 0);
    m.add_thread(0, [&](SimContext& ctx) { ctx.spin_while_equal(flag, 0); });
    m.add_thread(1, [&](SimContext& ctx) {
        ctx.delay_ns(1000);
        ctx.spin_while_equal(other, 0);
    });
    EXPECT_EXIT(m.run(), ::testing::ExitedWithCode(kDiagnosisExitCode),
                "deadlock: no runnable thread at t=[0-9]+ ns\n"
                "  t0 cpu=0 waiting on line 0\n"
                "  t1 cpu=1 waiting on line 1");
}

TEST(EngineDeathTest, TimeLimitInsideARunAheadChainIsDiagnosed)
{
    // After t1 finishes, t0 is alone: every pick runs it ahead without a
    // switch, and the one at t=1100 trips the limit.
    SimConfig cfg;
    cfg.max_sim_time = 1000;
    SimMachine m(Topology::symmetric(1, 2), LatencyModel::wildfire(), cfg);
    m.add_thread(0, [](SimContext& ctx) {
        while (true)
            ctx.delay_ns(100);
    });
    m.add_thread(1, [](SimContext&) {});
    EXPECT_EXIT(m.run(), ::testing::ExitedWithCode(kDiagnosisExitCode),
                "simulated time exceeded max_sim_time \\(livelock\\?\\) at "
                "t=1100 ns");
}

/** Matches anything, keeping the death-test child's stderr. */
class CapturedStderr final
    : public ::testing::MatcherInterface<const std::string&>
{
  public:
    explicit CapturedStderr(std::string* out) : out_(out) {}

    bool
    MatchAndExplain(const std::string& text,
                    ::testing::MatchResultListener*) const override
    {
        *out_ = text;
        return true;
    }

    void DescribeTo(std::ostream* os) const override { *os << "anything"; }

  private:
    std::string* out_;
};

/**
 * Two threads poll a held word until the 10 us time limit, next to a
 * third thread that runs @p third unless it is empty. Each poller runs
 * @p poll, or by default one poll with no round limit or deadline. Runs
 * this lazy and with a sink installed (the literal loops), and requires
 * the same exit code and, byte for byte, the same diagnosis.
 */
void
expect_literal_time_limit(
    const std::function<void(SimContext&, MemRef)>& third,
    const std::function<void(SimContext&, MemRef)>& poll = {})
{
    const auto run = [&third, &poll](bool literal) {
        SimConfig cfg;
        cfg.max_sim_time = 10'000;
        SimMachine m(Topology::symmetric(1, 4), LatencyModel::wildfire(), cfg);
        CountingSink sink;
        if (literal)
            m.install_probe(&sink);
        const MemRef word = m.alloc(1, 0);
        const auto poll_forever = [word, &poll](SimContext& ctx) {
            if (poll) {
                poll(ctx, word);
                return;
            }
            std::uint32_t b = 64;
            locks::backoff_poll(ctx, word, 1, &b, 2, 256, true);
        };
        m.add_thread(0, poll_forever);
        m.add_thread(1, poll_forever);
        if (third)
            m.add_thread(2, [&third, word](SimContext& ctx) {
                third(ctx, word);
            });
        m.run();
    };
    std::string lazy;
    std::string literal;
    EXPECT_EXIT(run(false), ::testing::ExitedWithCode(kDiagnosisExitCode),
                ::testing::Matcher<const std::string&>(
                    new CapturedStderr(&lazy)));
    EXPECT_EXIT(run(true), ::testing::ExitedWithCode(kDiagnosisExitCode),
                ::testing::Matcher<const std::string&>(
                    new CapturedStderr(&literal)));
    // The diagnosis onward: a sanitizer runtime may print a warning with
    // the child's pid before it.
    const auto diagnosis = [](const std::string& text) {
        return text.substr(std::min(text.find("diagnosed failure: "),
                                    text.size()));
    };
    EXPECT_EQ(diagnosis(lazy).rfind("diagnosed failure: simulated time "
                                    "exceeded max_sim_time (livelock?) at t=",
                                    0),
              0u)
        << lazy;
    EXPECT_EQ(diagnosis(lazy), diagnosis(literal));
}

TEST(EngineDeathTest, TimeLimitInsideALazyPollIsTheLiteralDiagnosis)
{
    // Alone, both pollers park for good: the pick that finds the ready
    // queue empty rolls them forward to the limit instead of reporting a
    // deadlock, and fails at the literal loops' failing pick.
    expect_literal_time_limit({});
    // A thread whose next pick is past the limit.
    expect_literal_time_limit(
        [](SimContext& ctx, MemRef) { ctx.delay_ns(1'000'000); });
    // A thread whose failed cas takes the line every 700 ns, unparking
    // both pollers each time.
    expect_literal_time_limit([](SimContext& ctx, MemRef word) {
        while (true) {
            ctx.cas(word, 0, 2);
            ctx.delay_ns(700);
        }
    });
}

TEST(EngineDeathTest, TimeLimitInsideABoundedPollIsTheLiteralDiagnosis)
{
    // Polls of 3 rounds, one after another: each parks and is queued at
    // its end, and the limit falls inside one of them.
    const auto short_polls = [](SimContext& ctx, MemRef word) {
        std::uint32_t b = 64;
        while (true)
            locks::backoff_poll(ctx, word, 1, &b, 2, 256, true,
                                obs::BackoffClass::Generic, 3);
    };
    expect_literal_time_limit({}, short_polls);
    // One poll whose limit and deadline lie far past the time limit: it is
    // queued at checkpoints, and one of them lies past the limit.
    const auto long_poll = [](SimContext& ctx, MemRef word) {
        std::uint32_t b = 64;
        locks::backoff_poll(ctx, word, 1, &b, 2, 256, true,
                            obs::BackoffClass::Generic, 1u << 30, 1'000'000);
    };
    expect_literal_time_limit({}, long_poll);
    // A thread whose failed cas takes the line every 700 ns, unparking
    // both pollers each time.
    expect_literal_time_limit(
        [](SimContext& ctx, MemRef word) {
            while (true) {
                ctx.cas(word, 0, 2);
                ctx.delay_ns(700);
            }
        },
        short_polls);
}

TEST(EngineDeathTest, TimeLimitInsideAReplayedWalkIsTheLiteralDiagnosis)
{
    // t0 walks 64 lines forever, t1 wakes every 7 us, and t2 polls a held
    // word. The 300 us limit falls inside a replayed stretch of a walk:
    // the replay stops at the last line that ends within it, and the next
    // line's access fails the limit, as the literal walk's does.
    const auto run = [](bool literal) {
        SimConfig cfg;
        cfg.max_sim_time = 300'000;
        SimMachine m(Topology::symmetric(2, 2), LatencyModel::wildfire(), cfg);
        CountingSink sink;
        if (literal)
            m.install_probe(&sink);
        const MemRef arr = m.alloc_array(64, 0, 1);
        const MemRef word = m.alloc(1, 0);
        m.add_thread(0, [arr](SimContext& ctx) {
            while (true)
                ctx.touch_array(arr, 64, true);
        });
        m.add_thread(1, [](SimContext& ctx) {
            while (true)
                ctx.delay_ns(7'000);
        });
        m.add_thread(2, [word](SimContext& ctx) {
            std::uint32_t b = 64;
            locks::backoff_poll(ctx, word, 1, &b, 2, 256, true);
        });
        m.run();
    };
    std::string replayed;
    std::string literal;
    EXPECT_EXIT(run(false), ::testing::ExitedWithCode(kDiagnosisExitCode),
                ::testing::Matcher<const std::string&>(
                    new CapturedStderr(&replayed)));
    EXPECT_EXIT(run(true), ::testing::ExitedWithCode(kDiagnosisExitCode),
                ::testing::Matcher<const std::string&>(
                    new CapturedStderr(&literal)));
    const auto diagnosis = [](const std::string& text) {
        return text.substr(std::min(text.find("diagnosed failure: "),
                                    text.size()));
    };
    EXPECT_EQ(diagnosis(replayed).rfind("diagnosed failure: simulated time "
                                        "exceeded max_sim_time (livelock?) "
                                        "at t=",
                                        0),
              0u)
        << replayed;
    EXPECT_EQ(diagnosis(replayed), diagnosis(literal));
}

/** Death-test output holding @p text and no ASan warning that it took a
 *  fiber stack for the host thread's (sim/fiber.cpp). */
class PanicWithoutAsanWarning
    : public ::testing::MatcherInterface<const std::string&>
{
  public:
    explicit PanicWithoutAsanWarning(std::string text) : text_(std::move(text)) {}

    bool
    MatchAndExplain(const std::string& output,
                    ::testing::MatchResultListener*) const override
    {
        return output.find(text_) != std::string::npos &&
               output.find("__asan_handle_no_return") == std::string::npos;
    }

    void
    DescribeTo(std::ostream* os) const override
    {
        *os << "holds \"" << text_
            << "\" and no __asan_handle_no_return warning";
    }

  private:
    std::string text_;
};

TEST(EngineDeathTest, PanicOnAFiberIsReportedCleanly)
{
    // A simulated thread that panics makes a noreturn call on its fiber's
    // stack. ASan prints "ASan is ignoring requested
    // __asan_handle_no_return" first unless the fiber switches tell it
    // which stack the host thread is on.
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef word = m.alloc(3, 0);
    m.add_thread(0, [&](SimContext& ctx) {
        if (ctx.load(word) == 3)
            NUCA_PANIC("simulated thread gave up on word ", word.line);
    });
    EXPECT_DEATH(m.run(), ::testing::Matcher<const std::string&>(
                              new PanicWithoutAsanWarning(
                                  "simulated thread gave up on word 0")));
}

TEST(EngineDeathTest, InstallProbeAfterRunRejected)
{
    // The probe sink decides, per poll, whether the engine steps it.
    SimMachine m(Topology::symmetric(1, 2));
    m.add_thread(0, [](SimContext&) {});
    m.run();
    CountingSink sink;
    EXPECT_DEATH(m.install_probe(&sink), "install_probe after run\\(\\)");
}

TEST(EngineDeathTest, DiagnosisJsonReportWritten)
{
    const std::string path = ::testing::TempDir() + "nucalock_diag_test.json";
    std::remove(path.c_str());
    ::setenv("NUCALOCK_DIAG_JSON", path.c_str(), 1);
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef flag = m.alloc(0, 0);
    m.add_thread(0, [&](SimContext& ctx) { ctx.spin_while_equal(flag, 0); });
    // The death-test child inherits the env var and writes the report
    // before exiting; the parent then validates it.
    EXPECT_EXIT(m.run(), ::testing::ExitedWithCode(kDiagnosisExitCode),
                "deadlock");
    ::unsetenv("NUCALOCK_DIAG_JSON");
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "diagnosis JSON not written to " << path;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"error\""), std::string::npos) << json;
    EXPECT_NE(json.find("deadlock"), std::string::npos) << json;
    EXPECT_NE(json.find("\"exit_code\": 86"), std::string::npos) << json;
    EXPECT_NE(json.find("\"threads\""), std::string::npos) << json;
    std::remove(path.c_str());
}

// -------------------------------------------------------------------------
// Controlled scheduling: with a Scheduler installed, every visible
// operation is an explicit decision point and terminal conditions become
// verdicts instead of diagnosed panics.

/** Always picks the lowest-tid runnable thread. */
class FifoScheduler final : public Scheduler
{
  public:
    int
    pick(SimTime, const std::vector<SchedChoice>& runnable) override
    {
        seen_ops.push_back(runnable.front().op.op);
        return runnable.front().tid;
    }

    std::vector<SchedOp> seen_ops;
};

TEST(Engine, ControlledSchedulerDrivesEveryOp)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef word = m.alloc(0, 0);
    FifoScheduler sched;
    m.install_scheduler(&sched);
    m.add_thread(0, [&](SimContext& ctx) {
        ctx.store(word, 1);
        ctx.load(word);
    });
    m.add_thread(1, [&](SimContext& ctx) { ctx.delay_ns(5); });
    m.run();
    EXPECT_EQ(m.stop_reason(), StopReason::Completed);
    // Thread 0: start, store, load. Thread 1: start, delay.
    EXPECT_EQ(m.sched_steps(), 5u);
    EXPECT_EQ(sched.seen_ops,
              (std::vector<SchedOp>{SchedOp::ThreadStart, SchedOp::Store,
                                    SchedOp::Load, SchedOp::ThreadStart,
                                    SchedOp::Delay}));
    EXPECT_EQ(m.memory().peek(word), 1u);
}

TEST(Engine, ControlledDeadlockIsVerdictNotPanic)
{
    SimMachine m(Topology::symmetric(1, 2));
    const MemRef flag = m.alloc(0, 0);
    FifoScheduler sched;
    m.install_scheduler(&sched);
    m.add_thread(0, [&](SimContext& ctx) { ctx.spin_while_equal(flag, 0); });
    m.run(); // must return, not exit(86)
    EXPECT_EQ(m.stop_reason(), StopReason::Deadlock);
}

TEST(Engine, ControlledSchedulerCanStopTheRun)
{
    SimMachine m(Topology::symmetric(1, 2));
    struct StopAtOnce final : public Scheduler {
        int
        pick(SimTime, const std::vector<SchedChoice>&) override
        {
            return kStopRun;
        }
    } sched;
    m.install_scheduler(&sched);
    m.add_thread(0, [](SimContext& ctx) { ctx.delay_ns(1); });
    m.run();
    EXPECT_EQ(m.stop_reason(), StopReason::SchedulerStop);
    EXPECT_EQ(m.sched_steps(), 0u);
}

TEST(Engine, ControlledTimeLimitIsVerdictNotPanic)
{
    SimConfig cfg;
    cfg.max_sim_time = 1000;
    SimMachine m(Topology::symmetric(1, 2), LatencyModel::wildfire(), cfg);
    FifoScheduler sched;
    m.install_scheduler(&sched);
    m.add_thread(0, [](SimContext& ctx) {
        while (true)
            ctx.delay_ns(100);
    });
    m.run();
    EXPECT_EQ(m.stop_reason(), StopReason::TimeLimit);
}


// -------------------------------------------------------------------------
// Fiber stack headroom
// -------------------------------------------------------------------------

/**
 * One run of @p kind on fiber stacks half SimConfig's default: untimed
 * acquisitions and acquire_for calls with timeouts short enough to expire,
 * each entry walking a shared array, under the invariant checker.
 */
void
run_on_half_stacks(locks::LockKind kind, FaultInjector* faults,
                   obs::ProbeSink* sink)
{
    SimMachine m(Topology::symmetric(2, 4), LatencyModel::wildfire(),
                 SimConfig{.seed = 7,
                           .fiber_stack_bytes =
                               SimConfig{}.fiber_stack_bytes / 2});
    InvariantChecker checker;
    m.install_invariants(&checker);
    m.install_faults(faults);
    m.install_probe(sink);
    locks::AnyLock<SimContext> lock(m, kind);
    const MemRef cs_work = m.alloc_array(4, 0, 0);
    std::uint64_t entries = 0;
    m.add_threads(8, Placement::RoundRobinNodes, [&](SimContext& ctx, int) {
        for (int i = 0; i < 16; ++i) {
            ctx.cs_wait_begin();
            if (i % 2 == 0) {
                lock.acquire(ctx);
            } else if (!lock.acquire_for(ctx, 2'000)) {
                ctx.cs_wait_abort();
                continue;
            }
            ctx.cs_enter();
            ctx.touch_array(cs_work, 4, /*write=*/true);
            ++entries;
            ctx.cs_exit();
            lock.release(ctx);
            ctx.delay(ctx.rng().next_below(400));
        }
    });
    m.run();
    EXPECT_EQ(checker.mutual_exclusion_violations(), 0u)
        << locks::lock_name(kind);
    EXPECT_EQ(checker.acquisitions(), entries) << locks::lock_name(kind);
}

/**
 * The headroom fence for SimConfig::fiber_stack_bytes: every lock runs on
 * half the default stack without tripping the fiber overflow check, with
 * parked polls, under a chaos fault plan (the deepest simulated thread
 * measured ran under one) and into a metrics registry.
 */
TEST(FiberStackHeadroom, EveryLockRunsOnHalfTheDefaultStack)
{
    for (locks::LockKind kind : locks::all_lock_kinds()) {
        run_on_half_stacks(kind, nullptr, nullptr);

        FaultInjector chaos(*FaultPlan::parse("chaos", 7, 8));
        run_on_half_stacks(kind, &chaos, nullptr);
        EXPECT_GT(chaos.injected(), 0u) << locks::lock_name(kind);

        obs::MetricsRegistry registry;
        run_on_half_stacks(kind, nullptr, &registry);
        EXPECT_GT(registry.events_seen(), 0u) << locks::lock_name(kind);
    }
}

TEST(Engine, PrintStatsReportsResources)
{
    SimMachine m(Topology::wildfire(2));
    const MemRef word = m.alloc(0, 0);
    m.add_threads(4, Placement::RoundRobinNodes, [&](SimContext& ctx, int) {
        for (int i = 0; i < 20; ++i)
            ctx.swap(word, ctx.rng().next());
    });
    m.run();
    std::ostringstream oss;
    m.print_stats(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("simulated time"), std::string::npos);
    EXPECT_NE(out.find("node-bus-0"), std::string::npos);
    EXPECT_NE(out.find("node-bus-1"), std::string::npos);
    EXPECT_NE(out.find("global-link"), std::string::npos);
    EXPECT_NE(out.find("transactions"), std::string::npos);
}

} // namespace
