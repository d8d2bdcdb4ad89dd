/**
 * @file
 * Timed-abandonment robustness tests: the trace keys that carry fault
 * campaigns, the saturating deadline arithmetic, MCS park / reclaim /
 * rejoin / unpark recovery on the simulator, holder-death recovery for
 * every abandonment-capable lock under the checker harness, campaign
 * determinism plus failing-cell trace replay, and the metrics fold of the
 * abandonment probe events.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "common/rng.hpp"
#include "check/harness.hpp"
#include "check/schedule.hpp"
#include "harness/barrier.hpp"
#include "harness/newbench.hpp"
#include "harness/sim_run.hpp"
#include "locks/adaptive_policy.hpp"
#include "locks/any_lock.hpp"
#include "locks/timed.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::check;
using namespace nucalock::locks;
using namespace nucalock::sim;

// ------------------------------------------------------- trace format --

TEST(RobustTrace, TimeoutAndFaultKeysRoundTrip)
{
    Trace trace;
    trace.lock = "MCS";
    trace.nodes = 2;
    trace.cpus_per_node = 4;
    trace.iterations = 3;
    trace.seed = 7;
    trace.bounded = true;
    trace.timeout_ns = 500'000;
    trace.faults = "holderdeath";
    trace.schedule.choices = {0, 0, 1, 2, 1};

    const std::string text = encode_trace(trace);
    EXPECT_NE(text.find(";timeout=500000"), std::string::npos);
    EXPECT_NE(text.find(";faults=holderdeath"), std::string::npos);

    const auto back = decode_trace(text);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->lock, trace.lock);
    EXPECT_EQ(back->bounded, true);
    EXPECT_EQ(back->timeout_ns, trace.timeout_ns);
    EXPECT_EQ(back->faults, trace.faults);
    EXPECT_EQ(back->schedule, trace.schedule);

    const auto setup = setup_from_trace(*back);
    ASSERT_TRUE(setup.has_value());
    EXPECT_EQ(setup->kind, LockKind::Mcs);
    EXPECT_TRUE(setup->bounded);
    EXPECT_EQ(setup->timeout_ns, 500'000u);
    EXPECT_EQ(setup->faults, "holderdeath");
}

TEST(RobustTrace, FaultFreeTraceOmitsNewKeysByteForByte)
{
    // Traces recorded before the timeout=/faults= keys existed must still
    // be produced byte-identically for fault-free default-timeout runs.
    Trace trace;
    trace.lock = "TATAS";
    trace.schedule.choices = {0, 0, 1};
    EXPECT_EQ(encode_trace(trace),
              "nc1;lock=TATAS;nodes=2;cpus=2;iters=2;seed=1;bounded=0;"
              "sched=0x2,1x1");

    // A bounded run at the default timeout also omits the timeout key.
    trace.bounded = true;
    trace.timeout_ns = kDefaultCheckTimeoutNs;
    EXPECT_EQ(encode_trace(trace),
              "nc1;lock=TATAS;nodes=2;cpus=2;iters=2;seed=1;bounded=1;"
              "sched=0x2,1x1");

    // And the legacy string (no new keys) still decodes.
    const auto legacy = decode_trace(
        "nc1;lock=MCS;nodes=2;cpus=2;iters=2;seed=1;bounded=0;sched=0x3");
    ASSERT_TRUE(legacy.has_value());
    EXPECT_EQ(legacy->timeout_ns, kDefaultCheckTimeoutNs);
    EXPECT_TRUE(legacy->faults.empty());
}

TEST(RobustTrace, DecodeRejectsBadTimeoutAndFaults)
{
    // timeout must be a positive number.
    EXPECT_FALSE(decode_trace("nc1;lock=MCS;nodes=2;cpus=2;iters=2;seed=1;"
                              "bounded=1;timeout=0;sched=0x3")
                     .has_value());
    EXPECT_FALSE(decode_trace("nc1;lock=MCS;nodes=2;cpus=2;iters=2;seed=1;"
                              "bounded=1;timeout=soon;sched=0x3")
                     .has_value());
    // An unknown fault spec decodes as a string but must be rejected when
    // the setup is rebuilt (FaultPlan::parse is the authority).
    const auto bad = decode_trace("nc1;lock=MCS;nodes=2;cpus=2;iters=2;"
                                  "seed=1;bounded=1;faults=bogus;sched=0x3");
    ASSERT_TRUE(bad.has_value());
    EXPECT_FALSE(setup_from_trace(*bad).has_value());
}

// ------------------------------------------- saturating deadline (fix) --

TEST(SaturatingDeadline, SentinelTimeoutsClampInsteadOfWrapping)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(locks::detail::saturating_deadline(12'345, kMax), kMax);
    EXPECT_EQ(locks::detail::saturating_deadline(kMax - 5, 10), kMax);
    EXPECT_EQ(locks::detail::saturating_deadline(kMax, kMax), kMax);
    EXPECT_EQ(locks::detail::saturating_deadline(0, kMax), kMax);
    EXPECT_EQ(locks::detail::saturating_deadline(100, 50), 150u);
}

TEST(SaturatingDeadline, InfiniteAcquireForSucceedsOnEveryTimedLock)
{
    // Before the saturation fix, now + UINT64_MAX wrapped to a deadline in
    // the past and every uncontended acquire_for failed instantly.
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    for (LockKind kind : all_lock_kinds()) {
        SimMachine machine(Topology::symmetric(2, 2));
        AnyLock<SimContext> lock(machine, kind);
        bool ok = false;
        machine.add_threads(1, Placement::RoundRobinNodes,
                            [&](SimContext& ctx, int) {
                                ok = lock.acquire_for(ctx, kMax);
                                if (ok)
                                    lock.release(ctx);
                            });
        machine.run();
        EXPECT_TRUE(ok) << lock_name(kind);
    }
}

// ------------------------------------------- MCS abandonment recovery --

/** Timings (sim ns) for the three-thread park/reclaim scenarios below. */
constexpr std::uint64_t kHold = 20'000;     // how long T0 keeps the lock
constexpr std::uint64_t kShortWait = 2'000; // T1's doomed acquire_for bound

TEST(McsAbandonment, ReleaserReclaimsParkedNodeAndOwnerUnparks)
{
    // T0 holds past T1's deadline; T1 parks its node and leaves. T0's
    // release walks the queue, reclaims T1's node, and grants T2. T1 comes
    // back long after and must find its node reclaimed (unpark path).
    SimMachine machine(Topology::symmetric(2, 2));
    AnyLock<SimContext> lock(machine, LockKind::Mcs);
    const MemRef counter = machine.alloc(0, 0);
    bool t1_first = true;
    bool t2_got = false;

    machine.add_threads(3, Placement::RoundRobinNodes,
                        [&](SimContext& ctx, int i) {
                            if (i == 0) {
                                lock.acquire(ctx);
                                ctx.delay(kHold);
                                ctx.store(counter, ctx.load(counter) + 1);
                                lock.release(ctx);
                            } else if (i == 1) {
                                ctx.delay(100);
                                t1_first = lock.acquire_for(ctx, kShortWait);
                                if (t1_first)
                                    lock.release(ctx);
                                ctx.delay(kHold * 4);
                                lock.acquire(ctx);
                                ctx.store(counter, ctx.load(counter) + 1);
                                lock.release(ctx);
                            } else {
                                ctx.delay(200);
                                t2_got = lock.acquire_for(ctx, kHold * 8);
                                if (t2_got) {
                                    ctx.store(counter,
                                              ctx.load(counter) + 1);
                                    lock.release(ctx);
                                }
                            }
                        });
    machine.run();

    EXPECT_FALSE(t1_first); // the short bound expired while T0 held
    EXPECT_TRUE(t2_got);    // the grant walked past the parked node
    EXPECT_EQ(machine.memory().peek(counter), 3u);

    const AbandonStats stats = lock.abandon_stats();
    EXPECT_EQ(stats.abandons, 1u);
    EXPECT_EQ(stats.parked, 1u);
    EXPECT_EQ(stats.reclaims, 1u);
    EXPECT_EQ(stats.unparks, 1u);
    EXPECT_EQ(stats.rejoins, 0u);
    EXPECT_EQ(stats.linked_abandoned(), 0u); // nothing left in the queue
}

TEST(McsAbandonment, ReturningOwnerRejoinsItsParkedNode)
{
    // T1 parks, then retries while T0 still holds — before any release
    // walk could reclaim the node — so it must resume its old queue
    // position (rejoin), preserving FIFO order ahead of no one.
    SimMachine machine(Topology::symmetric(2, 2));
    AnyLock<SimContext> lock(machine, LockKind::Mcs);
    const MemRef counter = machine.alloc(0, 0);
    bool t1_first = true;

    machine.add_threads(2, Placement::RoundRobinNodes,
                        [&](SimContext& ctx, int i) {
                            if (i == 0) {
                                lock.acquire(ctx);
                                ctx.delay(kHold);
                                ctx.store(counter, ctx.load(counter) + 1);
                                lock.release(ctx);
                            } else {
                                ctx.delay(100);
                                t1_first = lock.acquire_for(ctx, kShortWait);
                                if (t1_first)
                                    lock.release(ctx);
                                // Deadline ~2.1us, T0 releases at ~20us:
                                // retry at ~5us is well before the walk.
                                ctx.delay(3'000);
                                lock.acquire(ctx);
                                ctx.store(counter, ctx.load(counter) + 1);
                                lock.release(ctx);
                            }
                        });
    machine.run();

    EXPECT_FALSE(t1_first);
    EXPECT_EQ(machine.memory().peek(counter), 2u);

    const AbandonStats stats = lock.abandon_stats();
    EXPECT_EQ(stats.abandons, 1u);
    EXPECT_EQ(stats.parked, 1u);
    EXPECT_EQ(stats.rejoins, 1u);
    EXPECT_EQ(stats.reclaims, 0u);
    EXPECT_EQ(stats.unparks, 0u);
    EXPECT_EQ(stats.linked_abandoned(), 0u);
}

/**
 * Seeded uniform-random controlled scheduler: every memory operation is a
 * decision point, so it can interleave a releaser's grant between a timed
 * waiter's deadline check and its park CAS — the window the wall-clock
 * runs above cannot hit. A step cap truncates schedules that wander.
 */
class RandomScheduler final : public Scheduler
{
  public:
    explicit RandomScheduler(std::uint64_t seed, std::uint64_t max_steps)
        : rng_(seed), max_steps_(max_steps)
    {
    }

    int
    pick(SimTime, const std::vector<SchedChoice>& runnable) override
    {
        if (++steps_ > max_steps_)
            return kStopRun;
        return runnable[rng_.next() % runnable.size()].tid;
    }

  private:
    Xoshiro256 rng_;
    std::uint64_t steps_ = 0;
    std::uint64_t max_steps_ = 0;
};

TEST(McsAbandonment, GrantCanWinTheAbandonRace)
{
    // The handover-vs-abandon race: the releaser's grant lands between a
    // waiter's deadline check and its park CAS, and the abandoning thread
    // must accept the lock (grant_races) rather than strand a granted
    // node. Search random schedules of a short-timeout bounded run until
    // one hits the window; the search is deterministic in the seed
    // sequence, so the hit (and this test) is stable.
    std::uint64_t races = 0;
    std::uint64_t abandons = 0;
    for (std::uint64_t seed = 1; seed <= 400 && races == 0; ++seed) {
        CheckSetup setup;
        setup.kind = LockKind::Mcs;
        setup.nodes = 2;
        setup.cpus_per_node = 2;
        setup.iterations = 2;
        setup.seed = seed;
        setup.bounded = true;
        setup.timeout_ns = 3'000; // short: expiries and handovers overlap

        RandomScheduler scheduler(seed * 7919, 200'000);
        const RunReport report = run_one(setup, scheduler);
        if (report.truncated())
            continue;
        // Random schedules must never manufacture a correctness failure.
        EXPECT_FALSE(report.failed) << report.what << " seed=" << seed;
        EXPECT_EQ(report.abandon.linked_abandoned(), 0u) << "seed=" << seed;
        races += report.abandon.grant_races;
        abandons += report.abandon.abandons;
    }
    EXPECT_GT(races, 0u);    // some schedule hit the window
    EXPECT_GT(abandons, 0u); // and plenty simply timed out and parked
}

// --------------------------------------- holder-death recovery (run_one) --

class HolderDeathRecoveryTest : public testing::TestWithParam<LockKind>
{
};

TEST_P(HolderDeathRecoveryTest, SurvivorsCompleteWithinBounds)
{
    // The campaign's core acceptance property as a unit test: kill the
    // holder inside its critical section; every abandonment-capable lock
    // must keep mutual exclusion, let the survivors run to completion, and
    // return failed acquire_for calls near their deadlines.
    for (std::uint64_t seed : {1u, 2u}) {
        CheckSetup setup;
        setup.kind = GetParam();
        setup.nodes = 2;
        setup.cpus_per_node = 2;
        setup.iterations = 3;
        setup.seed = seed;
        setup.bounded = true;
        setup.timeout_ns = 500'000;
        setup.faults = "holderdeath";

        DefaultScheduler scheduler;
        const RunReport report = run_one(setup, scheduler);

        EXPECT_FALSE(report.failed) << report.what << " seed=" << seed;
        EXPECT_EQ(report.mutex_violations, 0u) << "seed=" << seed;
        EXPECT_EQ(report.stop, StopReason::Completed) << "seed=" << seed;
        EXPECT_GE(report.faults_injected, 1u) << "seed=" << seed;
        // The dead holder forces the waiters past their 500us bound; at
        // least one timed acquisition must have expired over the two
        // seeds' schedules (checked per seed-pair below, not per seed,
        // because a lucky queue order can spare one seed's waiters).
    }
}

TEST_P(HolderDeathRecoveryTest, DeathActuallyExercisesTimeouts)
{
    std::uint64_t timeouts = 0;
    for (std::uint64_t seed : {1u, 2u}) {
        CheckSetup setup;
        setup.kind = GetParam();
        setup.nodes = 2;
        setup.cpus_per_node = 4;
        setup.iterations = 3;
        setup.seed = seed;
        setup.bounded = true;
        setup.timeout_ns = 500'000;
        setup.faults = "holderdeath";

        DefaultScheduler scheduler;
        const RunReport report = run_one(setup, scheduler);
        EXPECT_FALSE(report.failed) << report.what << " seed=" << seed;
        timeouts += report.timeouts;
    }
    EXPECT_GT(timeouts, 0u) << "holder death never pushed a waiter past "
                               "its deadline: the fault is not firing";
}

std::vector<LockKind>
abandonment_capable_kinds()
{
    std::vector<LockKind> kinds;
    for (LockKind kind : all_lock_kinds())
        if (lock_supports_native_timeout(kind))
            kinds.push_back(kind);
    return kinds;
}

std::string
robust_kind_name(const testing::TestParamInfo<LockKind>& info)
{
    return lock_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(TimedLocks, HolderDeathRecoveryTest,
                         testing::ValuesIn(abandonment_capable_kinds()),
                         robust_kind_name);

// ------------------------------------------------------------ campaign --

bool
cells_equal(const CampaignCell& a, const CampaignCell& b)
{
    return a.lock == b.lock && a.preset == b.preset && a.seed == b.seed &&
           a.failed == b.failed && a.what == b.what && a.stop == b.stop &&
           a.steps == b.steps && a.acquisitions == b.acquisitions &&
           a.timeouts == b.timeouts &&
           a.mutex_violations == b.mutex_violations &&
           a.faults_injected == b.faults_injected &&
           a.max_overshoot_ns == b.max_overshoot_ns &&
           a.abandon.abandons == b.abandon.abandons &&
           a.abandon.parked == b.abandon.parked &&
           a.abandon.reclaims == b.abandon.reclaims &&
           a.leaked_nodes == b.leaked_nodes && a.trace == b.trace &&
           a.minimal_trace == b.minimal_trace;
}

CampaignConfig
small_campaign()
{
    CampaignConfig cfg;
    cfg.presets = {"none", "holderdeath"};
    cfg.kinds = {LockKind::Mcs, LockKind::HboGt};
    cfg.shapes = {CampaignShape{2, 2}, CampaignShape{2, 4}};
    cfg.num_seeds = 2;
    cfg.jobs = 1;
    return cfg;
}

TEST(Campaign, DeterministicAcrossRunsAndJobCounts)
{
    const CampaignResult first = run_campaign(small_campaign());
    const CampaignResult again = run_campaign(small_campaign());
    CampaignConfig wide = small_campaign();
    wide.jobs = 4;
    const CampaignResult sharded = run_campaign(wide);

    ASSERT_EQ(first.cells.size(), 16u); // 2 presets x 2 locks x 2x2 shapes
    ASSERT_EQ(again.cells.size(), first.cells.size());
    ASSERT_EQ(sharded.cells.size(), first.cells.size());
    for (std::size_t i = 0; i < first.cells.size(); ++i) {
        EXPECT_TRUE(cells_equal(first.cells[i], again.cells[i])) << i;
        EXPECT_TRUE(cells_equal(first.cells[i], sharded.cells[i])) << i;
    }
    EXPECT_EQ(first.failures, 0u);
    EXPECT_EQ(sharded.failures, 0u);
}

TEST(Campaign, StandardSweepPassesItsRecoveryAudit)
{
    CampaignConfig cfg;
    cfg.jobs = 0; // default executor sharding
    const CampaignResult result = run_campaign(cfg);
    EXPECT_GT(result.cells.size(), 100u);
    EXPECT_EQ(result.failures, 0u);

    // The sweep must really exercise the abandonment paths, not just pass
    // vacuously: every audited lock family sees timed expiries.
    for (const CampaignLockSummary& row : result.per_lock) {
        EXPECT_GT(row.acquisitions, 0u) << row.lock;
        EXPECT_GT(row.timeouts, 0u) << row.lock;
    }
}

TEST(Campaign, FailingCellCarriesAReplayableTrace)
{
    // Force a failure through the overshoot audit: with a zero budget any
    // expiry that returns even one poll quantum late trips the bound.
    CampaignConfig cfg;
    cfg.presets = {"holderdeath"};
    cfg.kinds = {LockKind::Mcs};
    cfg.shapes = {CampaignShape{2, 2}, CampaignShape{2, 4}};
    cfg.num_seeds = 2;
    cfg.overshoot_base_ns = 0;
    cfg.jobs = 1;

    const CampaignResult result = run_campaign(cfg);
    ASSERT_GT(result.failures, 0u);

    const CampaignCell* failed = nullptr;
    for (const CampaignCell& cell : result.cells)
        if (cell.failed) {
            failed = &cell;
            break;
        }
    ASSERT_NE(failed, nullptr);
    EXPECT_NE(failed->what.find("overshoot"), std::string::npos)
        << failed->what;
    ASSERT_FALSE(failed->trace.empty());

    // The trace replays bit-identically: same machine history, same
    // overshoot measurement the audit tripped on.
    const auto trace = decode_trace(failed->trace);
    ASSERT_TRUE(trace.has_value());
    EXPECT_EQ(trace->faults, "holderdeath");
    EXPECT_EQ(trace->timeout_ns, cfg.timeout_ns);
    const auto setup = setup_from_trace(*trace);
    ASSERT_TRUE(setup.has_value());
    ReplayScheduler replay(trace->schedule);
    const RunReport report = run_one(*setup, replay);
    EXPECT_FALSE(replay.diverged());
    EXPECT_EQ(report.acquisitions, failed->acquisitions);
    EXPECT_EQ(report.timeouts, failed->timeouts);
    EXPECT_EQ(report.max_overshoot_ns, failed->max_overshoot_ns);
}

// ------------------------------------------------- timed-path pins ---
//
// The HBO family's timed paths, pinned, so that any change to a deadline
// check, gate wait or abandonment shows here. The campaign checks only
// its own audit and its determinism across job counts.

struct CampaignPin
{
    const char* preset;
    const char* lock;
    int nodes;
    int cpus_per_node;
    std::uint64_t seed;
    std::uint64_t steps;
    std::uint64_t acquisitions;
    std::uint64_t timeouts;
    std::uint64_t max_overshoot_ns;
    std::uint64_t abandons;
};

TEST(TimedPins, HboCampaignCells)
{
    CampaignConfig cfg;
    cfg.presets = {"none", "spinner", "holderdeath"};
    cfg.kinds = {LockKind::HboGt, LockKind::HboGtSd, LockKind::HboHier};
    cfg.shapes = {CampaignShape{2, 2}, CampaignShape{2, 4}};
    cfg.num_seeds = 2;
    cfg.jobs = 1;
    const CampaignResult result = run_campaign(cfg);

    // clang-format off
    const CampaignPin pins[] = {
        {"none", "HBO_GT", 2, 2, 1, 100, 12, 0, 0, 0},
        {"none", "HBO_GT", 2, 2, 2, 100, 12, 0, 0, 0},
        {"none", "HBO_GT", 2, 4, 1, 200, 24, 0, 0, 0},
        {"none", "HBO_GT", 2, 4, 2, 200, 24, 0, 0, 0},
        {"none", "HBO_GT_SD", 2, 2, 1, 100, 12, 0, 0, 0},
        {"none", "HBO_GT_SD", 2, 2, 2, 100, 12, 0, 0, 0},
        {"none", "HBO_GT_SD", 2, 4, 1, 200, 24, 0, 0, 0},
        {"none", "HBO_GT_SD", 2, 4, 2, 200, 24, 0, 0, 0},
        {"none", "HBO_HIER", 2, 2, 1, 100, 12, 0, 0, 0},
        {"none", "HBO_HIER", 2, 2, 2, 100, 12, 0, 0, 0},
        {"none", "HBO_HIER", 2, 4, 1, 200, 24, 0, 0, 0},
        {"none", "HBO_HIER", 2, 4, 2, 200, 24, 0, 0, 0},
        {"spinner", "HBO_GT", 2, 2, 1, 100, 12, 0, 0, 0},
        {"spinner", "HBO_GT", 2, 2, 2, 100, 12, 0, 0, 0},
        {"spinner", "HBO_GT", 2, 4, 1, 200, 24, 0, 0, 0},
        {"spinner", "HBO_GT", 2, 4, 2, 200, 24, 0, 0, 0},
        {"spinner", "HBO_GT_SD", 2, 2, 1, 100, 12, 0, 0, 0},
        {"spinner", "HBO_GT_SD", 2, 2, 2, 100, 12, 0, 0, 0},
        {"spinner", "HBO_GT_SD", 2, 4, 1, 200, 24, 0, 0, 0},
        {"spinner", "HBO_GT_SD", 2, 4, 2, 200, 24, 0, 0, 0},
        {"spinner", "HBO_HIER", 2, 2, 1, 100, 12, 0, 0, 0},
        {"spinner", "HBO_HIER", 2, 2, 2, 100, 12, 0, 0, 0},
        {"spinner", "HBO_HIER", 2, 4, 1, 200, 24, 0, 0, 0},
        {"spinner", "HBO_HIER", 2, 4, 2, 200, 24, 0, 0, 0},
        {"holderdeath", "HBO_GT", 2, 2, 1, 294, 5, 6, 29005, 6},
        {"holderdeath", "HBO_GT", 2, 2, 2, 382, 2, 9, 29389, 9},
        {"holderdeath", "HBO_GT", 2, 4, 1, 794, 5, 18, 31600, 18},
        {"holderdeath", "HBO_GT", 2, 4, 2, 866, 2, 21, 31979, 21},
        {"holderdeath", "HBO_GT_SD", 2, 2, 1, 448, 5, 6, 3666, 6},
        {"holderdeath", "HBO_GT_SD", 2, 2, 2, 592, 2, 9, 5877, 9},
        {"holderdeath", "HBO_GT_SD", 2, 4, 1, 1240, 5, 18, 7800, 18},
        {"holderdeath", "HBO_GT_SD", 2, 4, 2, 1292, 2, 21, 9080, 21},
        {"holderdeath", "HBO_HIER", 2, 2, 1, 294, 5, 6, 29005, 6},
        {"holderdeath", "HBO_HIER", 2, 2, 2, 382, 2, 9, 29389, 9},
        {"holderdeath", "HBO_HIER", 2, 4, 1, 794, 5, 18, 31600, 18},
        {"holderdeath", "HBO_HIER", 2, 4, 2, 866, 2, 21, 31979, 21},
    };
    // clang-format on
    ASSERT_EQ(result.cells.size(), std::size(pins));
    EXPECT_EQ(result.failures, 0u);
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        const CampaignCell& cell = result.cells[i];
        const CampaignPin& pin = pins[i];
        const std::string name = cell.preset + " " + cell.lock + " " +
                                 std::to_string(cell.nodes) + "x" +
                                 std::to_string(cell.cpus_per_node) +
                                 " seed " + std::to_string(cell.seed);
        EXPECT_EQ(cell.preset, pin.preset) << i;
        EXPECT_EQ(cell.lock, pin.lock) << i;
        EXPECT_EQ(cell.nodes, pin.nodes) << i;
        EXPECT_EQ(cell.cpus_per_node, pin.cpus_per_node) << i;
        EXPECT_EQ(cell.seed, pin.seed) << i;
        EXPECT_EQ(cell.steps, pin.steps) << name;
        EXPECT_EQ(cell.acquisitions, pin.acquisitions) << name;
        EXPECT_EQ(cell.timeouts, pin.timeouts) << name;
        EXPECT_EQ(cell.max_overshoot_ns, pin.max_overshoot_ns) << name;
        EXPECT_EQ(cell.abandon.abandons, pin.abandons) << name;
    }
}

/** A newbench run whose survivors wait with acquire_for: the "death"
 *  plan drawn from @p fault_seed kills a thread, and the timeout is short
 *  enough to expire. */
harness::NewBenchConfig
timed_newbench(const Topology& topology, std::uint64_t fault_seed)
{
    harness::NewBenchConfig config;
    config.topology = topology;
    config.threads = topology.num_cpus();
    config.critical_work = 1500;
    config.recovery_timeout_ns = 200'000;
    config.fault_plan =
        *FaultPlan::parse("death", fault_seed, config.threads);
    return config;
}

/** get_angry_limit = 1: the timed HBO_GT_SD path both gets angry and
 *  times out. */
TEST(TimedPins, AngryHboGtSdUnderDeath)
{
    harness::NewBenchConfig config =
        timed_newbench(Topology::symmetric(2, 4), 3);
    config.iterations_per_thread = 30;
    config.params.get_angry_limit = 1;
    obs::MetricsRegistry reg;
    config.probe = &reg;
    const harness::BenchResult r =
        harness::run_newbench(LockKind::HboGtSd, config);
    reg.finalize();
    EXPECT_EQ(r.acquisition_order_hash, 0x700b0529127108f3u);
    EXPECT_EQ(r.total_time, 1'302'100u);
    EXPECT_EQ(r.lock_timeouts, 7u);
    ASSERT_NE(reg.primary(), nullptr);
    EXPECT_GT(reg.primary()->angry_transitions, 0u);
}

/** HBO_HIER's chip and node levels on a two-level machine. */
TEST(TimedPins, HboHierOnChipsUnderDeath)
{
    harness::NewBenchConfig config =
        timed_newbench(Topology::hierarchical(2, 2, 4), 1);
    config.iterations_per_thread = 20;
    const harness::BenchResult r =
        harness::run_newbench(LockKind::HboHier, config);
    EXPECT_EQ(r.acquisition_order_hash, 0x51db86b59249ca25u);
    EXPECT_EQ(r.total_time, 1'872'575u);
    EXPECT_EQ(r.lock_timeouts, 12u);
    EXPECT_EQ(r.total_acquires, 62u);
}

/** A death planned long after the run ends makes newbench wait with
 *  acquire_for on every acquisition, and the 20 ms timeout is never
 *  reached. So these runs take the timed path under full contention:
 *  gate waits, anger, the lock leaving the node, HBO_HIER's chip level. */
TEST(TimedPins, ContendedTimedRuns)
{
    struct Pin
    {
        LockKind kind;
        bool chips;
        std::uint64_t hash;
        SimTime time;
        std::uint64_t acquires;
    };
    const Pin pins[] = {
        {LockKind::HboGt, false, 0x27909c55d174c843u, 4'222'915u, 160u},
        {LockKind::HboGtSd, false, 0x7f6428ea5f3be4a9u, 7'299'799u, 160u},
        {LockKind::HboGtSd, true, 0x493179d9719a9ce1u, 9'448'313u, 320u},
        {LockKind::HboHier, true, 0x57a20da1db90bc29u, 5'000'946u, 320u},
        {LockKind::Mcs, false, 0x5f62ae9fea21f01du, 11'655'162u, 160u},
        {LockKind::Mcs, true, 0x41005b2f2b4fd7e1u, 16'997'469u, 320u},
        {LockKind::Reactive, false, 0xcc1c0a51d3171139u, 6'369'502u, 160u},
        {LockKind::Reactive, true, 0x07ab3fb594dea4adu, 10'158'873u, 320u},
        {LockKind::Adaptive, false, 0x936e1e13be9c9411u, 5'166'593u, 160u},
        {LockKind::Adaptive, true, 0x594ff2fb78b6a547u, 7'191'853u, 320u},
        {LockKind::Cohort, false, 0x94a9ff4e7333b743u, 5'557'032u, 160u},
        {LockKind::Cohort, true, 0xc59b5663eb11f391u, 10'004'242u, 320u},
    };
    for (const Pin& pin : pins) {
        harness::NewBenchConfig config;
        config.topology = pin.chips ? Topology::hierarchical(2, 2, 4)
                                    : Topology::symmetric(2, 4);
        config.threads = config.topology.num_cpus();
        config.iterations_per_thread = 20;
        config.critical_work = 500;
        config.params.get_angry_limit = 4;
        config.fault_plan = FaultPlan::thread_death(0, 1'000'000'000);
        const harness::BenchResult r = harness::run_newbench(pin.kind, config);
        const std::string name = std::string(lock_name(pin.kind)) +
                                 (pin.chips ? " on chips" : " flat");
        EXPECT_EQ(r.acquisition_order_hash, pin.hash) << name;
        EXPECT_EQ(r.total_time, pin.time) << name;
        EXPECT_EQ(r.lock_timeouts, 0u) << name;
        EXPECT_EQ(r.total_acquires, pin.acquires) << name;
    }
}

/** What one death_after_untimed() run saw. */
struct DeathRun
{
    harness::BenchResult result;
    std::uint64_t timeouts = 0;
    AbandonStats abandon;
    std::uint64_t storm_demotions = 0;
};

/**
 * Every thread first acquires @p kind untimed, so that REACTIVE and
 * ADAPTIVE adapt to the contention, then meets the others at a barrier
 * and acquires with a 200 us acquire_for, going on to its next iteration
 * after a timeout. A holder dies in its critical section a few timed
 * acquisitions in, so every later wait times out, again and again.
 */
DeathRun
death_after_untimed(LockKind kind, const Topology& topology)
{
    constexpr std::uint32_t kUntimed = 12;
    constexpr std::uint32_t kTimed = 6;
    harness::SimRunConfig config;
    config.topology = topology;
    config.threads = topology.num_cpus();
    const auto threads = static_cast<std::uint64_t>(config.threads);
    config.fault_plan = FaultPlan::holder_death(threads * kUntimed + threads);
    obs::MetricsRegistry reg;
    config.probe = &reg;
    harness::SimRun run(config);
    AnyLock<SimContext> lock(run.machine(), kind, config.params);
    harness::SenseBarrier<SimContext> barrier(run.machine(), config.threads);
    const MemRef data = run.machine().alloc_array(4, 0, 0);
    DeathRun out;
    run.add_threads([&](SimContext& ctx, int) {
        bool sense = false;
        for (std::uint32_t i = 0; i < kUntimed + kTimed; ++i) {
            if (i == kUntimed)
                barrier.wait(ctx, &sense);
            ctx.cs_wait_begin();
            if (i < kUntimed) {
                lock.acquire(ctx);
            } else if (!lock.acquire_for(ctx, 200'000)) {
                ctx.cs_wait_abort();
                ++out.timeouts;
                continue;
            }
            run.enter(ctx);
            ctx.touch_array(data, 4, /*write=*/true);
            ctx.cs_exit();
            lock.release(ctx);
            ctx.delay(ctx.rng().next_below(2'000));
        }
    });
    out.result = run.finish();
    out.abandon = lock.abandon_stats();
    reg.finalize();
    if (const obs::LockMetrics* m = reg.primary())
        out.storm_demotions = m->adapt_reasons[static_cast<std::size_t>(
            AdaptReason::TimeoutStorm)];
    return out;
}

/** The timed paths' recovery under a holder death: MCS parks its node and
 *  rejoins it, REACTIVE abandons in its queue mode, ADAPTIVE's timeout
 *  storm demotes it to the queue gear, and COHORT re-opens its node's
 *  word. */
TEST(TimedPins, HolderDeathAfterUntimedContention)
{
    struct Pin
    {
        LockKind kind;
        bool chips;
        std::uint64_t hash;
        SimTime time;
        std::uint64_t acquires;
        std::uint64_t timeouts;
    };
    const Pin pins[] = {
        {LockKind::Mcs, false, 0xde8f73ea798a26bdu, 2'871'269u, 104u, 35u},
        {LockKind::Mcs, true, 0xff3b58d88132c13du, 4'727'158u, 208u, 75u},
        {LockKind::Reactive, false, 0x6cc8126b457b5d2au, 2'432'524u, 104u, 35u},
        {LockKind::Reactive, true, 0xd0d56c7242201e44u, 2'873'746u, 208u, 75u},
        {LockKind::Adaptive, false, 0x117d956eca85c967u, 2'062'765u, 104u, 37u},
        {LockKind::Adaptive, true, 0xa9fdbfd2dc56a583u, 2'240'876u, 208u, 80u},
        {LockKind::Cohort, false, 0xb624c45ca86b3341u, 1'875'424u, 104u, 37u},
        {LockKind::Cohort, true, 0xc0bbcec5df1a169du, 2'316'433u, 208u, 75u},
    };
    for (const Pin& pin : pins) {
        const DeathRun run = death_after_untimed(
            pin.kind, pin.chips ? Topology::hierarchical(2, 2, 4)
                                : Topology::symmetric(2, 4));
        const std::string name = std::string(lock_name(pin.kind)) +
                                 (pin.chips ? " on chips" : " flat");
        EXPECT_EQ(run.result.acquisition_order_hash, pin.hash) << name;
        EXPECT_EQ(run.result.total_time, pin.time) << name;
        EXPECT_EQ(run.result.total_acquires, pin.acquires) << name;
        EXPECT_EQ(run.timeouts, pin.timeouts) << name;
        EXPECT_GT(run.abandon.abandons, 0u) << name;
        if (pin.kind == LockKind::Mcs) {
            EXPECT_GT(run.abandon.parked, 0u) << name;
            EXPECT_GT(run.abandon.rejoins, 0u) << name;
        }
        if (pin.kind == LockKind::Reactive) {
            EXPECT_GT(run.abandon.parked, 0u) << name; // only its queue parks
        }
        if (pin.kind == LockKind::Adaptive) {
            EXPECT_GT(run.storm_demotions, 0u) << name;
        }
    }
}

// ---------------------------------------------- abandonment metrics fold --

obs::ProbeRecord
rec(obs::LockEvent event, std::uint64_t t, int thread, std::uint64_t a0 = 0,
    std::uint64_t a1 = 0)
{
    return obs::ProbeRecord{event, t, /*lock_id=*/42, thread,
                            /*cpu=*/thread,  /*node=*/0, a0, a1};
}

TEST(AbandonMetrics, RegistryFoldsTheAbandonEventStream)
{
    using obs::AbandonOutcome;
    using obs::LockEvent;
    using obs::ReclaimKind;

    obs::MetricsRegistry reg;
    // T0 times out and parks; its node is later reclaimed by a releaser
    // and T0 unparks on return. T1's deadline loses the grant race.
    reg.on_event(rec(LockEvent::AbandonStart, 100, 0));
    reg.on_event(rec(LockEvent::AbandonDone, 160, 0,
                     static_cast<std::uint64_t>(AbandonOutcome::Parked)));
    reg.on_event(rec(LockEvent::QueueReclaim, 400, 2,
                     static_cast<std::uint64_t>(ReclaimKind::Unlinked), 0));
    reg.on_event(rec(LockEvent::QueueReclaim, 900, 0,
                     static_cast<std::uint64_t>(ReclaimKind::Unparked), 0));
    reg.on_event(rec(LockEvent::AbandonStart, 1'000, 1));
    reg.on_event(
        rec(LockEvent::AbandonDone, 1'080, 1,
            static_cast<std::uint64_t>(AbandonOutcome::GrantRaced)));
    reg.on_event(rec(LockEvent::QueueReclaim, 1'200, 3,
                     static_cast<std::uint64_t>(ReclaimKind::Rejoined), 3));
    reg.finalize();

    const obs::LockMetrics& m = reg.lock(42);
    // A grant-raced deadline is NOT an abandon: the lock was accepted, so
    // only the parked expiry counts (matching locks::AbandonCounters).
    EXPECT_EQ(m.abandons, 1u);
    EXPECT_EQ(m.abandons_parked, 1u);
    EXPECT_EQ(m.abandon_grant_races, 1u);
    EXPECT_EQ(m.reclaims, 1u);
    EXPECT_EQ(m.unparks, 1u);
    EXPECT_EQ(m.rejoins, 1u);
    EXPECT_EQ(m.abandon_latency_ns.count(), 2u);
    EXPECT_DOUBLE_EQ(m.abandon_latency_ns.mean(), (60.0 + 80.0) / 2);
}

TEST(AbandonMetrics, ProbeStreamMatchesHarnessCounters)
{
    // End to end: the probe-fed registry and the lock's own host-side
    // counters must tell the same abandonment story for a faulty run.
    obs::MetricsRegistry reg;
    CheckSetup setup;
    setup.kind = LockKind::Mcs;
    setup.nodes = 2;
    setup.cpus_per_node = 4;
    setup.iterations = 3;
    setup.seed = 1;
    setup.bounded = true;
    setup.timeout_ns = 500'000;
    setup.faults = "holderdeath";
    setup.probe = &reg;

    DefaultScheduler scheduler;
    const RunReport report = run_one(setup, scheduler);
    EXPECT_FALSE(report.failed) << report.what;
    reg.finalize();

    ASSERT_NE(reg.primary(), nullptr);
    const obs::LockMetrics& m = *reg.primary();
    EXPECT_EQ(m.abandons, report.abandon.abandons);
    EXPECT_EQ(m.abandons_parked, report.abandon.parked);
    EXPECT_EQ(m.abandon_grant_races, report.abandon.grant_races);
    EXPECT_EQ(m.reclaims, report.abandon.reclaims);
    EXPECT_EQ(m.rejoins, report.abandon.rejoins);
    EXPECT_EQ(m.unparks, report.abandon.unparks);
    EXPECT_GT(m.abandons, 0u); // the scenario really abandoned
}

} // namespace
