/**
 * @file
 * ADAPTIVE lock tests: the gear-switch policy ladder (epoch sampling,
 * hysteresis, cooldown, timeout-storm degradation, quiet-period recovery),
 * the lock's gear transitions on the simulator, the AdaptSwitch metrics
 * fold, and the schema-v4 per-run "adaptive" report object.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <vector>

#include "locks/adaptive.hpp"
#include "locks/adaptive_policy.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sim/engine.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;

// ------------------------------------------------------------ policy ----

/** Small windows so the ladder is walkable in a handful of calls. */
AdaptiveParams
tiny_params()
{
    AdaptiveParams p;
    p.epoch = 4;
    p.spin_up = 3;
    p.spin_down = 1;
    p.remote_frac_pct = 50;
    p.link_util_pct = 40;
    p.storm_abandons = 3;
    p.quiet_epochs = 2;
    p.cooldown_acquires = 8;
    return p;
}

/** Feed one whole epoch of identical samples; returns the boundary
 *  decision (every intermediate call must decide nothing). */
std::optional<AdaptDecision>
feed_epoch(AdaptivePolicy& policy, AdaptGear gear, bool contended,
           bool remote, int link_util_pct = -1)
{
    const AdaptiveParams p = tiny_params();
    for (std::uint32_t i = 0; i + 1 < p.epoch; ++i) {
        EXPECT_EQ(policy.on_acquire(gear, contended, remote, link_util_pct),
                  std::nullopt);
    }
    return policy.on_acquire(gear, contended, remote, link_util_pct);
}

TEST(AdaptivePolicy, DecidesOnlyAtEpochBoundaries)
{
    AdaptivePolicy policy(tiny_params());
    // Three contended samples: inside the epoch, never a decision.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(policy.on_acquire(AdaptGear::Tatas, true, false, -1),
                  std::nullopt);
    // The fourth closes the epoch and escalates.
    const auto decision = policy.on_acquire(AdaptGear::Tatas, true, false, -1);
    ASSERT_TRUE(decision.has_value());
}

TEST(AdaptivePolicy, HotLocalTrafficEscalatesTatasToQueue)
{
    AdaptivePolicy policy(tiny_params());
    const auto decision = feed_epoch(policy, AdaptGear::Tatas,
                                     /*contended=*/true, /*remote=*/false);
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->to, AdaptGear::Queue);
    EXPECT_EQ(decision->reason, AdaptReason::Contention);
}

TEST(AdaptivePolicy, HotRemoteTrafficEscalatesTatasToHbo)
{
    AdaptivePolicy policy(tiny_params());
    const auto decision = feed_epoch(policy, AdaptGear::Tatas,
                                     /*contended=*/true, /*remote=*/true);
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->to, AdaptGear::Hbo);
    EXPECT_EQ(decision->reason, AdaptReason::NucaTraffic);
}

TEST(AdaptivePolicy, SaturatedLinkCountsAsNucaTraffic)
{
    // Handovers are node-local but the global link is saturated: the HBO
    // gear's arrival shaping is still the right tool.
    AdaptivePolicy policy(tiny_params());
    const auto decision = feed_epoch(policy, AdaptGear::Tatas,
                                     /*contended=*/true, /*remote=*/false,
                                     /*link_util_pct=*/80);
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->to, AdaptGear::Hbo);
    EXPECT_EQ(decision->reason, AdaptReason::NucaTraffic);
}

TEST(AdaptivePolicy, QuietEpochRelaxesBackToTatas)
{
    AdaptivePolicy policy(tiny_params());
    const auto from_hbo = feed_epoch(policy, AdaptGear::Hbo,
                                     /*contended=*/false, /*remote=*/false);
    ASSERT_TRUE(from_hbo.has_value());
    EXPECT_EQ(from_hbo->to, AdaptGear::Tatas);
    EXPECT_EQ(from_hbo->reason, AdaptReason::Quiet);

    AdaptivePolicy policy2(tiny_params());
    const auto from_queue = feed_epoch(policy2, AdaptGear::Queue,
                                       /*contended=*/false, /*remote=*/false);
    ASSERT_TRUE(from_queue.has_value());
    EXPECT_EQ(from_queue->to, AdaptGear::Tatas);
    EXPECT_EQ(from_queue->reason, AdaptReason::Quiet);
}

TEST(AdaptivePolicy, CooldownSuppressesVoluntarySwitches)
{
    AdaptivePolicy policy(tiny_params());
    policy.on_switch(AdaptGear::Queue, AdaptReason::Contention);
    EXPECT_EQ(policy.switches(), 1u);

    // cooldown_acquires = 8 = two epochs: the first hot epoch after the
    // switch is suppressed (hysteresis), the second is free to act.
    const auto suppressed = feed_epoch(policy, AdaptGear::Queue,
                                       /*contended=*/true, /*remote=*/true);
    EXPECT_EQ(suppressed, std::nullopt);
    const auto acted = feed_epoch(policy, AdaptGear::Queue,
                                  /*contended=*/true, /*remote=*/true);
    ASSERT_TRUE(acted.has_value());
    EXPECT_EQ(acted->to, AdaptGear::Hbo);
    EXPECT_EQ(acted->reason, AdaptReason::NucaTraffic);
}

TEST(AdaptivePolicy, AbandonStormDemotesToQueue)
{
    AdaptivePolicy policy(tiny_params());
    EXPECT_EQ(policy.on_abandon(AdaptGear::Tatas), std::nullopt);
    EXPECT_EQ(policy.on_abandon(AdaptGear::Tatas), std::nullopt);
    const auto decision = policy.on_abandon(AdaptGear::Tatas);
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->to, AdaptGear::Queue);
    EXPECT_EQ(decision->reason, AdaptReason::TimeoutStorm);

    EXPECT_FALSE(policy.degraded());
    policy.on_switch(decision->to, decision->reason);
    EXPECT_TRUE(policy.degraded());
}

TEST(AdaptivePolicy, StormInQueueGearMarksDegradedWithoutSwitching)
{
    AdaptivePolicy policy(tiny_params());
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(policy.on_abandon(AdaptGear::Queue), std::nullopt);
    // Nothing to switch to, but promotion must now earn a quiet period.
    EXPECT_TRUE(policy.degraded());
}

TEST(AdaptivePolicy, RecoveryNeedsConsecutiveQuietEpochs)
{
    AdaptivePolicy policy(tiny_params());
    policy.on_switch(AdaptGear::Queue, AdaptReason::TimeoutStorm);
    ASSERT_TRUE(policy.degraded());

    // Quiet epoch #1: streak building, no decision yet (quiet_epochs = 2).
    EXPECT_EQ(feed_epoch(policy, AdaptGear::Queue, false, false),
              std::nullopt);
    // A loud epoch resets the streak...
    EXPECT_EQ(feed_epoch(policy, AdaptGear::Queue, true, false),
              std::nullopt);
    // ...so one more quiet epoch is still not enough...
    EXPECT_EQ(feed_epoch(policy, AdaptGear::Queue, false, false),
              std::nullopt);
    // ...but the second consecutive one promotes.
    const auto decision = feed_epoch(policy, AdaptGear::Queue, false, false);
    ASSERT_TRUE(decision.has_value());
    EXPECT_EQ(decision->to, AdaptGear::Tatas);
    EXPECT_EQ(decision->reason, AdaptReason::Recovery);

    policy.on_switch(decision->to, decision->reason);
    EXPECT_FALSE(policy.degraded());
}

TEST(AdaptivePolicy, NamesAreWireStable)
{
    EXPECT_STREQ(adapt_gear_name(AdaptGear::Tatas), "tatas");
    EXPECT_STREQ(adapt_gear_name(AdaptGear::Hbo), "hbo");
    EXPECT_STREQ(adapt_gear_name(AdaptGear::Queue), "queue");
    EXPECT_STREQ(adapt_reason_name(AdaptReason::Contention), "contention");
    EXPECT_STREQ(adapt_reason_name(AdaptReason::NucaTraffic), "nuca_traffic");
    EXPECT_STREQ(adapt_reason_name(AdaptReason::Quiet), "quiet");
    EXPECT_STREQ(adapt_reason_name(AdaptReason::TimeoutStorm),
                 "timeout_storm");
    EXPECT_STREQ(adapt_reason_name(AdaptReason::Recovery), "recovery");
}

// ------------------------------------------------- lock, on the sim ----

using nucalock::Placement;
using nucalock::Topology;
using sim::MemRef;
using sim::SimContext;
using sim::SimMachine;

/** Captures every probe record (sim backend installs it machine-wide). */
struct RecordingSink final : obs::ProbeSink
{
    std::vector<obs::ProbeRecord> records;
    void on_event(const obs::ProbeRecord& r) override { records.push_back(r); }
};

TEST(AdaptiveLockSim, StaysInTatasWhenUncontended)
{
    SimMachine machine(Topology::symmetric(2, 4));
    AdaptiveLock<SimContext> lock(machine);
    const MemRef counter = machine.alloc(0, 0);
    machine.add_thread(0, [&](SimContext& ctx) {
        for (int i = 0; i < 200; ++i) {
            lock.acquire(ctx);
            ctx.store(counter, ctx.load(counter) + 1);
            lock.release(ctx);
        }
        EXPECT_EQ(lock.current_gear(ctx), AdaptGear::Tatas);
    });
    machine.run();
    EXPECT_EQ(machine.memory().peek(counter), 200u);
    EXPECT_EQ(lock.policy().switches(), 0u);
}

TEST(AdaptiveLockSim, EscalatesOutOfTatasUnderContention)
{
    SimMachine machine(Topology::symmetric(2, 4));
    AdaptiveLock<SimContext> lock(machine);
    const MemRef counter = machine.alloc(0, 0);
    constexpr int kThreads = 8;
    constexpr int kIters = 150;
    machine.add_threads(kThreads, Placement::RoundRobinNodes,
                        [&](SimContext& ctx, int) {
                            for (int i = 0; i < kIters; ++i) {
                                lock.acquire(ctx);
                                const std::uint64_t v = ctx.load(counter);
                                // Long critical section: even the winning
                                // waiter must escalate through several
                                // backoff rounds, which is what the policy
                                // counts as contention (cheap one-round
                                // collisions deliberately do not).
                                ctx.delay(2'000);
                                ctx.store(counter, v + 1);
                                lock.release(ctx);
                                // Private work so the releaser cannot
                                // instantly re-take the free word: real
                                // handoffs are what reads as contention.
                                ctx.delay(1'000);
                            }
                        });
    machine.run();
    // Safety never wavered while the gears moved.
    EXPECT_EQ(machine.memory().peek(counter),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_GE(lock.policy().switches(), 1u);
}

TEST(AdaptiveLockSim, TimeoutStormDemotesToQueueGear)
{
    SimMachine machine(Topology::symmetric(2, 4));
    RecordingSink sink;
    machine.install_probe(&sink);
    AdaptiveLock<SimContext> lock(machine); // storm_abandons = 3 (default)
    const MemRef done = machine.alloc(0, 0);

    // Thread 0 camps on the lock while three waiters time out repeatedly:
    // graceful degradation must kick in with no live holder running policy.
    machine.add_threads(4, Placement::RoundRobinNodes,
                        [&](SimContext& ctx, int t) {
                            if (t == 0) {
                                lock.acquire(ctx);
                                ctx.delay(400'000); // outlast every timeout
                                lock.release(ctx);
                                ctx.store(done, 1);
                                return;
                            }
                            ctx.delay(1'000); // let the holder win the word
                            for (int i = 0; i < 3; ++i)
                                EXPECT_FALSE(
                                    lock.try_acquire_for(ctx, 10'000));
                            EXPECT_EQ(lock.current_gear(ctx),
                                      AdaptGear::Queue);
                            // Still usable in the degraded gear.
                            ctx.spin_while_equal(done, 0);
                            lock.acquire(ctx);
                            lock.release(ctx);
                        });
    machine.run();

    EXPECT_TRUE(lock.policy().degraded());
    EXPECT_GE(lock.abandon_stats().abandons, 3u);
    // The demotion was announced: exactly one AdaptSwitch to the queue
    // gear with reason TimeoutStorm (the gear CAS has a single winner).
    std::uint64_t storm_switches = 0;
    for (const obs::ProbeRecord& r : sink.records) {
        if (r.event != obs::LockEvent::AdaptSwitch)
            continue;
        EXPECT_EQ((r.a0 >> 8) & 0xff,
                  static_cast<std::uint64_t>(AdaptGear::Queue));
        EXPECT_EQ(r.a1, static_cast<std::uint64_t>(AdaptReason::TimeoutStorm));
        ++storm_switches;
    }
    EXPECT_EQ(storm_switches, 1u);
}

TEST(AdaptiveLockSim, RecoversFromDegradationAfterQuietPeriod)
{
    SimMachine machine(Topology::symmetric(2, 4));
    LockParams params;
    params.adaptive.epoch = 4;
    params.adaptive.spin_down = 1;
    params.adaptive.storm_abandons = 2;
    params.adaptive.quiet_epochs = 2;
    AdaptiveLock<SimContext> lock(machine, params);
    const MemRef done = machine.alloc(0, 0);

    machine.add_threads(2, Placement::RoundRobinNodes,
                        [&](SimContext& ctx, int t) {
                            if (t == 0) {
                                lock.acquire(ctx);
                                ctx.delay(200'000);
                                lock.release(ctx);
                                ctx.store(done, 1);
                                return;
                            }
                            ctx.delay(1'000);
                            for (int i = 0; i < 2; ++i)
                                EXPECT_FALSE(
                                    lock.try_acquire_for(ctx, 10'000));
                            EXPECT_EQ(lock.current_gear(ctx),
                                      AdaptGear::Queue);
                            EXPECT_TRUE(lock.policy().degraded());
                            // Quiet uncontended traffic: two clean epochs
                            // promote the lock back out of the queue gear.
                            ctx.spin_while_equal(done, 0);
                            for (int i = 0; i < 20; ++i) {
                                lock.acquire(ctx);
                                lock.release(ctx);
                            }
                            EXPECT_EQ(lock.current_gear(ctx),
                                      AdaptGear::Tatas);
                        });
    machine.run();
    EXPECT_FALSE(lock.policy().degraded());
    EXPECT_GE(lock.policy().switches(), 2u); // demote + recover
}

// -------------------------------------------------- metrics + report ----

using obs::LockEvent;
using obs::LockMetrics;
using obs::MetricsRegistry;
using obs::ProbeRecord;

ProbeRecord
rec(LockEvent event, std::uint64_t t, std::uint64_t lock_id, int thread,
    int cpu, int node, std::uint64_t a0 = 0, std::uint64_t a1 = 0)
{
    return ProbeRecord{event, t, lock_id, thread, cpu, node, a0, a1};
}

std::uint64_t
switch_payload(AdaptGear from, AdaptGear to)
{
    return static_cast<std::uint64_t>(from) |
           (static_cast<std::uint64_t>(to) << 8);
}

/** One lock's life: tatas 100 ns, hbo 200 ns, then a storm demotion 80 ns
 *  after the first abandonment. */
void
feed_adaptive_story(MetricsRegistry& reg, std::uint64_t lock_id)
{
    reg.on_event(rec(LockEvent::AcquireAttempt, 100, lock_id, 0, 0, 0));
    reg.on_event(rec(LockEvent::Acquired, 110, lock_id, 0, 0, 0));
    reg.on_event(rec(LockEvent::AdaptSwitch, 200, lock_id, 0, 0, 0,
                     switch_payload(AdaptGear::Tatas, AdaptGear::Hbo),
                     static_cast<std::uint64_t>(AdaptReason::NucaTraffic)));
    reg.on_event(rec(LockEvent::Released, 210, lock_id, 0, 0, 0));
    reg.on_event(rec(LockEvent::AbandonStart, 300, lock_id, 1, 4, 1));
    reg.on_event(rec(LockEvent::AbandonDone, 320, lock_id, 1, 4, 1,
                     static_cast<std::uint64_t>(obs::AbandonOutcome::Clean)));
    reg.on_event(rec(LockEvent::AdaptSwitch, 400, lock_id, 1, 4, 1,
                     switch_payload(AdaptGear::Hbo, AdaptGear::Queue),
                     static_cast<std::uint64_t>(AdaptReason::TimeoutStorm)));
    reg.finalize();
}

TEST(AdaptiveMetrics, FoldsSwitchesResidencyAndDemoteLatency)
{
    MetricsRegistry reg;
    const std::uint64_t L = 42;
    feed_adaptive_story(reg, L);

    const LockMetrics& m = reg.lock(L);
    EXPECT_TRUE(m.adapt_seen);
    EXPECT_EQ(m.adapt_switches, 2u);
    EXPECT_EQ(m.adapt_reasons[static_cast<int>(AdaptReason::NucaTraffic)], 1u);
    EXPECT_EQ(m.adapt_reasons[static_cast<int>(AdaptReason::TimeoutStorm)],
              1u);
    // First event at t=100: tatas until the switch at 200, hbo until the
    // switch at 400, queue for the (empty) tail.
    EXPECT_EQ(m.gear_residency_ns[static_cast<int>(AdaptGear::Tatas)], 100u);
    EXPECT_EQ(m.gear_residency_ns[static_cast<int>(AdaptGear::Hbo)], 200u);
    EXPECT_EQ(m.gear_residency_ns[static_cast<int>(AdaptGear::Queue)], 0u);
    // Demotion latency: first abandonment (320) -> storm switch (400).
    EXPECT_EQ(m.demote_latency_ns.count(), 1u);
    EXPECT_DOUBLE_EQ(m.demote_latency_ns.mean(), 80.0);
}

TEST(AdaptiveMetrics, NonAdaptiveLocksEmitNoGearState)
{
    MetricsRegistry reg;
    reg.on_event(rec(LockEvent::AcquireAttempt, 1, 7, 0, 0, 0));
    reg.on_event(rec(LockEvent::Acquired, 2, 7, 0, 0, 0));
    reg.on_event(rec(LockEvent::Released, 3, 7, 0, 0, 0));
    reg.finalize();
    EXPECT_FALSE(reg.lock(7).adapt_seen);
    EXPECT_EQ(reg.lock(7).adapt_switches, 0u);
}

TEST(AdaptiveReport, V4EmitsAndValidatesTheAdaptiveObject)
{
    MetricsRegistry adaptive_reg;
    feed_adaptive_story(adaptive_reg, 42);
    MetricsRegistry plain_reg;
    plain_reg.on_event(rec(LockEvent::AcquireAttempt, 1, 7, 0, 0, 0));
    plain_reg.on_event(rec(LockEvent::Acquired, 2, 7, 0, 0, 0));
    plain_reg.finalize();

    obs::ReportConfig config;
    config.tool = "nucabench";
    config.bench = "new";
    config.nodes = 2;
    config.cpus_per_node = 4;
    config.threads = 8;
    config.iterations = 5;
    config.seed = 1;

    std::ostringstream oss;
    obs::write_report(
        oss, config,
        {obs::ReportRun{"ADAPTIVE", harness::BenchResult{}, &adaptive_reg},
         obs::ReportRun{"TATAS", harness::BenchResult{}, &plain_reg}});

    std::string error;
    ASSERT_TRUE(obs::validate_report_text(oss.str(), &error)) << error;

    const auto parsed = obs::json_parse(oss.str());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed->find("schema_version")->number, 6.0);
    const obs::JsonValue* runs = parsed->find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->array.size(), 2u);

    // The ADAPTIVE run carries the gear telemetry...
    const obs::JsonValue* adaptive = runs->array[0].find("adaptive");
    ASSERT_NE(adaptive, nullptr);
    EXPECT_DOUBLE_EQ(adaptive->find("switches")->number, 2.0);
    const obs::JsonValue* reasons = adaptive->find("reasons");
    ASSERT_NE(reasons, nullptr);
    EXPECT_DOUBLE_EQ(reasons->find("nuca_traffic")->number, 1.0);
    EXPECT_DOUBLE_EQ(reasons->find("timeout_storm")->number, 1.0);
    EXPECT_DOUBLE_EQ(reasons->find("contention")->number, 0.0);
    const obs::JsonValue* residency = adaptive->find("gear_residency_ns");
    ASSERT_NE(residency, nullptr);
    EXPECT_DOUBLE_EQ(residency->find("tatas")->number, 100.0);
    EXPECT_DOUBLE_EQ(residency->find("hbo")->number, 200.0);
    EXPECT_DOUBLE_EQ(residency->find("queue")->number, 0.0);
    ASSERT_NE(adaptive->find("demote_latency_ns"), nullptr);

    // ...and a run that never switched gears has no "adaptive" key at all
    // (the object is optional, like "host").
    EXPECT_EQ(runs->array[1].find("adaptive"), nullptr);
}

// obs spells the gear and reason names itself (it cannot include locks);
// this is the link that keeps the report's keys equal to the policy's.
TEST(AdaptiveReport, ObsNamesAreThePolicyNames)
{
    ASSERT_EQ(obs::kAdaptGearNames.size(),
              static_cast<std::size_t>(kAdaptGearCount));
    for (int g = 0; g < kAdaptGearCount; ++g)
        EXPECT_STREQ(obs::kAdaptGearNames[static_cast<std::size_t>(g)],
                     adapt_gear_name(static_cast<AdaptGear>(g)));
    ASSERT_EQ(obs::kAdaptReasonNames.size(),
              static_cast<std::size_t>(kAdaptReasonCount));
    for (int r = 0; r < kAdaptReasonCount; ++r)
        EXPECT_STREQ(obs::kAdaptReasonNames[static_cast<std::size_t>(r)],
                     adapt_reason_name(static_cast<AdaptReason>(r)));
}

TEST(AdaptiveReport, ValidatorRejectsCorruptAdaptiveObject)
{
    MetricsRegistry reg;
    feed_adaptive_story(reg, 42);
    obs::ReportConfig config;
    config.tool = "nucabench";
    config.bench = "new";
    std::ostringstream oss;
    obs::write_report(oss, config,
                      {obs::ReportRun{"ADAPTIVE", harness::BenchResult{},
                                      &reg}});
    std::string text = oss.str();
    std::string error;
    ASSERT_TRUE(obs::validate_report_text(text, &error)) << error;

    // Break a required reason bucket.
    std::string bad = text;
    bad.replace(bad.find("timeout_storm"), 13, "timeout_swarm");
    EXPECT_FALSE(obs::validate_report_text(bad, &error));

    // Break a residency key.
    bad = text;
    bad.replace(bad.find("gear_residency_ns"), 17, "gear_residenceens");
    EXPECT_FALSE(obs::validate_report_text(bad, &error));
}

} // namespace
