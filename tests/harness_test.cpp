/**
 * @file
 * Integration tests for the microbenchmark harness: result consistency,
 * latency ordering, determinism, and the sensitivity sweeps.
 */
#include <gtest/gtest.h>

#include <string>

#include "harness/fairness.hpp"
#include "harness/newbench.hpp"
#include "harness/sensitivity.hpp"
#include "harness/traditional.hpp"
#include "harness/uncontested.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::harness;
using namespace nucalock::locks;

UncontestedConfig
small_uncontested()
{
    UncontestedConfig config;
    config.iterations = 100;
    return config;
}

TEST(Uncontested, LatencyClassesAreOrdered)
{
    for (LockKind kind : {LockKind::Tatas, LockKind::Hbo, LockKind::Mcs}) {
        const UncontestedResult r = run_uncontested(kind, small_uncontested());
        EXPECT_LT(r.same_processor_ns, r.same_node_ns) << lock_name(kind);
        EXPECT_LT(r.same_node_ns, r.remote_node_ns) << lock_name(kind);
    }
}

TEST(Uncontested, HboAddsLittleOverheadOverTatas)
{
    const UncontestedResult tatas =
        run_uncontested(LockKind::Tatas, small_uncontested());
    const UncontestedResult hbo =
        run_uncontested(LockKind::Hbo, small_uncontested());
    // Paper Table 1: HBO within a few percent of TATAS in all scenarios.
    EXPECT_LT(hbo.same_processor_ns, tatas.same_processor_ns * 1.2);
    EXPECT_LT(hbo.remote_node_ns, tatas.remote_node_ns * 1.2);
}

TEST(Uncontested, RhRemoteHandoverIsExpensive)
{
    const UncontestedResult rh =
        run_uncontested(LockKind::Rh, small_uncontested());
    const UncontestedResult hbo =
        run_uncontested(LockKind::Hbo, small_uncontested());
    // Paper Table 1: RH's remote handover is about twice HBO's.
    EXPECT_GT(rh.remote_node_ns, hbo.remote_node_ns * 1.5);
}

TEST(Uncontested, SingleNodeTopologySkipsRemote)
{
    UncontestedConfig config = small_uncontested();
    config.topology = Topology::e6000();
    const UncontestedResult r = run_uncontested(LockKind::Tatas, config);
    EXPECT_GT(r.same_processor_ns, 0.0);
    EXPECT_DOUBLE_EQ(r.remote_node_ns, 0.0);
}

TraditionalConfig
small_traditional(LockKind = LockKind::Tatas)
{
    TraditionalConfig config;
    config.threads = 8;
    config.topology = Topology::wildfire(4);
    config.iterations_per_thread = 50;
    return config;
}

TEST(Traditional, AccountingIsExact)
{
    const BenchResult r = run_traditional(LockKind::Clh, small_traditional());
    EXPECT_EQ(r.total_acquires, 8u * 50u);
    EXPECT_EQ(r.finish_times.size(), 8u);
    EXPECT_GT(r.total_time, 0u);
    EXPECT_NEAR(r.avg_iteration_ns,
                static_cast<double>(r.total_time) / 400.0, 1e-6);
    EXPECT_GE(r.node_handoff_ratio, 0.0);
    EXPECT_LE(r.node_handoff_ratio, 1.0);
    EXPECT_GT(r.traffic.total(), 0u);
}

TEST(Traditional, Deterministic)
{
    const BenchResult a = run_traditional(LockKind::HboGt, small_traditional());
    const BenchResult b = run_traditional(LockKind::HboGt, small_traditional());
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.traffic.global_tx, b.traffic.global_tx);
}

NewBenchConfig
small_newbench()
{
    NewBenchConfig config;
    config.threads = 8;
    config.topology = Topology::wildfire(4);
    config.iterations_per_thread = 20;
    config.critical_work = 500;
    return config;
}

TEST(NewBench, AccountingIsExact)
{
    const BenchResult r = run_newbench(LockKind::HboGtSd, small_newbench());
    EXPECT_EQ(r.total_acquires, 8u * 20u);
    EXPECT_EQ(r.finish_times.size(), 8u);
    EXPECT_GE(r.fairness_spread_pct, 0.0);
    EXPECT_LE(r.fairness_spread_pct, 100.0);
}

TEST(NewBench, ZeroCriticalWorkRuns)
{
    NewBenchConfig config = small_newbench();
    config.critical_work = 0;
    const BenchResult r = run_newbench(LockKind::Tatas, config);
    EXPECT_EQ(r.total_acquires, 160u);
}

TEST(NewBench, MoreCriticalWorkTakesLonger)
{
    NewBenchConfig lo = small_newbench();
    lo.critical_work = 100;
    NewBenchConfig hi = small_newbench();
    hi.critical_work = 2000;
    EXPECT_GT(run_newbench(LockKind::Clh, hi).total_time,
              run_newbench(LockKind::Clh, lo).total_time);
}

TEST(NewBench, NucaLockBeatsQueueLockUnderContention)
{
    // The paper's headline: at high critical work the NUCA-aware lock
    // finishes the same workload in roughly half the time of a queue lock.
    NewBenchConfig config = small_newbench();
    config.threads = 8;
    config.critical_work = 1500;
    config.iterations_per_thread = 30;
    const auto hbo_gt = run_newbench(LockKind::HboGt, config).total_time;
    const auto clh = run_newbench(LockKind::Clh, config).total_time;
    EXPECT_LT(static_cast<double>(hbo_gt), 0.75 * static_cast<double>(clh));
}

TEST(NewBench, NucaLockCutsGlobalTraffic)
{
    NewBenchConfig config = small_newbench();
    config.critical_work = 1500;
    const auto hbo = run_newbench(LockKind::HboGt, config).traffic.global_tx;
    const auto exp = run_newbench(LockKind::TatasExp, config).traffic.global_tx;
    EXPECT_LT(hbo, exp / 2);
}

TEST(NewBench, PreemptionStretchesQueueLockRuns)
{
    NewBenchConfig config = small_newbench();
    config.iterations_per_thread = 15;
    const auto mcs_clean = run_newbench(LockKind::Mcs, config).total_time;
    config.preemption = true;
    config.preempt_mean_interval = 300'000;
    config.preempt_duration = 150'000;
    const auto mcs_noisy = run_newbench(LockKind::Mcs, config).total_time;
    EXPECT_GT(mcs_noisy, mcs_clean);
}

TEST(Fairness, QueueLocksAreFairest)
{
    NewBenchConfig config = small_newbench();
    config.critical_work = 1500;
    config.iterations_per_thread = 30;
    const double clh = run_fairness(LockKind::Clh, config).spread_pct;
    const double hbo = run_fairness(LockKind::Hbo, config).spread_pct;
    EXPECT_LT(clh, 20.0);
    EXPECT_LT(clh, hbo);
}

TEST(Fairness, StarvationDetectionImprovesSpread)
{
    NewBenchConfig config = small_newbench();
    config.critical_work = 1500;
    config.iterations_per_thread = 30;
    const double gt = run_fairness(LockKind::HboGt, config).spread_pct;
    const double sd = run_fairness(LockKind::HboGtSd, config).spread_pct;
    EXPECT_LT(sd, gt);
}

TEST(Sensitivity, BackoffSweepShapes)
{
    NewBenchConfig config = small_newbench();
    config.iterations_per_thread = 10;
    const auto points = sweep_remote_backoff_cap(config, {1024, 8192, 65536});
    ASSERT_EQ(points.size(), 3u);
    for (const auto& p : points) {
        EXPECT_GT(p.normalized_time, 0.0);
        EXPECT_LT(p.normalized_time, 10.0);
    }
    EXPECT_EQ(points[0].value, 1024u);
}

TEST(Sensitivity, AngryLimitConvergesToHboGt)
{
    NewBenchConfig config = small_newbench();
    config.critical_work = 1000;
    config.iterations_per_thread = 15;
    const auto points = sweep_get_angry_limit(config, {1u << 30});
    ASSERT_EQ(points.size(), 1u);
    // With an unreachable limit, SD degenerates to GT exactly.
    EXPECT_EQ(points[0].normalized_time, 1.0);

    // Bit for bit, at Fig 5's critical-work levels: same order hash, time,
    // traffic, memory operations and scheduling picks.
    for (const Topology& shape :
         {Topology::symmetric(2, 4), Topology::symmetric(2, 14)}) {
        for (std::uint32_t cw : {0u, 500u, 1500u, 2500u}) {
            NewBenchConfig limitless;
            limitless.topology = shape;
            limitless.threads = shape.num_cpus();
            limitless.iterations_per_thread = 8;
            limitless.critical_work = cw;
            limitless.params.get_angry_limit = 1u << 30;
            const std::string name = std::to_string(shape.num_cpus()) +
                                     " cpus, cw " + std::to_string(cw);
            const BenchResult gt = run_newbench(LockKind::HboGt, limitless);
            const BenchResult sd = run_newbench(LockKind::HboGtSd, limitless);
            EXPECT_EQ(sd.acquisition_order_hash, gt.acquisition_order_hash)
                << name;
            EXPECT_EQ(sd.total_time, gt.total_time) << name;
            EXPECT_EQ(sd.traffic.local_tx, gt.traffic.local_tx) << name;
            EXPECT_EQ(sd.traffic.global_tx, gt.traffic.global_tx) << name;
            EXPECT_EQ(sd.sim_memory_accesses, gt.sim_memory_accesses) << name;
            EXPECT_EQ(sd.sim_fiber_switches, gt.sim_fiber_switches) << name;
        }
    }
}

TEST(FairnessSpreadMetric, Formula)
{
    EXPECT_DOUBLE_EQ(fairness_spread_pct({100, 100}), 0.0);
    EXPECT_DOUBLE_EQ(fairness_spread_pct({50, 100}), 50.0);
    EXPECT_DOUBLE_EQ(fairness_spread_pct({}), 0.0);
    EXPECT_DOUBLE_EQ(fairness_spread_pct({7}), 0.0);
}

} // namespace
