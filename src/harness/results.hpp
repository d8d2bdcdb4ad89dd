/**
 * @file
 * Result records shared by the microbenchmark harness.
 */
#ifndef NUCALOCK_HARNESS_RESULTS_HPP
#define NUCALOCK_HARNESS_RESULTS_HPP

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/resource.hpp"
#include "sim/time.hpp"
#include "sim/traffic.hpp"

namespace nucalock::harness {

/** Outcome of one contended-lock benchmark run. */
struct BenchResult
{
    /** Simulated wall time of the whole run. */
    sim::SimTime total_time = 0;
    /** Total critical-section entries across all threads. */
    std::uint64_t total_acquires = 0;
    /** total_time / total_acquires. */
    double avg_iteration_ns = 0.0;
    /** Fraction of acquisitions whose previous holder was in another node. */
    double node_handoff_ratio = 0.0;
    /** Coherence traffic generated during the run. */
    sim::TrafficStats traffic;
    /**
     * Who generated the traffic: per-lock/per-phase and per-node tables
     * (sim/traffic.hpp). The per-lock rows come from probe-set op-contexts,
     * so they are empty under -DNUCALOCK_NO_PROBES; the per-node rows and
     * the totals above never vanish.
     */
    sim::TrafficAttribution traffic_attribution;
    /**
     * Where the traffic queued: per-resource occupancy, queue-delay
     * histograms and (when NewBenchConfig/TraditionalConfig::
     * contention_bin_ns is set) time-binned utilisation series.
     */
    sim::ContentionStats contention;
    /** Per-thread completion times (fairness study). */
    std::vector<sim::SimTime> finish_times;
    /** (last - first finisher) / last, in percent (paper's Fig. 8 metric). */
    double fairness_spread_pct = 0.0;
    /**
     * FNV-1a hash of the global acquisition order (the sequence of thread
     * ids entering the critical section). Computed by the harness itself —
     * never by probes — so it is a probe-independent fingerprint: for a
     * given seed it must be bit-identical with observability on or off
     * (pinned by tests/obs_test.cpp).
     */
    std::uint64_t acquisition_order_hash = 0;

    // ----- engine-side run cost (host-independent simulator counters) -----

    /** Simulated memory operations the engine executed for this run. */
    std::uint64_t sim_memory_accesses = 0;
    /**
     * Scheduling picks the engine made for this run
     * (SimMachine::fiber_switches). A pick that lets the thread which just
     * blocked run ahead on its own stack counts too, so this is not the
     * number of host stack switches; rates derived from it are picks per
     * second.
     */
    std::uint64_t sim_fiber_switches = 0;
    /**
     * The picks among sim_fiber_switches, lazy ones excluded, that let the
     * thread which just blocked run ahead with no stack switch
     * (SimMachine::run_ahead_picks). Not written into the JSON report.
     */
    std::uint64_t sim_run_ahead_picks = 0;
    /**
     * The picks among sim_fiber_switches that parked backoff polls
     * skipped (SimMachine::lazy_picks). Not written into the JSON report.
     */
    std::uint64_t sim_lazy_picks = 0;
    /**
     * The picks among sim_fiber_switches that replayed critical-section
     * walk lines skipped (SimMachine::replayed_picks). Not written into
     * the JSON report.
     */
    std::uint64_t sim_replayed_picks = 0;
    /**
     * Host wall-clock nanoseconds spent inside SimMachine::run() alone —
     * the event-processing loop, excluding machine construction, fiber
     * and stack allocation, and result extraction. The only host-varying
     * field in this struct; the throughput bench reads it so its
     * events/sec compares per-event cost across shapes rather than how
     * long it takes to allocate a 1024-thread machine. Never serialized
     * into deterministic reports.
     */
    double host_run_ns = 0.0;

    // ----- robustness subsystem (zero unless a fault plan ran) ------------

    /** Faults actually applied by the injector. */
    std::uint64_t faults_injected = 0;
    /** One line per applied fault (byte-identical across same-seed runs). */
    std::string fault_log;
    /** Mutual-exclusion violations observed by the invariant checker. */
    std::uint64_t mutex_violations = 0;
    /** Worst "other threads entered while I waited" count over the run. */
    std::uint64_t max_bypasses = 0;
    /** Longest same-node handover streak while a remote thread waited. */
    std::uint64_t max_node_streak = 0;
    /** Bounded-wait acquisitions that timed out (lock abandonment). */
    std::uint64_t lock_timeouts = 0;

    // ----- memory trace (zero unless a TraceRecorder was attached) --------

    /** Trace events actually recorded (TraceRecorder::events().size()). */
    std::uint64_t memtrace_events = 0;
    /** Trace events dropped by the recorder's set_max_events cap. */
    std::uint64_t memtrace_dropped = 0;
};

/** The paper's fairness metric over a set of finish times. */
inline double
fairness_spread_pct(const std::vector<sim::SimTime>& finish_times)
{
    if (finish_times.size() < 2)
        return 0.0;
    const auto [lo, hi] =
        std::minmax_element(finish_times.begin(), finish_times.end());
    if (*hi == 0)
        return 0.0;
    return 100.0 * static_cast<double>(*hi - *lo) / static_cast<double>(*hi);
}

} // namespace nucalock::harness

#endif // NUCALOCK_HARNESS_RESULTS_HPP
