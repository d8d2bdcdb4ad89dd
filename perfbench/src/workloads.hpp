/**
 * @file
 * The four workloads and the isolated layer probes of the repository
 * benchmark. Each workload runs closed-loop repetitions of a fixed unit of
 * work until its time budget is spent and fills a Report:
 *
 *  - end_to_end: every end-to-end metric (README.md says what each means
 *    on each workload);
 *  - per_layer: the layer metrics this workload owns, plus its exact counts;
 *  - attempted / failed: units of work run and units whose checks failed.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/** Host-time costs of isolated layer calls, from run_probes(). */
struct LayerCosts
{
    double switch_ns_t28 = 0.0;
    double switch_ns_t1024 = 0.0;
    double rq_update_ns_t28 = 0.0;
    double rq_update_ns_t1024 = 0.0;
    double access_ns = 0.0; ///< mean over the unattributed access classes
    double invariants_ns = 0.0;
};

/** Exact simulator counts of one repetition (identical every repetition). */
struct SimCounts
{
    std::uint64_t events = 0;
    std::uint64_t switches = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t hash = 0;
};

/** Result of one workload invocation. */
struct WorkloadRun
{
    Report report;
    /** The reported wall_s, in ns: the median repetition's time on CPU
     *  clocks (the busiest host thread's). */
    double wall_ns = 0.0;
    /** Set for simulator workloads: exact counts and the median over
     *  repetitions of Σ run CPU time (the denominator of the modelled
     *  shares). */
    bool simulated = false;
    SimCounts counts;
    double host_run_ns = 0.0;
    /** Threads per simulated machine (28 or 1024): picks the probe costs. */
    int sim_threads = 28;
};

WorkloadRun run_fig5_sweep(const Options& opts, double seconds,
                           Tracer& tracer);
WorkloadRun run_scale_1024(const Options& opts, double seconds,
                           Tracer& tracer);
WorkloadRun run_kv_service(const Options& opts, double seconds,
                           Tracer& tracer);
WorkloadRun run_native_locks(const Options& opts, double seconds,
                             Tracer& tracer);

/** Run every isolated layer probe, appending per-layer metrics (and
 *  spans) to @p report; returns the costs the modelled shares use. */
LayerCosts run_probes(const Options& opts, Report& report, Tracer& tracer);

/** sim.share.* from isolated costs x exact counts / Σ host_run_ns. */
void add_shares(const WorkloadRun& run, const LayerCosts& costs,
                Report& report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
