/**
 * @file
 * Structural model of SPLASH-2 Raytrace (the paper's section 5.4 deep
 * dive): per-thread task queues with work stealing, each task doing a large
 * chunk of compute and then updating global statistics counters behind a
 * small set of hot locks. This is what makes Raytrace the one application
 * whose lock behaviour dominates runtime — and what the NUCA-aware locks
 * fix (paper Table 4, Fig 7).
 */
#ifndef NUCALOCK_APPS_RAYTRACE_HPP
#define NUCALOCK_APPS_RAYTRACE_HPP

#include <cstdint>

#include "harness/sim_run.hpp"
#include "locks/any_lock.hpp"
#include "sim/traffic.hpp"

namespace nucalock::apps {

/** Result of one simulated application run. */
struct AppOutcome
{
    sim::SimTime time = 0;
    sim::TrafficStats traffic;
    std::uint64_t lock_calls = 0;
};

struct RaytraceConfig : harness::SimRunConfig
{
    /** Total ray tasks across all threads. */
    std::uint32_t total_tasks = 9000;
    /** Compute per task, in delay iterations (+/-50% jitter). */
    std::uint32_t task_work_iters = 12'000;
};

/** Run the Raytrace model once with @p kind for every lock in the app. */
AppOutcome run_raytrace_once(locks::LockKind kind, const RaytraceConfig& config);

} // namespace nucalock::apps

#endif // NUCALOCK_APPS_RAYTRACE_HPP
