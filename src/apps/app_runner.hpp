/**
 * @file
 * Generic application-model runner (paper section 5.4, Tables 3-6 and
 * Figs 6-7): executes an AppWorkload descriptor on the simulated machine
 * with a chosen lock algorithm, and aggregates repeated runs into the
 * mean/variance form the paper reports.
 */
#ifndef NUCALOCK_APPS_APP_RUNNER_HPP
#define NUCALOCK_APPS_APP_RUNNER_HPP

#include <cstdint>

#include "apps/raytrace.hpp"
#include "apps/workload.hpp"
#include "harness/sim_run.hpp"
#include "locks/any_lock.hpp"

namespace nucalock::apps {

struct AppRunConfig : harness::SimRunConfig
{
    /** Fraction of the paper's Table 3 lock-call volume to execute. */
    double call_scale = 0.05;
};

/** Mean/variance aggregate over repeated seeded runs (paper table format). */
struct AppAggregate
{
    double mean_time_s = 0.0;
    double time_variance = 0.0;
    double mean_local_tx = 0.0;
    double mean_global_tx = 0.0;
    std::uint64_t lock_calls = 0;
};

/** One run of @p app under @p kind. */
AppOutcome run_app_once(const AppWorkload& app, locks::LockKind kind,
                        const AppRunConfig& config);

/** @p runs seeded runs aggregated into mean and variance. */
AppAggregate run_app(const AppWorkload& app, locks::LockKind kind,
                     const AppRunConfig& config, int runs);

} // namespace nucalock::apps

#endif // NUCALOCK_APPS_APP_RUNNER_HPP
