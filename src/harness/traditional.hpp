/**
 * @file
 * The traditional contended-lock microbenchmark (paper section 5.2, Fig 3):
 * a tight acquire-release loop where each thread must observe a new owner
 * before contending again (the last remaining thread is exempt so the run
 * terminates).
 */
#ifndef NUCALOCK_HARNESS_TRADITIONAL_HPP
#define NUCALOCK_HARNESS_TRADITIONAL_HPP

#include <cstdint>

#include "harness/results.hpp"
#include "harness/sim_run.hpp"
#include "locks/any_lock.hpp"

namespace nucalock::harness {

struct TraditionalConfig : SimRunConfig
{
    std::uint32_t iterations_per_thread = 200;
};

/** Run the traditional microbenchmark for @p kind. */
BenchResult run_traditional(locks::LockKind kind, const TraditionalConfig& config);

} // namespace nucalock::harness

#endif // NUCALOCK_HARNESS_TRADITIONAL_HPP
