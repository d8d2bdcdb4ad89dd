/**
 * @file
 * The paper's "new microbenchmark" (section 5.3, Fig 4/5, Table 2): a fixed
 * number of threads alternating between noncritical private work (a static
 * delay plus a random delay of similar size) and a critical section that
 * modifies `critical_work` elements of a shared vector. Contention is
 * raised by growing the critical work, exactly as in the paper.
 */
#ifndef NUCALOCK_HARNESS_NEWBENCH_HPP
#define NUCALOCK_HARNESS_NEWBENCH_HPP

#include <cstdint>

#include "harness/results.hpp"
#include "harness/sim_run.hpp"
#include "locks/any_lock.hpp"

namespace nucalock::harness {

struct NewBenchConfig : SimRunConfig
{
    std::uint32_t iterations_per_thread = 60;
    /** Shared-vector elements (4-byte ints) modified in the CS. */
    std::uint32_t critical_work = 1500;
    /** Static noncritical delay, in empty loop iterations; a random delay
     *  in [0, private_work) is added on top (Fig 4 lines 12-17). */
    std::uint32_t private_work = 4000;
    /**
     * Bounded-wait timeout survivors use when the plan kills threads; a
     * thread whose acquire_for() times out stops iterating (the lock was
     * abandoned), keeping the run terminating instead of deadlocking.
     */
    sim::SimTime recovery_timeout_ns = 20'000'000;
};

/** Run the new microbenchmark for @p kind. */
BenchResult run_newbench(locks::LockKind kind, const NewBenchConfig& config);

} // namespace nucalock::harness

#endif // NUCALOCK_HARNESS_NEWBENCH_HPP
