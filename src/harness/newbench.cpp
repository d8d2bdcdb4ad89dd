#include "harness/newbench.hpp"

#include "common/logging.hpp"

namespace nucalock::harness {

using locks::AnyLock;
using locks::LockKind;
using sim::MemRef;
using sim::SimContext;

namespace {
/** Ints per simulated line: 64-byte lines of 4-byte ints. */
constexpr std::uint32_t kIntsPerLine = 16;
} // namespace

BenchResult
run_newbench(LockKind kind, const NewBenchConfig& config)
{
    SimRun run(config);
    AnyLock<SimContext> lock(run.machine(), kind, config.params);

    // The shared vector the critical section walks (Fig 4's cs_work[]),
    // one simulated line per kIntsPerLine ints, homed in node 0.
    const std::uint32_t cs_lines =
        (config.critical_work + kIntsPerLine - 1) / kIntsPerLine;
    const MemRef cs_work =
        run.machine().alloc_array(cs_lines == 0 ? 1 : cs_lines, 0, 0);

    // Host-side count of bounded waits that timed out (no simulated
    // traffic; the engine runs one simulated thread at a time).
    std::uint64_t timeouts = 0;

    // A plan with thread death can abandon a held lock; survivors then use
    // bounded waits and stop iterating on a timeout so the run terminates.
    const bool deaths = config.fault_plan.has_death();

    run.add_threads([&](SimContext& ctx, int) {
        // Random start stagger: real threads never arrive in lockstep.
        // Without it the FIFO queue locks inherit the round-robin
        // placement order forever and show a node-handoff ratio of 1.0
        // instead of the expected ~(N/2)/(N-1).
        ctx.delay(ctx.rng().next_below(2 * config.private_work + 1));
        for (std::uint32_t i = 0; i < config.iterations_per_thread; ++i) {
            ctx.cs_wait_begin();
            if (deaths) {
                if (!lock.acquire_for(ctx, config.recovery_timeout_ns)) {
                    ctx.cs_wait_abort();
                    ++timeouts;
                    break;
                }
            } else {
                lock.acquire(ctx);
            }
            run.enter(ctx);
            if (cs_lines > 0)
                ctx.touch_array(cs_work, cs_lines, /*write=*/true);
            ctx.cs_exit();
            lock.release(ctx);

            // Noncritical work: one static and one random delay of
            // similar size (Fig 4 lines 9-17).
            ctx.delay(config.private_work);
            if (config.private_work > 0)
                ctx.delay(ctx.rng().next_below(config.private_work));
        }
    });
    BenchResult result = run.finish();
    result.lock_timeouts = timeouts;

    const auto expected = static_cast<std::uint64_t>(config.threads) *
                          config.iterations_per_thread;
    // Injected deaths/timeouts legitimately lose iterations; everything
    // else must still complete the exact count.
    if (deaths)
        NUCA_ASSERT(result.total_acquires <= expected);
    else
        NUCA_ASSERT(result.total_acquires == expected);
    NUCA_ASSERT(result.total_acquires == run.checker().acquisitions(),
                "checker disagrees with the workload count");
    return result;
}

} // namespace nucalock::harness
