#include "harness/traditional.hpp"

#include "common/logging.hpp"

namespace nucalock::harness {

using locks::AnyLock;
using locks::LockKind;
using sim::MemRef;
using sim::SimContext;

namespace {
/** `owner` value before anyone has held the lock (thread ids are id+1). */
constexpr std::uint64_t kNobody = 0;
} // namespace

BenchResult
run_traditional(LockKind kind, const TraditionalConfig& config)
{
    SimRun run(config);
    AnyLock<SimContext> lock(run.machine(), kind, config.params);

    // Shared benchmark state. `owner` and `active` live in simulated memory
    // because observing them is part of the benchmark.
    const MemRef owner = run.machine().alloc(kNobody, 0);
    const MemRef active =
        run.machine().alloc(static_cast<std::uint64_t>(config.threads), 0);

    run.add_threads([&](SimContext& ctx, int) {
        const auto me = static_cast<std::uint64_t>(ctx.thread_id()) + 1;
        for (std::uint32_t i = 0; i < config.iterations_per_thread; ++i) {
            // Wait to observe a new owner (unless we are the last thread
            // still running).
            while (ctx.load(owner) == me && ctx.load(active) > 1)
                ctx.delay(32);

            lock.acquire(ctx);
            run.enter(ctx);
            ctx.store(owner, me);
            ctx.cs_exit();
            lock.release(ctx);
        }
        // Retire from the benchmark.
        while (true) {
            const std::uint64_t a = ctx.load(active);
            if (ctx.cas(active, a, a - 1) == a)
                break;
        }
    });
    const BenchResult result = run.finish();
    NUCA_ASSERT(result.total_acquires ==
                static_cast<std::uint64_t>(config.threads) *
                    config.iterations_per_thread);
    NUCA_ASSERT(result.total_acquires == run.checker().acquisitions(),
                "checker disagrees with the workload count");
    return result;
}

} // namespace nucalock::harness
