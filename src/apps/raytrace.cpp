#include "apps/raytrace.hpp"

#include <memory>
#include <vector>

#include "common/logging.hpp"

namespace nucalock::apps {

using locks::AnyLock;
using locks::LockKind;
using sim::MemRef;
using sim::SimContext;

namespace {
/** Hot statistics locks (paper: "some global variables"). */
constexpr int kStatsLocks = 2;
/** Ints modified per statistics update. */
constexpr std::uint32_t kStatsInts = 64;
} // namespace

AppOutcome
run_raytrace_once(LockKind kind, const RaytraceConfig& config)
{
    NUCA_ASSERT(config.threads > 0);

    harness::SimRun run(config);
    sim::SimMachine& machine = run.machine();
    const int nodes = config.topology.num_nodes();
    const int threads = config.threads;

    // One task queue per thread (lock + host-side task count guarded by
    // it), homed in the node of the thread's cpu, plus the hot statistics
    // locks and their shared counters.
    std::vector<std::unique_ptr<AnyLock<SimContext>>> queue_locks;
    std::vector<std::uint32_t> queue_tasks(static_cast<std::size_t>(threads), 0);
    const std::vector<int> cpus = map_threads(config.topology, threads,
                                              config.placement);
    for (int t = 0; t < threads; ++t) {
        const int home = config.topology.node_of_cpu(cpus[static_cast<std::size_t>(t)]);
        queue_locks.push_back(std::make_unique<AnyLock<SimContext>>(
            machine, kind, config.params, home));
    }
    for (std::uint32_t task = 0; task < config.total_tasks; ++task)
        ++queue_tasks[task % static_cast<std::uint32_t>(threads)];

    std::vector<std::unique_ptr<AnyLock<SimContext>>> stats_locks;
    std::vector<MemRef> stats_data;
    const std::uint32_t stats_lines = kStatsInts / 16 + 1;
    for (int s = 0; s < kStatsLocks; ++s) {
        stats_locks.push_back(std::make_unique<AnyLock<SimContext>>(
            machine, kind, config.params, s % nodes));
        stats_data.push_back(machine.alloc_array(stats_lines, 0, s % nodes));
    }

    std::uint64_t lock_calls = 0; // guarded by whichever lock is held

    run.add_threads([&](SimContext& ctx, int t) {
        std::uint64_t executed = 0;
        while (true) {
            // Pop from our own queue, else steal one task.
            bool got = false;
            for (int probe = 0; probe < threads && !got; ++probe) {
                const auto victim =
                    static_cast<std::size_t>((t + probe) % threads);
                // Cheap host-side peek avoids hammering empty queues; the
                // check is re-done under the lock.
                if (queue_tasks[victim] == 0)
                    continue;
                queue_locks[victim]->acquire(ctx);
                ++lock_calls;
                if (queue_tasks[victim] > 0) {
                    --queue_tasks[victim];
                    got = true;
                }
                queue_locks[victim]->release(ctx);
            }
            if (!got)
                return; // no work anywhere: ray tracing finished

            // Trace rays: the big compute chunk.
            const std::uint64_t w = config.task_work_iters;
            ctx.delay(w / 2 + ctx.rng().next_below(w));

            // Update the global statistics counters (the hot locks).
            const auto s = static_cast<std::size_t>(
                executed++ % static_cast<std::uint64_t>(kStatsLocks));
            stats_locks[s]->acquire(ctx);
            ++lock_calls;
            ctx.touch_array(stats_data[s], stats_lines, /*write=*/true);
            stats_locks[s]->release(ctx);
        }
    });
    const harness::BenchResult result = run.finish();
    return AppOutcome{result.total_time, result.traffic, lock_calls};
}

} // namespace nucalock::apps
