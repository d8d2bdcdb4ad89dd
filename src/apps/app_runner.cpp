#include "apps/app_runner.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/logging.hpp"
#include "harness/barrier.hpp"
#include "stats/summary.hpp"

namespace nucalock::apps {

using locks::AnyLock;
using locks::LockKind;
using sim::MemRef;
using sim::SimContext;

namespace {

AppOutcome
run_generic_once(const AppWorkload& app, LockKind kind, const AppRunConfig& config)
{
    harness::SimRun run(config);
    sim::SimMachine& machine = run.machine();
    const int nodes = config.topology.num_nodes();
    const int threads = config.threads;

    // The application's lock population, each guarding its own shared data,
    // homes distributed round-robin across nodes.
    const auto total_locks = static_cast<std::size_t>(app.total_locks);
    const std::uint32_t cs_lines = app.cs_ints / 16 + 1;
    std::vector<std::unique_ptr<AnyLock<SimContext>>> app_locks;
    std::vector<MemRef> lock_data;
    app_locks.reserve(total_locks);
    lock_data.reserve(total_locks);
    for (std::size_t l = 0; l < total_locks; ++l) {
        const int home = static_cast<int>(l) % nodes;
        app_locks.push_back(std::make_unique<AnyLock<SimContext>>(
            machine, kind, config.params, home));
        lock_data.push_back(machine.alloc_array(cs_lines, 0, home));
    }

    const ZipfSampler zipf(total_locks, app.zipf_skew);
    harness::SenseBarrier<SimContext> barrier(machine, threads);

    const auto scaled_calls = static_cast<std::uint64_t>(
        static_cast<double>(app.lock_calls) * config.call_scale);
    const std::uint64_t calls_per_thread =
        std::max<std::uint64_t>(1, scaled_calls / static_cast<std::uint64_t>(threads));
    const int phases = std::max(1, app.phases);
    const std::uint64_t calls_per_phase =
        std::max<std::uint64_t>(1, calls_per_thread / static_cast<std::uint64_t>(phases));

    std::uint64_t lock_calls = 0; // guarded by whichever lock is held

    run.add_threads([&](SimContext& ctx, int) {
        bool sense = false;
        for (int phase = 0; phase < phases; ++phase) {
            for (std::uint64_t c = 0; c < calls_per_phase; ++c) {
                // Noncritical compute: static plus random part.
                const std::uint64_t w = app.noncs_iters;
                ctx.delay(w / 2 + ctx.rng().next_below(w + 1));

                const std::size_t l = zipf.sample(ctx.rng());
                app_locks[l]->acquire(ctx);
                ++lock_calls;
                ctx.touch_array(lock_data[l], cs_lines, /*write=*/true);
                app_locks[l]->release(ctx);
            }
            barrier.wait(ctx, &sense);
        }
    });
    const harness::BenchResult result = run.finish();
    return AppOutcome{result.total_time, result.traffic, lock_calls};
}

} // namespace

AppOutcome
run_app_once(const AppWorkload& app, LockKind kind, const AppRunConfig& config)
{
    if (!app.task_queue_model)
        return run_generic_once(app, kind, config);

    RaytraceConfig rt;
    static_cast<harness::SimRunConfig&>(rt) = config;
    // Two lock calls per task (queue pop + statistics update).
    rt.total_tasks = static_cast<std::uint32_t>(
        static_cast<double>(app.lock_calls) * config.call_scale / 2.0);
    return run_raytrace_once(kind, rt);
}

AppAggregate
run_app(const AppWorkload& app, LockKind kind, const AppRunConfig& config,
        int runs)
{
    NUCA_ASSERT(runs > 0);
    stats::Summary times;
    stats::Summary local_tx;
    stats::Summary global_tx;
    std::uint64_t calls = 0;
    for (int r = 0; r < runs; ++r) {
        AppRunConfig seeded = config;
        seeded.seed = config.seed + static_cast<std::uint64_t>(r) * 7919;
        const AppOutcome outcome = run_app_once(app, kind, seeded);
        times.add(static_cast<double>(outcome.time) / 1e9);
        local_tx.add(static_cast<double>(outcome.traffic.local_tx));
        global_tx.add(static_cast<double>(outcome.traffic.global_tx));
        calls = outcome.lock_calls;
    }
    AppAggregate agg;
    agg.mean_time_s = times.mean();
    agg.time_variance = times.sample_variance();
    agg.mean_local_tx = local_tx.mean();
    agg.mean_global_tx = global_tx.mean();
    agg.lock_calls = calls;
    return agg;
}

} // namespace nucalock::apps
