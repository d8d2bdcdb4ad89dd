#include "check/structs_check.hpp"

#include <algorithm>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "exec/executor.hpp"
#include "harness/sim_run.hpp"
#include "structs/striped_map.hpp"

namespace nucalock::check {

namespace {

using sim::SimContext;
using sim::SimMachine;

/** Uniform random walk over schedules: every decision point picks a
 *  runnable thread uniformly. Unlike strict-priority PCT, no thread can
 *  monopolize a backoff loop, so no yield adaptation is needed. */
class RandomWalkScheduler final : public sim::Scheduler
{
  public:
    RandomWalkScheduler(std::uint64_t seed, std::uint64_t max_steps)
        : rng_(seed), max_steps_(max_steps)
    {
    }

    int
    pick(sim::SimTime, const std::vector<sim::SchedChoice>& runnable) override
    {
        if (steps_ >= max_steps_)
            return sim::kStopRun;
        ++steps_;
        const auto i = static_cast<std::size_t>(
            rng_.next_below(static_cast<std::uint64_t>(runnable.size())));
        return runnable[i].tid;
    }

  private:
    Xoshiro256 rng_;
    std::uint64_t max_steps_;
    std::uint64_t steps_ = 0;
};

} // namespace

StructsRunReport
run_structs_one(const StructsCheckSetup& setup, sim::Scheduler& scheduler)
{
    NUCA_ASSERT(setup.nodes > 0 && setup.cpus_per_node > 0);
    NUCA_ASSERT(setup.puts_per_thread > 0);

    harness::SimRunConfig config;
    config.topology = Topology::symmetric(setup.nodes, setup.cpus_per_node);
    config.threads = threads_of(setup);
    config.seed = setup.seed;
    harness::SimRun run(config, &scheduler);
    SimMachine& machine = run.machine();

    typename structs::StripedMap<SimContext>::Config map_cfg;
    map_cfg.stripes = static_cast<std::size_t>(setup.stripes);
    map_cfg.initial_buckets = static_cast<std::size_t>(setup.initial_buckets);
    // Aggressive load factor so a small run still provokes resize.
    map_cfg.max_load_factor = 1.5;
    map_cfg.plant_skip_lock = setup.unsynchronized;
    structs::StripedMap<SimContext> map(machine, setup.kind, map_cfg);

    const std::uint32_t per_thread = setup.puts_per_thread;
    std::uint64_t inserts = 0;
    std::uint64_t missing = 0;

    run.add_threads([&](SimContext& ctx, int) {
        const auto tid = static_cast<std::uint64_t>(ctx.thread_id());
        const std::uint64_t base = tid * 1'000'000;
        for (std::uint32_t j = 0; j < per_thread; ++j) {
            if (map.put(ctx, base + j, tid))
                ++inserts;
        }
        // Read-back under whatever resize epochs other threads are
        // provoking: our own keys must all be present.
        for (std::uint32_t j = 0; j < per_thread; ++j)
            if (!map.get(ctx, base + j).has_value())
                ++missing;
    });
    run.finish();

    StructsRunReport report;
    report.stop = machine.stop_reason();
    report.steps = machine.sched_steps();
    report.inserts = inserts;
    report.resize_epochs = map.resize_epochs();
    report.migrated_keys = map.resize_migrated_keys();
    report.missing_keys = missing;
    report.host_total = map.host_size();
    for (std::size_t s = 0; s < map.num_stripes(); ++s)
        report.meta_total += machine.memory().peek(map.stripe_meta(s));

    if (report.stop == sim::StopReason::Deadlock) {
        report.failed = true;
        report.what = "deadlock: every remaining thread is parked";
    } else if (report.stop == sim::StopReason::TimeLimit) {
        report.failed = true;
        report.what = "livelock: simulated time limit exceeded";
    } else if (report.stop == sim::StopReason::Completed) {
        const auto expected =
            static_cast<std::uint64_t>(config.threads) * per_thread;
        if (report.missing_keys != 0) {
            report.failed = true;
            report.what = "missing keys: " +
                          std::to_string(report.missing_keys) + " of " +
                          std::to_string(expected) +
                          " inserted keys unreadable";
        } else if (report.host_total != expected) {
            report.failed = true;
            report.what = "item count wrong: map holds " +
                          std::to_string(report.host_total) + ", expected " +
                          std::to_string(expected);
        } else if (report.meta_total != report.host_total) {
            report.failed = true;
            report.what =
                "lost update: stripe count words sum to " +
                std::to_string(report.meta_total) + " but the map holds " +
                std::to_string(report.host_total) +
                " items (a load/store pair was interleaved)";
        }
    }
    return report;
}

StructsCheckResult
structs_check(const StructsCheckSetup& setup, const StructsCheckConfig& cfg)
{
    StructsCheckResult res;
    if (cfg.executions == 0)
        return res;

    // Every execution is pure in (setup.seed, cfg.seed, i): run them in
    // any order, fold in execution order, stop at the first failure.
    const auto n = static_cast<std::size_t>(cfg.executions);
    std::vector<StructsRunReport> reports(n);
    exec::Executor executor(cfg.jobs);
    executor.run_batch(n, [&](std::size_t i) {
        RandomWalkScheduler sched(
            cfg.seed * 0x9e3779b97f4a7c15ULL + setup.seed * 0x85ebca6bULL + i,
            cfg.max_steps);
        reports[i] = run_structs_one(setup, sched);
    });

    for (const StructsRunReport& rep : reports) {
        ++res.executions;
        if (rep.stop == sim::StopReason::SchedulerStop)
            ++res.truncated;
        res.max_steps_seen = std::max(res.max_steps_seen, rep.steps);
        res.total_resize_epochs += rep.resize_epochs;
        res.total_migrated_keys += rep.migrated_keys;
        if (rep.failed) {
            ++res.failures;
            res.first_failure = rep;
            break;
        }
    }
    return res;
}

} // namespace nucalock::check
