#include "harness/newbench.hpp"

#include <chrono>

#include "common/logging.hpp"

namespace nucalock::harness {

using locks::AnyLock;
using locks::LockKind;
using sim::MemRef;
using sim::SimContext;
using sim::SimMachine;

BenchResult
run_newbench(LockKind kind, const NewBenchConfig& config)
{
    NUCA_ASSERT(config.ints_per_line > 0);
    sim::SimConfig sim_cfg;
    sim_cfg.seed = config.seed;
    sim_cfg.preemption = config.preemption;
    sim_cfg.preempt_mean_interval = config.preempt_mean_interval;
    sim_cfg.preempt_duration = config.preempt_duration;
    SimMachine machine(config.topology, config.latency, sim_cfg);
    AnyLock<SimContext> lock(machine, kind, config.params);

    sim::FaultInjector injector(config.fault_plan);
    if (!config.fault_plan.empty())
        machine.install_faults(&injector);
    sim::InvariantConfig inv_cfg;
    inv_cfg.watchdog_window_ns = config.watchdog_window_ns;
    inv_cfg.fairness_window = config.fairness_window;
    sim::InvariantChecker checker(inv_cfg);
    machine.install_invariants(&checker);
    machine.install_probe(config.probe);
    if (config.contention_bin_ns != 0)
        machine.memory().enable_contention_series(config.contention_bin_ns);
    if (config.memory_trace != nullptr)
        machine.memory().set_trace_hook(config.memory_trace->hook());

    // The shared vector the critical section walks (Fig 4's cs_work[]),
    // one simulated line per `ints_per_line` ints, homed in node 0.
    const std::uint32_t cs_lines =
        config.critical_work == 0
            ? 0
            : (config.critical_work + config.ints_per_line - 1) /
                  config.ints_per_line;
    const MemRef cs_work =
        machine.alloc_array(cs_lines == 0 ? 1 : cs_lines, 0, 0);

    // Host-side bookkeeping guarded by the lock (no simulated traffic).
    std::uint64_t handoffs = 0;
    std::uint64_t acquires = 0;
    std::uint64_t timeouts = 0;
    int prev_node = -1;
    // FNV-1a over the sequence of acquiring thread ids: a probe-independent
    // fingerprint of the acquisition order (see BenchResult).
    std::uint64_t order_hash = 0xcbf29ce484222325ULL;

    // A plan with thread death can abandon a held lock; survivors then use
    // bounded waits and stop iterating on a timeout so the run terminates.
    const bool deaths = config.fault_plan.has_death();

    machine.add_threads(
        config.threads, config.placement, [&](SimContext& ctx, int) {
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
                ctx.cs_enter();
                if (prev_node >= 0 && prev_node != ctx.node())
                    ++handoffs;
                prev_node = ctx.node();
                ++acquires;
                order_hash ^= static_cast<std::uint64_t>(ctx.thread_id());
                order_hash *= 0x100000001b3ULL;
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
    const auto host_t0 = std::chrono::steady_clock::now();
    machine.run();
    const auto host_t1 = std::chrono::steady_clock::now();

    BenchResult result;
    result.host_run_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(host_t1 -
                                                             host_t0)
            .count());
    result.total_time = machine.now();
    result.total_acquires = acquires;
    result.avg_iteration_ns =
        static_cast<double>(machine.now()) / static_cast<double>(acquires);
    result.node_handoff_ratio =
        acquires > 1 ? static_cast<double>(handoffs) /
                           static_cast<double>(acquires - 1)
                     : 0.0;
    result.traffic = machine.traffic();
    result.traffic_attribution = machine.traffic_attribution();
    result.contention = machine.contention();
    result.finish_times.reserve(static_cast<std::size_t>(config.threads));
    for (int t = 0; t < config.threads; ++t)
        result.finish_times.push_back(machine.finish_time(t));
    result.fairness_spread_pct = fairness_spread_pct(result.finish_times);
    result.acquisition_order_hash = order_hash;
    result.sim_memory_accesses = machine.memory().num_accesses();
    result.sim_fiber_switches = machine.fiber_switches();
    result.sim_run_ahead_picks = machine.run_ahead_picks();
    result.sim_lazy_picks = machine.lazy_picks();
    result.sim_replayed_picks = machine.replayed_picks();
    if (config.memory_trace != nullptr) {
        result.memtrace_events = config.memory_trace->events().size();
        result.memtrace_dropped = config.memory_trace->dropped();
    }
    result.faults_injected = injector.injected();
    result.fault_log = injector.log();
    result.mutex_violations = checker.mutual_exclusion_violations();
    result.max_bypasses = checker.max_bypasses();
    result.max_node_streak = checker.max_node_streak();
    result.lock_timeouts = timeouts;

    const auto expected = static_cast<std::uint64_t>(config.threads) *
                          config.iterations_per_thread;
    // Injected deaths/timeouts legitimately lose iterations; everything
    // else must still complete the exact count.
    if (config.fault_plan.has_death())
        NUCA_ASSERT(acquires <= expected);
    else
        NUCA_ASSERT(acquires == expected);
    NUCA_ASSERT(acquires == checker.acquisitions(),
                "checker disagrees with the workload count");
    return result;
}

} // namespace nucalock::harness
