#include "harness/traditional.hpp"

#include "common/logging.hpp"

namespace nucalock::harness {

using locks::AnyLock;
using locks::LockKind;
using sim::MemRef;
using sim::SimContext;
using sim::SimMachine;

namespace {
/** `owner` value before anyone has held the lock (thread ids are id+1). */
constexpr std::uint64_t kNobody = 0;
} // namespace

BenchResult
run_traditional(LockKind kind, const TraditionalConfig& config)
{
    SimMachine machine(config.topology, config.latency,
                       sim::SimConfig{.seed = config.seed});
    AnyLock<SimContext> lock(machine, kind, config.params);
    machine.install_probe(config.probe);
    if (config.contention_bin_ns != 0)
        machine.memory().enable_contention_series(config.contention_bin_ns);
    if (config.memory_trace != nullptr)
        machine.memory().set_trace_hook(config.memory_trace->hook());

    // Shared benchmark state. `owner` and `active` live in simulated memory
    // because observing them is part of the benchmark; the handoff counters
    // are host-side bookkeeping guarded by the lock (no simulated traffic).
    const MemRef owner = machine.alloc(kNobody, 0);
    const MemRef active =
        machine.alloc(static_cast<std::uint64_t>(config.threads), 0);

    std::uint64_t handoffs = 0;
    std::uint64_t acquires = 0;
    int prev_node = -1;
    // FNV-1a over the acquiring thread ids (see BenchResult).
    std::uint64_t order_hash = 0xcbf29ce484222325ULL;

    machine.add_threads(
        config.threads, config.placement, [&](SimContext& ctx, int) {
            const auto me = static_cast<std::uint64_t>(ctx.thread_id()) + 1;
            for (std::uint32_t i = 0; i < config.iterations_per_thread; ++i) {
                // Wait to observe a new owner (unless we are the last
                // thread still running).
                while (ctx.load(owner) == me && ctx.load(active) > 1)
                    ctx.delay(32);

                lock.acquire(ctx);
                ctx.store(owner, me);
                if (prev_node >= 0 && prev_node != ctx.node())
                    ++handoffs;
                prev_node = ctx.node();
                ++acquires;
                order_hash ^= static_cast<std::uint64_t>(ctx.thread_id());
                order_hash *= 0x100000001b3ULL;
                lock.release(ctx);
            }
            // Retire from the benchmark.
            while (true) {
                const std::uint64_t a = ctx.load(active);
                if (ctx.cas(active, a, a - 1) == a)
                    break;
            }
        });
    machine.run();

    BenchResult result;
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
    NUCA_ASSERT(acquires == static_cast<std::uint64_t>(config.threads) *
                                config.iterations_per_thread);
    return result;
}

} // namespace nucalock::harness
