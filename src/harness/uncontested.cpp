#include "harness/uncontested.hpp"

#include "common/logging.hpp"
#include "harness/sim_run.hpp"

namespace nucalock::harness {

using locks::AnyLock;
using locks::LockKind;
using sim::MemRef;
using sim::SimContext;
using sim::SimTime;

namespace {
/** Unmeasured acquire-release pairs before the measured ones. */
constexpr std::uint32_t kWarmup = 10;
} // namespace

double
measure_handover_ns(LockKind kind, const UncontestedConfig& config, int cpu_a,
                    int cpu_b)
{
    SimRunConfig run_config;
    run_config.topology = config.topology;
    run_config.latency = config.latency;
    run_config.seed = config.seed;
    SimRun run(run_config);
    AnyLock<SimContext> lock(run.machine(), kind, config.params);

    SimTime measured = 0;
    std::uint64_t counted = 0;
    const std::uint32_t pairs = config.iterations + kWarmup;
    // Pair k: one acquire-release, timed once past the warmup.
    const auto pair = [&](SimContext& ctx, std::uint32_t k) {
        const SimTime t0 = ctx.now();
        lock.acquire(ctx);
        run.enter(ctx);
        ctx.cs_exit();
        lock.release(ctx);
        if (k >= kWarmup) {
            measured += ctx.now() - t0;
            ++counted;
        }
    };

    if (cpu_a == cpu_b) {
        run.machine().add_thread(cpu_a, [&pair, pairs](SimContext& ctx) {
            for (std::uint32_t k = 0; k < pairs; ++k)
                pair(ctx, k);
        });
    } else {
        // Two threads alternating through a turn word; only the
        // acquire-release interval is measured, not the turn handshake.
        const MemRef turn = run.machine().alloc(0, 0);
        const auto worker = [&pair, pairs, turn](SimContext& ctx,
                                                 std::uint64_t other) {
            for (std::uint32_t k = 0; k < pairs; ++k) {
                ctx.spin_while_equal(turn, other); // wait for our turn
                pair(ctx, k);
                ctx.store(turn, other);
            }
        };
        run.machine().add_thread(cpu_a,
                                 [worker](SimContext& ctx) { worker(ctx, 1); });
        run.machine().add_thread(cpu_b,
                                 [worker](SimContext& ctx) { worker(ctx, 0); });
    }
    const BenchResult result = run.finish();
    NUCA_ASSERT(result.total_acquires == run.checker().acquisitions(),
                "checker disagrees with the workload count");
    NUCA_ASSERT(counted > 0);
    return static_cast<double>(measured) / static_cast<double>(counted);
}

UncontestedResult
run_uncontested(LockKind kind, const UncontestedConfig& config)
{
    const Topology& topo = config.topology;
    UncontestedResult result;

    const int cpu0 = topo.first_cpu_of_node(0);
    result.same_processor_ns = measure_handover_ns(kind, config, cpu0, cpu0);

    NUCA_ASSERT(topo.cpus_in_node(0) >= 2,
                "same-node scenario needs two cpus in node 0");
    result.same_node_ns = measure_handover_ns(kind, config, cpu0, cpu0 + 1);

    if (topo.num_nodes() >= 2) {
        const int remote = topo.first_cpu_of_node(1);
        result.remote_node_ns = measure_handover_ns(kind, config, cpu0, remote);
    }
    return result;
}

} // namespace nucalock::harness
