/**
 * @file
 * Native-backend benchmark: a hardware-counter observatory sweep. It runs
 * contended acquire/release and a KV-service section (structs::StripedMap)
 * on real threads, with a perf_event counter group per thread read at
 * every probe phase transition (obs/perf_counters.hpp), producing a
 * schema-v6 report whose per-run "native_traffic" object carries per-lock,
 * per-phase LLC-miss/remote-access deltas — the real-hardware Figure 7
 * story. Where perf is denied (perf_event_paranoid, containers) the report
 * carries a machine-readable unavailable marker and the exit status is
 * identical. perfbench's native ladder measures the uncontended costs.
 */
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "bench_common.hpp"
#include "common/env.hpp"
#include "locks/any_lock.hpp"
#include "native/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/probe.hpp"
#include "structs/striped_map.hpp"
#include "topology/host.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;
using namespace nucalock::native;

// ---------------------------------------------------------------------------
// Hardware-counter observatory sweep
// ---------------------------------------------------------------------------

constexpr int kThreads = 4;

/** Per-run state that must outlive report emission (ReportRun keeps
 *  pointers into it); std::deque so addresses are stable. */
struct RunArtifacts
{
    obs::MetricsRegistry registry;
    obs::NativeTrafficStats native;
    structs::KvStructsStats kv;
    bool has_kv = false;
};

std::uint64_t
wall_ns_since(std::chrono::steady_clock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

/** Fill the harness-result shape from a finished native run. */
harness::BenchResult
native_result(const RunArtifacts& art, std::uint64_t wall_ns,
              std::uint64_t acquires)
{
    harness::BenchResult res;
    res.total_time = static_cast<sim::SimTime>(wall_ns);
    res.total_acquires = acquires;
    res.avg_iteration_ns =
        acquires == 0 ? 0.0
                      : static_cast<double>(wall_ns) /
                            static_cast<double>(acquires);
    // The traffic totals/attribution are the hardware-counter proxy, so
    // the existing fold_traffic / --traffic pipeline renders real-silicon
    // numbers through the same tables as the simulator.
    res.traffic = art.native.totals();
    res.traffic_attribution = art.native.to_attribution();
    if (const obs::LockMetrics* primary = art.registry.primary())
        res.node_handoff_ratio = primary->remote_handover_fraction();
    return res;
}

/** Contended acquire/touch/release on real threads under counter probes. */
obs::ReportRun
run_contended(obs::CounterSource& source, LockKind kind,
              std::deque<RunArtifacts>& store)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    RunArtifacts& art = store.emplace_back();
    obs::ThreadSafeSink sink(art.registry);
    machine.install_probe(&sink);
    obs::NativeCounterSession session(source);
    machine.install_phase_hooks(&session);

    AnyLock<NativeContext> lock(machine, kind);
    const NativeRef shared = machine.alloc_array(4, 0);
    const std::uint64_t iters = scaled_iters(2000, 100);

    const auto start = std::chrono::steady_clock::now();
    machine.run_threads(kThreads, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int) {
                            for (std::uint64_t i = 0; i < iters; ++i) {
                                lock.acquire(ctx);
                                ctx.touch_array(shared, 4, /*write=*/true);
                                lock.release(ctx);
                                ctx.delay(64); // private work between CSes
                            }
                        });
    const std::uint64_t wall_ns = wall_ns_since(start);

    art.native = session.finish();
    art.registry.finalize();
    const std::uint64_t acquires =
        static_cast<std::uint64_t>(kThreads) * iters;
    obs::ReportRun run(lock_name(kind), native_result(art, wall_ns, acquires),
                       &art.registry);
    run.native_traffic = &art.native;
    std::printf("  %-10s %8.0f ns/acq  counters:%s\n", lock_name(kind),
                run.result.avg_iteration_ns,
                art.native.available ? "on" : "off");
    return run;
}

/**
 * The KV-service workload on the native backend: a striped map driven by a
 * Zipf-skewed read/write/scan mix from real threads — the structures riding
 * the native perf-counter path, per-stripe lock ids joining the per-lock
 * counter rows.
 */
obs::ReportRun
run_kv(obs::CounterSource& source, LockKind kind,
       std::deque<RunArtifacts>& store)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    RunArtifacts& art = store.emplace_back();
    art.has_kv = true;

    structs::StripedMap<NativeContext>::Config cfg;
    cfg.stripes = 4;
    cfg.initial_buckets = 8;
    cfg.max_load_factor = 2.0; // let cooperative resizes happen mid-run
    structs::StripedMap<NativeContext> map(machine, kind, cfg);

    // Preload before installing probes/counters so the measured section
    // starts on a warm map.
    constexpr std::uint64_t kKeyspace = 512;
    {
        NativeContext warm = machine.make_context(0, 0);
        for (std::uint64_t k = 0; k < kKeyspace; ++k)
            map.put(warm, k, k);
    }

    obs::ThreadSafeSink sink(art.registry);
    machine.install_probe(&sink);
    obs::NativeCounterSession session(source);
    machine.install_phase_hooks(&session);

    const apps::ZipfSampler zipf(kKeyspace, 0.9);
    const std::uint64_t ops = scaled_iters(4000, 200);
    std::mutex merge_mutex;

    const auto start = std::chrono::steady_clock::now();
    machine.run_threads(
        kThreads, Placement::RoundRobinNodes, [&](NativeContext& ctx, int) {
            structs::KvStructsStats local;
            std::uint64_t fresh = 0;
            for (std::uint64_t i = 0; i < ops; ++i) {
                const auto key =
                    static_cast<std::uint64_t>(zipf.sample(ctx.rng()));
                const std::uint64_t dice = ctx.rng().next() % 100;
                const auto op_start = std::chrono::steady_clock::now();
                if (dice < 70) {
                    if (map.get(ctx, key).has_value())
                        ++local.hits;
                    else
                        ++local.misses;
                    ++local.reads;
                    local.read_ns.add(wall_ns_since(op_start));
                } else if (dice < 90) {
                    map.put(ctx, key, i);
                    ++local.writes;
                    local.write_ns.add(wall_ns_since(op_start));
                } else if (dice < 95) {
                    map.scan(ctx, key, 16);
                    ++local.scans;
                    local.scan_ns.add(wall_ns_since(op_start));
                } else {
                    // Fresh keys in a per-thread namespace: insert load
                    // that eventually trips a cooperative resize.
                    map.put(ctx,
                            1'000'000 +
                                static_cast<std::uint64_t>(ctx.thread_id()) *
                                    1'000'000 +
                                fresh++,
                            i);
                    ++local.inserts;
                    local.write_ns.add(wall_ns_since(op_start));
                }
            }
            const std::lock_guard<std::mutex> guard(merge_mutex);
            art.kv.reads += local.reads;
            art.kv.writes += local.writes;
            art.kv.scans += local.scans;
            art.kv.inserts += local.inserts;
            art.kv.hits += local.hits;
            art.kv.misses += local.misses;
            art.kv.read_ns.merge(local.read_ns);
            art.kv.write_ns.merge(local.write_ns);
            art.kv.scan_ns.merge(local.scan_ns);
        });
    const std::uint64_t wall_ns = wall_ns_since(start);

    art.native = session.finish();
    art.registry.finalize();
    map.collect(art.kv);

    const std::uint64_t acquires = art.kv.stripe_acquisitions_total();
    harness::BenchResult res = native_result(art, wall_ns, acquires);
    {
        std::uint64_t local = 0;
        std::uint64_t remote = 0;
        for (const structs::StripeStats& s : art.kv.per_stripe) {
            local += s.handovers_local;
            remote += s.handovers_remote;
        }
        res.node_handoff_ratio =
            local + remote == 0 ? 0.0
                                : static_cast<double>(remote) /
                                      static_cast<double>(local + remote);
    }
    obs::ReportRun run(std::string(lock_name(kind)) + "@kv", res,
                       &art.registry);
    run.structs = &art.kv;
    run.native_traffic = &art.native;
    std::printf("  %-10s %8" PRIu64 " ops  %8" PRIu64
                " stripe acqs  counters:%s\n",
                run.lock_name.c_str(), art.kv.ops_total(), acquires,
                art.native.available ? "on" : "off");
    return run;
}

int
run_observatory()
{
    bench::banner("native hardware-counter observatory",
                  "Contended locks and the KV service on real threads, with "
                  "per-thread perf_event counter groups read at probe phase "
                  "transitions (schema v6 native_traffic).");

    obs::PerfCounterSource source;
    const obs::CounterCapabilities caps = source.capabilities();
    if (caps.available)
        std::printf("perf counters: available (paranoid=%d)\n",
                    caps.paranoid_level);
    else
        std::printf("perf counters: unavailable — %s\n",
                    caps.unavailable_reason.c_str());

    std::deque<RunArtifacts> store;
    std::vector<obs::ReportRun> runs;

    std::printf("\ncontended (%d threads):\n", kThreads);
    for (const LockKind kind :
         {LockKind::Tatas, LockKind::TatasExp, LockKind::Mcs, LockKind::Rh,
          LockKind::HboGt, LockKind::HboGtSd})
        runs.push_back(run_contended(source, kind, store));

    std::printf("\nkv service (%d threads, striped map):\n", kThreads);
    for (const LockKind kind : {LockKind::Tatas, LockKind::HboGt})
        runs.push_back(run_kv(source, kind, store));

    obs::ReportConfig rc;
    rc.tool = "bench_native_locks";
    rc.bench = "native";
    rc.nodes = 2;
    rc.cpus_per_node = 2;
    rc.threads = kThreads;
    rc.iterations = static_cast<std::uint32_t>(scaled_iters(2000, 100));
    rc.seed = 1;
    bench::maybe_write_json(rc, runs);
    return 0; // exit status is identical with or without counters
}

} // namespace

int
main()
{
    return run_observatory();
}
