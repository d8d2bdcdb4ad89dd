#include "apps/kv_service.hpp"

#include <algorithm>

#include "apps/workload.hpp"
#include "common/logging.hpp"
#include "harness/barrier.hpp"
#include "structs/striped_map.hpp"

namespace nucalock::apps {

using locks::LockKind;
using sim::SimContext;

KvOutcome
run_kv_service(LockKind kind, const KvServiceConfig& config)
{
    NUCA_ASSERT(config.threads > 0);
    NUCA_ASSERT(config.keys > 0 && config.stripes > 0);
    NUCA_ASSERT(config.read_pct >= 0 && config.write_pct >= 0 &&
                config.read_pct + config.write_pct <= 100);

    harness::SimRun run(config);

    typename structs::StripedMap<SimContext>::Config map_cfg;
    map_cfg.stripes = static_cast<std::size_t>(config.stripes);
    map_cfg.initial_buckets = static_cast<std::size_t>(
        std::max<std::uint64_t>(1, config.buckets_per_stripe));
    map_cfg.value_lines = config.value_lines;
    map_cfg.params = config.params;
    structs::StripedMap<SimContext> map(run.machine(), kind, map_cfg);

    const ZipfSampler zipf(static_cast<std::size_t>(config.keys),
                           config.zipf_skew);
    const int threads = config.threads;
    harness::SenseBarrier<SimContext> barrier(run.machine(), threads);

    // Host-side service bookkeeping. Mutated only inside simulated-thread
    // host code, which the engine serializes deterministically.
    structs::KvStructsStats kv;
    // The order hash runs over the sequence of (thread id, op class)
    // completions: the probe-independent fingerprint of the service
    // schedule (BenchResult). Each completion is one service op.
    const auto note_op = [&](SimContext& ctx, std::uint64_t op_class) {
        run.note(static_cast<std::uint64_t>(ctx.thread_id()) * 8 + op_class);
    };

    const int storms = std::max(0, config.resize_storms);
    const std::uint64_t ops_per_phase = std::max<std::uint64_t>(
        1, config.ops_per_thread / static_cast<std::uint64_t>(storms + 1));
    const std::uint64_t threads_u = static_cast<std::uint64_t>(threads);

    run.add_threads([&](SimContext& ctx, int) {
        const auto tid = static_cast<std::uint64_t>(ctx.thread_id());
        bool sense = false;

        // Preload: thread t inserts keys t, t+T, t+2T, ... so the whole
        // population exists before the measured mix, in parallel.
        for (std::uint64_t key = tid; key < config.keys; key += threads_u) {
            const std::uint64_t t0 = ctx.now();
            map.put(ctx, key, key * 2 + 1);
            kv.write_ns.add(ctx.now() - t0);
            ++kv.inserts;
            note_op(ctx, 3);
        }
        barrier.wait(ctx, &sense);

        std::uint64_t storm_next = config.keys + tid * 1'000'000;
        for (int phase = 0; phase <= storms; ++phase) {
            if (phase > 0) {
                // Resize storm: a burst of fresh keys (ids disjoint from
                // the Zipf population) that pushes stripes past their load
                // factor and bumps the cooperative-resize epoch.
                for (std::uint64_t j = 0; j < config.storm_inserts_per_thread;
                     ++j) {
                    const std::uint64_t t0 = ctx.now();
                    map.put(ctx, storm_next, storm_next);
                    kv.write_ns.add(ctx.now() - t0);
                    ++storm_next;
                    ++kv.inserts;
                    note_op(ctx, 3);
                }
                barrier.wait(ctx, &sense);
            }
            for (std::uint64_t i = 0; i < ops_per_phase; ++i) {
                const std::uint64_t w = config.think_iters;
                ctx.delay(w / 2 + ctx.rng().next_below(w + 1));
                const std::uint64_t key = zipf.sample(ctx.rng());
                const auto draw =
                    static_cast<int>(ctx.rng().next_below(100));
                const std::uint64_t t0 = ctx.now();
                if (draw < config.read_pct) {
                    const auto found = map.get(ctx, key);
                    kv.read_ns.add(ctx.now() - t0);
                    found ? ++kv.hits : ++kv.misses;
                    ++kv.reads;
                    note_op(ctx, 0);
                } else if (draw < config.read_pct + config.write_pct) {
                    map.put(ctx, key, key ^ (i + 1));
                    kv.write_ns.add(ctx.now() - t0);
                    ++kv.writes;
                    note_op(ctx, 1);
                } else {
                    const std::size_t seen =
                        map.scan(ctx, key, config.scan_len);
                    kv.scan_ns.add(ctx.now() - t0);
                    seen != 0 ? ++kv.hits : ++kv.misses;
                    ++kv.scans;
                    note_op(ctx, 2);
                }
            }
            barrier.wait(ctx, &sense);
        }
    });
    KvOutcome outcome;
    outcome.bench = run.finish();
    map.collect(kv);
    outcome.structs = kv;
    // Custody-level handoff ratio over every stripe lock acquisition.
    std::uint64_t remote = 0;
    std::uint64_t stripe_acquires = 0;
    for (const structs::StripeStats& s : kv.per_stripe) {
        remote += s.handovers_remote;
        stripe_acquires += s.acquisitions;
    }
    if (stripe_acquires != 0)
        outcome.bench.node_handoff_ratio =
            static_cast<double>(remote) / static_cast<double>(stripe_acquires);
    return outcome;
}

} // namespace nucalock::apps
