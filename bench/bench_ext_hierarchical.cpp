/**
 * @file
 * Extension study: the paper's proposed hierarchical expansion of HBO
 * (section 4.1) on a two-level NUCA — nodes of CMP chips (the "future"
 * row of the paper's NUCA-ratio table). Compares HBO_HIER (three backoff
 * levels) with the two-level locks and reports chip-level handover
 * affinity.
 */
#include <iostream>

#include "bench_common.hpp"
#include "common/logging.hpp"
#include "harness/sim_run.hpp"
#include "locks/any_lock.hpp"
#include "stats/table.hpp"

int
main()
{
    using namespace nucalock;
    using namespace nucalock::locks;
    using namespace nucalock::sim;

    bench::banner("Extension: hierarchical NUCA (CMP cluster)",
                  "2 nodes x 4 chips x 4 cpus, cheap on-chip transfers "
                  "(cmp_cluster latency\nmodel). Contended counter "
                  "increments; lower time and higher same-chip\nhandover "
                  "fraction are better. HBO_HIER adds a chip-level backoff "
                  "tier.");

    const std::vector<LockKind> kinds = {LockKind::TatasExp, LockKind::Clh,
                                         LockKind::HboGt, LockKind::HboGtSd,
                                         LockKind::HboHier};
    const auto iters = static_cast<std::uint32_t>(scaled_iters(100, 20));
    harness::SimRunConfig config;
    config.topology = Topology::hierarchical(2, 4, 4);
    config.latency = LatencyModel::cmp_cluster();
    config.threads = 32;

    stats::Table table({"Lock Type", "Time (us/acq)", "Same-chip handover",
                        "Same-node handover", "Global tx/acq"});
    for (LockKind kind : kinds) {
        harness::SimRun run(config);
        AnyLock<SimContext> lock(run.machine(), kind);
        const MemRef data = run.machine().alloc_array(32, 0, 0);

        std::uint64_t same_chip = 0;
        std::uint64_t same_node = 0;
        int prev_chip = -1;
        int prev_node = -1;

        run.add_threads([&](SimContext& ctx, int) {
            for (std::uint32_t i = 0; i < iters; ++i) {
                lock.acquire(ctx);
                run.enter(ctx);
                if (prev_chip == ctx.chip())
                    ++same_chip;
                else if (prev_node == ctx.node())
                    ++same_node;
                prev_chip = ctx.chip();
                prev_node = ctx.node();
                ctx.touch_array(data, 32, true);
                ctx.cs_exit();
                lock.release(ctx);
                ctx.delay(2000);
            }
        });
        const harness::BenchResult r = run.finish();
        NUCA_ASSERT(r.total_acquires == run.checker().acquisitions());

        const auto acq = static_cast<double>(r.total_acquires);
        table.row()
            .cell(lock_name(kind))
            .cell(static_cast<double>(r.total_time) / acq / 1000.0, 2)
            .cell(static_cast<double>(same_chip) / acq, 3)
            .cell(static_cast<double>(same_node) / acq, 3)
            .cell(static_cast<double>(r.traffic.global_tx) / acq, 1);
    }
    table.print(std::cout);
    return 0;
}
