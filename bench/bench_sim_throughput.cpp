/**
 * @file
 * Tracked simulator-throughput benchmark: how fast the discrete-event
 * engine itself runs on this host, independent of any paper figure.
 *
 * The big-topology scaling table (--shape=NxC[,NxC...], default
 * 2x14,4x32,16x64,64x16): one MCS run per shape with equal total work,
 * tracking whether per-event cost stays flat as simulated CPUs go
 * 28 -> 1024 (docs/performance.md, "big-topology engine"). The Figure 5
 * grid's throughput is perfbench's fig5_sweep workload.
 *
 * Reported metrics are simulated memory operations and fiber switches per
 * host second. The simulated results stay bit-identical run to run (the
 * acquisition-order hashes are printed so a trajectory diff catches any
 * drift); only the host wall-clock numbers vary. With NUCALOCK_BENCH_JSON
 * set, writes a nucalock-bench-report document whose per-run "host"
 * object carries the throughput numbers (the only nondeterministic part of
 * the report).
 */
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "harness/newbench.hpp"
#include "harness/options.hpp"
#include "stats/table.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::harness;
using namespace nucalock::locks;

/** One throughput measurement: the (deterministic) simulated result plus
 *  the (host-dependent) wall-clock rates. */
struct Measured
{
    BenchResult result;
    obs::HostStats host;
};

obs::HostStats
rates_of(const BenchResult& result, double wall_ns)
{
    obs::HostStats host;
    host.valid = true;
    host.wall_ns = wall_ns;
    const double secs = host.wall_ns / 1e9;
    if (secs > 0.0) {
        host.events_per_sec =
            static_cast<double>(result.sim_memory_accesses) / secs;
        host.switches_per_sec =
            static_cast<double>(result.sim_fiber_switches) / secs;
    }
    host.jobs = 1;
    return host;
}

/**
 * One scaling-table run: MCS on an NxC symmetric machine, every cpu
 * occupied, with the iteration count scaled so every shape performs the
 * same TOTAL number of acquisitions (the per-thread count of the 1024-cpu
 * shape times 1024/cpus). Equal totals mean equal sampling windows: a
 * fixed per-thread count would give the 28-cpu row a ~1 ms run whose
 * events/sec is dominated by warm caches and setup amortization rather
 * than the steady-state per-event cost the table exists to compare. MCS
 * is the shape-sensitive pick: every blocked thread parks a watcher on
 * its own queue-node line, so big shapes exercise exactly the structures
 * the big-topology engine reworked (watcher lists, ready-queue storms,
 * per-thread hot state) rather than serializing on one test-and-set word.
 *
 * The workload is the paper's Figure 4 microbenchmark at its default
 * critical/private work, so the event mix matches what real runs hosted
 * by this engine look like. A handover-dominated stress variant (tiny
 * critical sections, every few events a switch to a cold thread) pays a
 * further ~10% per event at 1024 threads from host cache misses that
 * prefetching cannot fully hide; docs/performance.md quantifies it.
 *
 * Each shape runs three times and reports the fastest wall time: the
 * simulated result is bit-identical every repetition (asserted), so the
 * repetitions only shrink host-scheduling noise.
 *
 * The wall time used is BenchResult::host_run_ns — the engine's run loop
 * alone. Whole-process timing would fold machine construction (1024
 * fibers, a quarter gigabyte of stacks, a 64-node memory arena) into the
 * big shapes' per-event cost; that is allocator throughput, not the
 * scaling property this table tracks.
 */
Measured
measure_scale(const ShapeSpec& shape, std::uint32_t iters)
{
    constexpr int kReps = 3;
    constexpr int kReferenceCpus = 1024;
    NewBenchConfig config;
    config.topology =
        Topology::symmetric(shape.nodes, shape.cpus_per_node);
    config.threads = shape.total_cpus();
    config.iterations_per_thread = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(iters) *
        static_cast<std::uint64_t>(kReferenceCpus) /
        static_cast<std::uint64_t>(
            std::max(shape.total_cpus(), 1)));
    if (config.iterations_per_thread < iters)
        config.iterations_per_thread = iters;
    Measured m;
    double best_ns = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        BenchResult result = run_newbench(LockKind::Mcs, config);
        if (rep == 0) {
            m.result = result;
            best_ns = result.host_run_ns;
        } else {
            if (result.acquisition_order_hash !=
                m.result.acquisition_order_hash) {
                std::fprintf(stderr,
                             "SCALE %dx%d: nondeterministic rerun\n",
                             shape.nodes, shape.cpus_per_node);
                std::exit(1);
            }
            best_ns = std::min(best_ns, result.host_run_ns);
        }
    }
    m.host = rates_of(m.result, best_ns);
    return m;
}

void
print_row(stats::Table& table, const std::string& name, const Measured& m)
{
    table.row()
        .cell(name)
        .cell(m.host.wall_ns / 1e6, 1)
        .cell(m.host.events_per_sec / 1e6, 2)
        .cell(m.host.switches_per_sec / 1e6, 3)
        .cell("0x" + [](std::uint64_t h) {
            char buf[17];
            std::snprintf(buf, sizeof buf, "%016llx",
                          static_cast<unsigned long long>(h));
            return std::string(buf);
        }(m.result.acquisition_order_hash));
}

/** --shape=NxC[,NxC...] from argv; exits on a malformed value. */
std::vector<ShapeSpec>
scale_shapes(int argc, char** argv)
{
    std::string spec = "2x14,4x32,16x64,64x16";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--shape=", 0) == 0)
            spec = arg.substr(8);
    }
    const auto shapes = parse_shape_list(spec);
    if (!shapes) {
        std::fprintf(stderr, "bad --shape '%s' (want NxC[,NxC...])\n",
                     spec.c_str());
        std::exit(2);
    }
    for (const ShapeSpec& s : *shapes) {
        if (s.nodes > sim::SimMemory::kMaxNodes ||
            s.total_cpus() > sim::SimMemory::kMaxCpus) {
            std::fprintf(stderr,
                         "shape %dx%d exceeds the simulator's limits "
                         "(%d nodes, %d cpus)\n",
                         s.nodes, s.cpus_per_node, sim::SimMemory::kMaxNodes,
                         sim::SimMemory::kMaxCpus);
            std::exit(2);
        }
    }
    return *shapes;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner(
        "Simulator throughput",
        "Engine events and fiber switches per host second. The SCALE rows\n"
        "run MCS with equal total work at each --shape=NxC[,NxC...]\n"
        "(default 2x14,4x32,16x64,64x16) — flat-to-rising Mevents/s down\n"
        "the rows is the big-topology engine's success metric. Hashes are\n"
        "bit-identical run to run.");

    const auto scale_iters = static_cast<std::uint32_t>(scaled_iters(20, 4));
    const std::vector<ShapeSpec> shapes = scale_shapes(argc, argv);
    std::vector<Measured> scaled;
    scaled.reserve(shapes.size());
    for (const ShapeSpec& shape : shapes)
        scaled.push_back(measure_scale(shape, scale_iters));

    stats::Table table(
        {"Shape", "wall ms", "Mevents/s", "Mswitches/s", "acq hash"});
    std::vector<obs::ReportRun> runs;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const std::string name = "SCALE " + std::to_string(shapes[i].nodes) +
                                 "x" +
                                 std::to_string(shapes[i].cpus_per_node);
        print_row(table, name, scaled[i]);
        runs.push_back(obs::ReportRun{name, scaled[i].result, nullptr});
        runs.back().host = scaled[i].host;
    }
    table.print(std::cout);

    obs::ReportConfig rc;
    rc.tool = "bench_sim_throughput";
    rc.bench = "new";
    // A 2x14 Figure 5 run, not the SCALE rows, which each run their own
    // shape and iteration count (ROADMAP item 9).
    rc.nodes = 2;
    rc.cpus_per_node = 14;
    rc.threads = 28;
    rc.critical_work = 1500;
    rc.private_work = 4000;
    rc.iterations = static_cast<std::uint32_t>(scaled_iters(60, 10));
    rc.seed = 1;
    bench::maybe_write_json(rc, runs);
    return 0;
}
