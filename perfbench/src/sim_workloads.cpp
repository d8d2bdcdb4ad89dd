/**
 * @file
 * The three simulator workloads: fig5_sweep (the Figure 5 grid over
 * exec::Executor), scale_1024 (one MCS run on 1024 simulated cpus) and
 * kv_service (the KV table, every lock at four contention levels).
 */
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>
#include <vector>

#include "apps/kv_service.hpp"
#include "exec/executor.hpp"
#include "harness/newbench.hpp"
#include "structs/striped_map.hpp"
#include "workloads.hpp"

namespace perfbench {

using nucalock::Topology;
using nucalock::harness::BenchResult;
using nucalock::locks::LockKind;

namespace {

/** One repetition of a simulator workload. */
struct SimRep
{
    double wall_ns = 0.0;
    /** The busiest host thread's Σ thread CPU time over its runs: the
     *  repetition's time with the hypervisor's steal taken out. */
    double busy_ns = 0.0;
    /** Per run, in run order: its set-up time (fig5_sweep, scale_1024: run
     *  wall - host_run_ns; kv_service: its level's build time). */
    std::vector<double> setup_ns;
    /** Σ over the repetition's runs of each run's thread CPU time. */
    double cpu_ns = 0.0;
    SimCounts counts;
    /** Service ops (kv_service) or acquisitions (the others). */
    std::uint64_t ops = 0;
    /** Per run: thread CPU ns per acquisition and per service op. */
    std::vector<double> ns_per_acq;
    std::vector<double> ns_per_op;
};

/** Checks shared by every simulated run; returns false on failure. */
bool
check_run(const BenchResult& r, std::uint64_t expected_acquires,
          Report& report, const char* what)
{
    bool ok = true;
    if (r.mutex_violations != 0) {
        report.fail(std::string(what) + ": mutual-exclusion violations");
        ok = false;
    }
    if (expected_acquires != 0 && r.total_acquires != expected_acquires) {
        report.fail(std::string(what) + ": acquisition count " +
                    std::to_string(r.total_acquires) + " != " +
                    std::to_string(expected_acquires));
        ok = false;
    }
    return ok;
}

/** Determinism: every repetition must reproduce the first one's counts,
 *  and the first must match the pinned hash when one is given. */
void
check_counts(const Options& opts, const std::vector<SimRep>& reps,
             Report& report)
{
    const SimCounts& c0 = reps.front().counts;
    for (const SimRep& rep : reps) {
        if (rep.counts.hash != c0.hash || rep.counts.events != c0.events ||
            rep.counts.switches != c0.switches ||
            rep.counts.acquisitions != c0.acquisitions)
            report.fail("repetition counts differ from the first repetition");
    }
    if (opts.has_pin && c0.hash != opts.pin)
        report.fail("hash chain " + hex64(c0.hash) + " != pinned " +
                    hex64(opts.pin));
    report.note("hash", hex64(c0.hash));
    report.note("events", std::to_string(c0.events));
    report.note("switches", std::to_string(c0.switches));
    report.note("acquisitions", std::to_string(c0.acquisitions));
}

/**
 * The end-to-end metrics every simulator workload reports, in
 * BENCHMARK.json order, on top of @p base (the workload's checks). Each is
 * the median over repetitions of a quantity taken on CPU clocks (README.md,
 * "Statistics"); set-up time, a few wall-clock microseconds per run, is
 * summed over runs of each run's median.
 */
WorkloadRun
finish_sim(const Options& opts, const std::vector<SimRep>& reps,
           int sim_threads, Report base)
{
    WorkloadRun run;
    Report& r = run.report;
    r = std::move(base);
    check_counts(opts, reps, r);
    // Per-run latency: the median and tail over a repetition's runs (grid
    // cells) of CPU ns per acquisition and per service op.
    double q_acq = 0.0;
    double q_op = 0.0;
    std::vector<double> wall, busy, cpu, acq_p50, acq_tail, op_tail;
    for (const SimRep& rep : reps) {
        wall.push_back(rep.wall_ns / 1e9);
        busy.push_back(rep.busy_ns / 1e9);
        cpu.push_back(rep.cpu_ns);
        acq_p50.push_back(median(rep.ns_per_acq));
        acq_tail.push_back(tail(rep.ns_per_acq, 0.99, &q_acq));
        op_tail.push_back(tail(rep.ns_per_op, 0.99, &q_op));
    }
    double setup_ns = 0.0;
    for (std::size_t i = 0; i < reps.front().setup_ns.size(); ++i) {
        std::vector<double> per_run;
        for (const SimRep& rep : reps)
            per_run.push_back(rep.setup_ns[i]);
        setup_ns += median(per_run);
    }
    const SimCounts& c = reps.front().counts;
    const double host_ns = median(cpu);
    const double host_s = host_ns / 1e9;
    const auto events = static_cast<double>(c.events);
    const auto acqs = static_cast<double>(c.acquisitions);
    r.e2e("wall_s", median(busy), "s");
    r.e2e("setup_s", setup_ns / 1e9, "s");
    r.e2e("sim_events_per_s", events / host_s, "1/s");
    r.e2e("sim_switches_per_s", static_cast<double>(c.switches) / host_s,
          "1/s");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    r.e2e("uncontended_ns", host_ns / events, "ns");
    r.e2e("contended_acq_per_s", acqs / host_s, "1/s");
    r.e2e("acquire_p50_ns", median(acq_p50), "ns");
    r.e2e("acquire_p99_ns", median(acq_tail), "ns");
    r.e2e("kv_ops_per_s", static_cast<double>(reps.front().ops) / host_s,
          "1/s");
    r.e2e("kv_op_p99_ns", median(op_tail), "ns");
    r.note("repetitions", std::to_string(reps.size()));
    r.note("rep_wall_s", join(wall));
    r.note("rep_busy_s", join(busy));
    r.note("acquire_tail_quantile", std::to_string(q_acq));
    r.note("latency_runs", std::to_string(reps.front().ns_per_acq.size()));
    r.note("kv_op_tail_quantile", std::to_string(q_op));

    run.simulated = true;
    run.counts = c;
    run.host_run_ns = host_ns;
    run.wall_ns = median(busy) * 1e9;
    run.sim_threads = sim_threads;
    r.layer("sim.events", events, "count");
    r.layer("sim.switches", static_cast<double>(c.switches), "count");
    r.layer("sim.acquisitions", acqs, "count");
    r.layer("sim.events_per_acq", events / acqs, "count");
    r.layer("sim.switches_per_acq", static_cast<double>(c.switches) / acqs,
            "count");
    return run;
}

/** Dense index of the calling host thread (for the executor's spans). */
int
worker_index()
{
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
}

/** Per-run timestamps, written by whichever worker ran the job. */
struct RunTime
{
    double start_ns = 0.0;
    double end_ns = 0.0;
    double host_run_ns = 0.0;
    /** Thread CPU time of the call. */
    double cpu_ns = 0.0;
    int worker = 0;
};

/** Record a run's spans: the harness call and, nested in it, the engine's
 *  run loop, whose duration the result carries (placed at the call's end:
 *  result extraction after the loop is the only work that follows it). */
void
add_run_spans(Tracer& tracer, const char* call, const RunTime& t, int parent,
              int rep)
{
    if (!tracer.enabled())
        return;
    const int id = tracer.add(call, t.start_ns, t.end_ns, parent, rep);
    if (t.host_run_ns > 0.0)
        tracer.add("SimMachine::run", t.end_ns - t.host_run_ns, t.end_ns, id,
                   rep);
}

} // namespace

// ---------------------------------------------------------------------------
// fig5_sweep
// ---------------------------------------------------------------------------

WorkloadRun
run_fig5_sweep(const Options& opts, double seconds, Tracer& tracer)
{
    const std::vector<LockKind> kinds = nucalock::locks::paper_lock_kinds();
    const std::vector<std::uint32_t> critical_work = {0,    250,  500, 1000,
                                                      1500, 2000, 2500};
    const std::size_t ncw = critical_work.size();
    const std::size_t cells = kinds.size() * ncw;
    const std::uint32_t iters = opts.tiny ? 3 : 40;

    nucalock::exec::Executor executor(opts.jobs);
    std::vector<SimRep> reps;
    Report checks;
    std::vector<double> overhead_ms, run_ms, busy, tail_ms;

    repeat_for(seconds, opts.tiny ? 1 : 3, [&](int rep) {
        std::vector<RunTime> times(cells);
        const double t0 = now_ns();
        const std::vector<BenchResult> results =
            executor.map<BenchResult>(cells, [&](std::size_t i) {
                RunTime& t = times[i];
                t.worker = worker_index();
                t.start_ns = now_ns();
                const double c0 = cpu_ns();
                nucalock::harness::NewBenchConfig config;
                config.threads = 28;
                config.iterations_per_thread = iters;
                config.critical_work = critical_work[i % ncw];
                config.seed = opts.seed;
                BenchResult r =
                    nucalock::harness::run_newbench(kinds[i / ncw], config);
                t.cpu_ns = cpu_ns() - c0;
                t.end_ns = now_ns();
                t.host_run_ns = r.host_run_ns;
                return r;
            });
        const double t1 = now_ns();

        SimRep s;
        s.wall_ns = t1 - t0;
        HashChain chain;
        std::map<int, double> worker_last_end;
        std::map<int, double> worker_cpu;
        double cell_wall = 0.0;
        for (std::size_t i = 0; i < cells; ++i) {
            const BenchResult& r = results[i];
            const RunTime& t = times[i];
            ++checks.attempted;
            check_run(r, 28ULL * iters, checks, "fig5_sweep cell");
            chain.add(r.acquisition_order_hash);
            s.counts.events += r.sim_memory_accesses;
            s.counts.switches += r.sim_fiber_switches;
            s.counts.acquisitions += r.total_acquires;
            s.cpu_ns += t.cpu_ns;
            worker_cpu[t.worker] += t.cpu_ns;
            s.setup_ns.push_back((t.end_ns - t.start_ns) - r.host_run_ns);
            const double acqs = static_cast<double>(r.total_acquires);
            s.ns_per_acq.push_back(t.cpu_ns / acqs);
            s.ns_per_op.push_back(t.cpu_ns / acqs);
            cell_wall += t.end_ns - t.start_ns;
            overhead_ms.push_back(((t.end_ns - t.start_ns) - r.host_run_ns) /
                                  1e6);
            run_ms.push_back((t.end_ns - t.start_ns) / 1e6);
            double& last = worker_last_end[t.worker];
            last = std::max(last, t.end_ns);
        }
        s.counts.hash = chain.value();
        s.ops = s.counts.acquisitions;
        for (const auto& [worker, ns] : worker_cpu)
            s.busy_ns = std::max(s.busy_ns, ns);
        busy.push_back(cell_wall / (static_cast<double>(executor.jobs()) *
                                    s.wall_ns));
        double first_idle = t1;
        for (const auto& [worker, end] : worker_last_end)
            first_idle = std::min(first_idle, end);
        tail_ms.push_back((t1 - first_idle) / 1e6);

        if (tracer.enabled()) {
            const int root = tracer.add("fig5_sweep", t0, t1, -1, rep);
            const int map = tracer.add("exec.map", t0, t1, root, rep);
            for (const RunTime& t : times)
                add_run_spans(tracer, "run_newbench", t, map, rep);
        }
        reps.push_back(std::move(s));
    });

    WorkloadRun run = finish_sim(opts, reps, 28, std::move(checks));
    Report& r = run.report;
    r.layer("harness.overhead_ms_per_run", median(overhead_ms), "ms");
    r.layer("harness.run_ms.p50", median(run_ms), "ms");
    r.layer("harness.run_ms.max",
            *std::max_element(run_ms.begin(), run_ms.end()), "ms");
    r.layer("exec.busy_frac", median(busy), "ratio");
    r.layer("exec.tail_ms", median(tail_ms), "ms");
    r.note("jobs", std::to_string(executor.jobs()));
    r.note("iterations_per_thread", std::to_string(iters));
    return run;
}

// ---------------------------------------------------------------------------
// scale_1024
// ---------------------------------------------------------------------------

WorkloadRun
run_scale_1024(const Options& opts, double seconds, Tracer& tracer)
{
    nucalock::harness::NewBenchConfig config;
    config.topology = Topology::symmetric(16, 64);
    config.threads = 1024;
    config.iterations_per_thread = opts.tiny ? 2 : 20;
    config.seed = opts.seed;

    std::vector<SimRep> reps;
    Report checks;
    repeat_for(seconds, opts.tiny ? 1 : 5, [&](int rep) {
        RunTime t;
        t.start_ns = now_ns();
        const double c0 = cpu_ns();
        const BenchResult r =
            nucalock::harness::run_newbench(LockKind::Mcs, config);
        t.cpu_ns = cpu_ns() - c0;
        t.end_ns = now_ns();
        t.host_run_ns = r.host_run_ns;
        ++checks.attempted;
        check_run(r, 1024ULL * config.iterations_per_thread, checks,
                  "scale_1024 run");

        SimRep s;
        s.wall_ns = t.end_ns - t.start_ns;
        s.busy_ns = t.cpu_ns;
        s.cpu_ns = t.cpu_ns;
        s.setup_ns.push_back(s.wall_ns - r.host_run_ns);
        HashChain chain;
        chain.add(r.acquisition_order_hash);
        s.counts = {r.sim_memory_accesses, r.sim_fiber_switches,
                    r.total_acquires, chain.value()};
        s.ops = r.total_acquires;
        const double acqs = static_cast<double>(r.total_acquires);
        s.ns_per_acq.push_back(t.cpu_ns / acqs);
        s.ns_per_op.push_back(t.cpu_ns / acqs);
        if (tracer.enabled()) {
            const int root =
                tracer.add("scale_1024", t.start_ns, t.end_ns, -1, rep);
            add_run_spans(tracer, "run_newbench", t, root, rep);
        }
        reps.push_back(std::move(s));
    });

    WorkloadRun run = finish_sim(opts, reps, 1024, std::move(checks));
    run.report.note("iterations_per_thread",
                    std::to_string(config.iterations_per_thread));
    return run;
}

// ---------------------------------------------------------------------------
// kv_service
// ---------------------------------------------------------------------------

namespace {

/** bench_table_kv's contention levels. */
struct KvLevel
{
    const char* name;
    int nodes;
    int cpus_per_node;
    double skew;
    std::uint64_t stripes;
    std::uint32_t think_iters;
};

const std::vector<KvLevel> kKvLevels = {
    {"uniform", 2, 14, 0.0, 32, 800},
    {"zipf9", 2, 14, 0.9, 16, 400},
    {"hotkeys", 2, 14, 1.2, 4, 100},
    {"scale64", 8, 8, 0.9, 16, 400},
};

nucalock::apps::KvServiceConfig
kv_config(const KvLevel& level, const Options& opts)
{
    nucalock::apps::KvServiceConfig config;
    config.topology = Topology::symmetric(level.nodes, level.cpus_per_node);
    config.threads = level.nodes * level.cpus_per_node;
    config.keys = opts.tiny ? 512 : 1024;
    config.stripes = level.stripes;
    config.zipf_skew = level.skew;
    config.think_iters = level.think_iters;
    config.ops_per_thread = opts.tiny ? 8 : 32;
    config.storm_inserts_per_thread = opts.tiny ? 8 : 16;
    config.resize_storms = 1;
    config.seed = opts.seed;
    return config;
}

/** Service ops a run must complete: preload + storms + the mix. */
std::uint64_t
kv_expected_ops(const nucalock::apps::KvServiceConfig& c)
{
    const auto threads = static_cast<std::uint64_t>(c.threads);
    const auto storms = static_cast<std::uint64_t>(c.resize_storms);
    const std::uint64_t per_phase =
        std::max<std::uint64_t>(1, c.ops_per_thread / (storms + 1));
    return c.keys + threads * (storms * c.storm_inserts_per_thread +
                               (storms + 1) * per_phase);
}

/** What run_kv_service does before its run loop: machine, map and
 *  threads, built and destroyed. Timed separately on the CPU clock (median
 *  of three) because KV results carry no host_run_ns. */
double
kv_build_ns(const nucalock::apps::KvServiceConfig& c)
{
    using nucalock::sim::SimContext;
    std::vector<double> v;
    for (int i = 0; i < 3; ++i) {
        const double t0 = cpu_ns();
        {
            nucalock::sim::SimMachine machine(c.topology, c.latency);
            nucalock::structs::StripedMap<SimContext>::Config map_cfg;
            map_cfg.stripes = static_cast<std::size_t>(c.stripes);
            map_cfg.initial_buckets =
                static_cast<std::size_t>(c.buckets_per_stripe);
            nucalock::structs::StripedMap<SimContext> map(
                machine, LockKind::Mcs, map_cfg);
            machine.add_threads(c.threads, c.placement,
                                [](SimContext&, int) {});
        }
        v.push_back(cpu_ns() - t0);
    }
    return median(v);
}

} // namespace

WorkloadRun
run_kv_service(const Options& opts, double seconds, Tracer& tracer)
{
    const std::vector<LockKind> kinds = nucalock::locks::all_lock_kinds();
    std::vector<SimRep> reps;
    Report checks;
    std::map<std::string, std::vector<double>> level_ms;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> stripe_ops;
    std::map<std::string, std::uint64_t> migrated;

    repeat_for(seconds, opts.tiny ? 1 : 3, [&](int rep) {
        SimRep s;
        HashChain chain;
        const double t0 = now_ns();
        const int root = tracer.add("kv_service", t0, t0, -1, rep);
        for (const KvLevel& level : kKvLevels) {
            const auto config = kv_config(level, opts);
            const double build_ns = kv_build_ns(config);
            double level_ns = 0.0;
            std::uint64_t stripe_acqs = 0;
            std::uint64_t level_ops = 0;
            std::uint64_t level_migrated = 0;
            for (const LockKind kind : kinds) {
                // RH is a two-node algorithm (bench_table_kv skips it too).
                if (kind == LockKind::Rh && level.nodes > 2)
                    continue;
                RunTime t;
                t.start_ns = now_ns();
                const double c0 = cpu_ns();
                const nucalock::apps::KvOutcome out =
                    nucalock::apps::run_kv_service(kind, config);
                t.cpu_ns = cpu_ns() - c0;
                t.end_ns = now_ns();
                const BenchResult& r = out.bench;
                ++checks.attempted;
                check_run(r, kv_expected_ops(config), checks,
                          "kv_service cell");
                if (out.structs.hits + out.structs.misses !=
                    out.structs.reads + out.structs.scans)
                    checks.fail("kv_service cell: hits + misses != lookups");
                chain.add(r.acquisition_order_hash);
                const double cell_ns = t.cpu_ns;
                s.counts.events += r.sim_memory_accesses;
                s.counts.switches += r.sim_fiber_switches;
                s.counts.acquisitions += out.structs.stripe_acquisitions_total();
                s.ops += r.total_acquires;
                s.cpu_ns += cell_ns;
                s.setup_ns.push_back(build_ns);
                s.ns_per_acq.push_back(
                    cell_ns /
                    static_cast<double>(out.structs.stripe_acquisitions_total()));
                s.ns_per_op.push_back(cell_ns /
                                      static_cast<double>(r.total_acquires));
                level_ns += cell_ns;
                stripe_acqs += out.structs.stripe_acquisitions_total();
                level_ops += r.total_acquires;
                level_migrated += out.structs.resize_migrated_keys;
                add_run_spans(tracer, "run_kv_service", t, root, rep);
            }
            level_ms[level.name].push_back(level_ns / 1e6);
            stripe_ops[level.name] = {stripe_acqs, level_ops};
            migrated[level.name] = level_migrated;
        }
        s.wall_ns = now_ns() - t0;
        s.busy_ns = s.cpu_ns;
        tracer.set_end(root, t0 + s.wall_ns);
        s.counts.hash = chain.value();
        reps.push_back(std::move(s));
    });

    WorkloadRun run = finish_sim(opts, reps, 28, std::move(checks));
    Report& r = run.report;
    for (const KvLevel& level : kKvLevels) {
        const auto [acqs, ops] = stripe_ops[level.name];
        r.layer(std::string("apps.kv.host_ms.") + level.name,
                median(level_ms[level.name]), "ms");
        r.layer(std::string("structs.stripe_acqs_per_op.") + level.name,
                static_cast<double>(acqs) / static_cast<double>(ops), "count");
        r.layer(std::string("structs.resize_migrated_keys.") + level.name,
                static_cast<double>(migrated[level.name]), "count");
    }
    return run;
}

} // namespace perfbench
