/**
 * @file
 * native_locks: real threads on a 2x2 logical topology, no simulator code.
 * One pass runs three fixed-size sections and a thread-spawn probe:
 *
 *  - the uncontended ladder: every lock's acquire/release pair timed in
 *    fixed batches on one thread (the benchmark's own loop, not
 *    google-benchmark), on the thread's CPU clock;
 *  - contended acquire/touch/release on `jobs` threads for eight locks,
 *    each acquire timed, a plain shared counter audited afterwards;
 *  - a native StripedMap under a Zipf 0.9 get/put/scan/insert mix, its key
 *    population audited afterwards.
 *
 * The contended and KV sections run as short trials. A trial counts only
 * when it was undisturbed: its threads started together and none lost
 * time to the hypervisor (README.md, "Host noise"). A disturbed trial is
 * checked like any other and then run again, up to kMaxAttempts times.
 */
#include <sched.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "apps/workload.hpp"
#include "locks/any_lock.hpp"
#include "native/machine.hpp"
#include "structs/striped_map.hpp"
#include "workloads.hpp"

namespace perfbench {

using nucalock::Topology;
using nucalock::locks::AnyLock;
using nucalock::locks::LockKind;
using nucalock::native::NativeConfig;
using nucalock::native::NativeContext;
using nucalock::native::NativeMachine;
using nucalock::native::NativeRef;

namespace {

const std::vector<LockKind> kContendedKinds = {
    LockKind::Tatas, LockKind::TatasExp, LockKind::Mcs,    LockKind::Rh,
    LockKind::HboGt, LockKind::HboGtSd,  LockKind::ClhTry, LockKind::Adaptive};

/** Sizes of one pass; the contended and KV sizes are per thread and trial. */
struct NativeSizes
{
    int ladder_batches = 8;
    int ladder_pairs = 2000;
    std::uint64_t contended_iters = 1000;
    std::uint64_t kv_ops = 2000;
    int spawns = 5;
};

/** Attempts at an undisturbed trial before the least disturbed one is
 *  taken. */
constexpr int kMaxAttempts = 50;
/** A trial is undisturbed when its threads left the start gate within this
 *  many ns of each other... */
constexpr double kMaxStartSkewNs = 20e3;
/** ...and lost at most this share of their loops' wall time to steal. */
constexpr double kMaxStolenShare = 0.02;

/** One thread's clocks over its timed loop. */
struct LoopClocks
{
    double start_ns = 0.0;
    double end_ns = 0.0;
    double cpu_start_ns = 0.0;
    double cpu_end_ns = 0.0;

    void
    start()
    {
        start_ns = now_ns();
        cpu_start_ns = cpu_ns();
    }
    void
    stop()
    {
        cpu_end_ns = cpu_ns();
        end_ns = now_ns();
    }
    /** Wall time the thread did not run: taken by the hypervisor. */
    double
    stolen_ns() const
    {
        return std::max(0.0, (end_ns - start_ns) - (cpu_end_ns - cpu_start_ns));
    }
};

/** How a trial's threads ran: its wall time from the first loop start to
 *  the last loop end, and whether it was undisturbed. */
struct TrialClocks
{
    double wall_ns = 0.0;
    /** Stolen ns plus start skew beyond the limit: 0 is best. */
    double disturbance_ns = 0.0;
    bool undisturbed = false;
};

TrialClocks
trial_clocks(const std::vector<LoopClocks>& loops)
{
    double first_start = loops.front().start_ns;
    double last_start = first_start;
    double last_end = loops.front().end_ns;
    double stolen = 0.0;
    double loop_wall = 0.0;
    for (const LoopClocks& l : loops) {
        first_start = std::min(first_start, l.start_ns);
        last_start = std::max(last_start, l.start_ns);
        last_end = std::max(last_end, l.end_ns);
        loop_wall += l.end_ns - l.start_ns;
        stolen += l.stolen_ns();
    }
    const double skew = last_start - first_start;
    TrialClocks t;
    t.wall_ns = last_end - first_start;
    t.undisturbed =
        skew <= kMaxStartSkewNs && stolen <= kMaxStolenShare * loop_wall;
    t.disturbance_ns = stolen + std::max(0.0, skew - kMaxStartSkewNs);
    return t;
}

/**
 * Run @p trial until one comes back undisturbed, at most kMaxAttempts
 * times, passing every attempt to @p check; returns the undisturbed trial
 * or the least disturbed one, and adds the attempts made to @p attempts.
 */
template <typename Trial, typename Check>
auto
undisturbed_trial(Trial&& trial, Check&& check, std::uint64_t& attempts)
    -> decltype(trial())
{
    auto best = trial();
    check(best);
    ++attempts;
    for (int i = 1; i < kMaxAttempts && !best.clocks.undisturbed; ++i) {
        auto next = trial();
        check(next);
        ++attempts;
        if (next.clocks.undisturbed ||
            next.clocks.disturbance_ns < best.clocks.disturbance_ns)
            best = std::move(next);
    }
    return best;
}

NativeSizes
sizes_for(const Options& opts)
{
    NativeSizes s;
    if (opts.tiny) {
        s.ladder_batches = 3;
        s.ladder_pairs = 200;
        s.contended_iters = 300;
        s.kv_ops = 500;
        s.spawns = 2;
    }
    return s;
}

/**
 * The 2x2 machine every section uses. Its threads are pinned, thread t to
 * the t-th cpu this process may run on: left to the kernel, two new
 * threads often start on one cpu and run one after the other.
 */
NativeMachine
make_machine(const Options& opts)
{
    static const std::vector<int> host_cpus = [] {
        std::vector<int> cpus;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(static_cast<std::size_t>(c), &set))
                    cpus.push_back(c);
        return cpus;
    }();
    NativeConfig cfg;
    cfg.seed = opts.seed;
    const Topology topo = Topology::symmetric(2, 2);
    if (!host_cpus.empty()) {
        // RoundRobinNodes puts thread t on node t % 2, slot t / 2.
        cfg.pin = true;
        for (int cpu = 0; cpu < topo.num_cpus(); ++cpu) {
            const int thread = (cpu % 2) * 2 + cpu / 2;
            cfg.os_cpu_of.push_back(
                host_cpus[static_cast<std::size_t>(thread) % host_cpus.size()]);
        }
    }
    return NativeMachine(topo, cfg);
}

/** Uncontended ns per acquire/release pair on the CPU clock, one sample
 *  per batch. */
std::vector<double>
ladder_lock(const Options& opts, LockKind kind, const NativeSizes& sz)
{
    NativeMachine machine = make_machine(opts);
    AnyLock<NativeContext> lock(machine, kind);
    NativeContext ctx = machine.make_context(0, 0);
    for (int i = 0; i < sz.ladder_pairs; ++i) { // warm caches and allocators
        lock.acquire(ctx);
        lock.release(ctx);
    }
    std::vector<double> samples;
    for (int b = 0; b < sz.ladder_batches; ++b) {
        const double t0 = cpu_ns();
        for (int i = 0; i < sz.ladder_pairs; ++i) {
            lock.acquire(ctx);
            lock.release(ctx);
        }
        samples.push_back((cpu_ns() - t0) / sz.ladder_pairs);
    }
    return samples;
}

/** Start gate for run_threads bodies, so thread creation is not timed. */
class StartGate
{
  public:
    explicit StartGate(int count) : count_(count) {}

    void
    arrive()
    {
        arrived_.fetch_add(1);
        while (arrived_.load(std::memory_order_acquire) < count_)
            std::this_thread::yield();
    }

  private:
    const int count_;
    std::atomic<int> arrived_{0};
};

struct ContendedResult
{
    TrialClocks clocks;
    std::uint64_t acquisitions = 0;
    std::uint64_t handovers = 0;
    std::vector<double> acquire_ns;
    bool counter_ok = true;
};

/** One trial: `jobs` threads, contended_iters acquire/touch/release each. */
ContendedResult
contended_lock(const Options& opts, LockKind kind, const NativeSizes& sz)
{
    NativeMachine machine = make_machine(opts);
    AnyLock<NativeContext> lock(machine, kind);
    const NativeRef counter = machine.alloc(0);
    const NativeRef shared = machine.alloc_array(4, 0);
    const int threads = opts.jobs;
    const std::uint64_t iters = sz.contended_iters;

    StartGate gate(threads);
    const double tick_ns = ns_per_tick();
    std::vector<LoopClocks> loops(static_cast<std::size_t>(threads));
    std::vector<std::vector<double>> lat(static_cast<std::size_t>(threads));
    // Plain data guarded by the lock under test.
    int last_holder = -1;
    std::uint64_t handovers = 0;
    machine.run_threads(threads, nucalock::Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int index) {
                            const auto me = static_cast<std::size_t>(index);
                            auto& mine = lat[me];
                            mine.reserve(iters);
                            gate.arrive();
                            loops[me].start();
                            for (std::uint64_t i = 0; i < iters; ++i) {
                                const std::uint64_t k0 = tick();
                                lock.acquire(ctx);
                                mine.push_back(static_cast<double>(tick() - k0) * tick_ns);
                                // A non-atomic increment: lost updates
                                // would expose a broken lock.
                                ctx.store(counter, ctx.load(counter) + 1);
                                if (last_holder != index) {
                                    ++handovers;
                                    last_holder = index;
                                }
                                ctx.touch_array(shared, 4, /*write=*/true);
                                lock.release(ctx);
                                ctx.delay(64); // private work between CSes
                            }
                            loops[me].stop();
                        });
    ContendedResult r;
    r.clocks = trial_clocks(loops);
    r.acquisitions = static_cast<std::uint64_t>(threads) * iters;
    r.handovers = handovers;
    r.counter_ok = counter.word->load() == r.acquisitions;
    for (auto& v : lat)
        r.acquire_ns.insert(r.acquire_ns.end(), v.begin(), v.end());
    return r;
}

struct KvResult
{
    TrialClocks clocks;
    std::uint64_t ops = 0;
    std::vector<double> op_ns;
    std::vector<double> get_ns;
    std::vector<double> put_ns;
    std::vector<double> scan_ns;
    bool audit_ok = true;
};

/** One trial of bench_native_locks' KV section, with per-op timing and a
 *  key audit. */
KvResult
native_kv(const Options& opts, const NativeSizes& sz)
{
    NativeMachine machine = make_machine(opts);
    nucalock::structs::StripedMap<NativeContext>::Config cfg;
    cfg.stripes = 4;
    cfg.initial_buckets = 8;
    cfg.max_load_factor = 2.0; // let cooperative resizes happen mid-run
    nucalock::structs::StripedMap<NativeContext> map(machine, LockKind::HboGt,
                                                     cfg);
    constexpr std::uint64_t kKeyspace = 512;
    NativeContext main_ctx = machine.make_context(0, 0);
    for (std::uint64_t k = 0; k < kKeyspace; ++k)
        map.put(main_ctx, k, k);

    const nucalock::apps::ZipfSampler zipf(kKeyspace, 0.9);
    const int threads = opts.jobs;
    StartGate gate(threads);
    const double tick_ns = ns_per_tick();
    std::vector<LoopClocks> loops(static_cast<std::size_t>(threads));
    struct PerThread
    {
        std::vector<double> get, put, scan;
        std::uint64_t fresh = 0;
    };
    std::vector<PerThread> per(static_cast<std::size_t>(threads));
    machine.run_threads(
        threads, nucalock::Placement::RoundRobinNodes,
        [&](NativeContext& ctx, int index) {
            const auto me = static_cast<std::size_t>(index);
            PerThread& mine = per[me];
            mine.get.reserve(sz.kv_ops);
            mine.put.reserve(sz.kv_ops);
            mine.scan.reserve(sz.kv_ops);
            gate.arrive();
            loops[me].start();
            for (std::uint64_t i = 0; i < sz.kv_ops; ++i) {
                const auto key =
                    static_cast<std::uint64_t>(zipf.sample(ctx.rng()));
                const std::uint64_t dice = ctx.rng().next() % 100;
                const std::uint64_t k0 = tick();
                if (dice < 70) {
                    (void)map.get(ctx, key);
                    mine.get.push_back(static_cast<double>(tick() - k0) * tick_ns);
                } else if (dice < 90) {
                    map.put(ctx, key, i);
                    mine.put.push_back(static_cast<double>(tick() - k0) * tick_ns);
                } else if (dice < 95) {
                    map.scan(ctx, key, 16);
                    mine.scan.push_back(static_cast<double>(tick() - k0) * tick_ns);
                } else {
                    // Fresh keys in a per-thread namespace: insert load
                    // that trips cooperative resizes.
                    map.put(ctx,
                            1'000'000 +
                                static_cast<std::uint64_t>(index) * 1'000'000 +
                                mine.fresh++,
                            i);
                    mine.put.push_back(static_cast<double>(tick() - k0) * tick_ns);
                }
            }
            loops[me].stop();
        });
    KvResult r;
    r.clocks = trial_clocks(loops);
    r.ops = static_cast<std::uint64_t>(threads) * sz.kv_ops;
    std::uint64_t fresh = 0;
    for (const PerThread& p : per) {
        fresh += p.fresh;
        r.get_ns.insert(r.get_ns.end(), p.get.begin(), p.get.end());
        r.put_ns.insert(r.put_ns.end(), p.put.begin(), p.put.end());
        r.scan_ns.insert(r.scan_ns.end(), p.scan.begin(), p.scan.end());
    }
    r.op_ns = r.get_ns;
    r.op_ns.insert(r.op_ns.end(), r.put_ns.begin(), r.put_ns.end());
    r.op_ns.insert(r.op_ns.end(), r.scan_ns.begin(), r.scan_ns.end());
    // Audit: the host-side population and the per-stripe count words must
    // both equal the preload plus every fresh insert.
    std::uint64_t meta = 0;
    for (std::size_t s = 0; s < map.num_stripes(); ++s)
        meta += main_ctx.peek(map.stripe_meta(s));
    r.audit_ok = map.host_size() == kKeyspace + fresh && meta == kKeyspace + fresh &&
                 r.op_ns.size() == r.ops;
    return r;
}

/** Thread spawn + join of `jobs` threads with an empty body, ns. */
double
spawn_ns(const Options& opts)
{
    NativeMachine machine = make_machine(opts);
    const double t0 = now_ns();
    machine.run_threads(opts.jobs, nucalock::Placement::RoundRobinNodes,
                        [](NativeContext&, int) {});
    return now_ns() - t0;
}

} // namespace

WorkloadRun
run_native_locks(const Options& opts, double seconds, Tracer& tracer)
{
    const NativeSizes sz = sizes_for(opts);
    const std::vector<LockKind> all = nucalock::locks::all_lock_kinds();

    WorkloadRun run;
    Report& r = run.report;
    std::vector<double> pass_ns, spawn, pairs_rate, handover_rate, uncontended,
        contended_rate, p50, p99, kv_rate, kv_p99;
    std::map<LockKind, std::vector<double>> per_lock_pair, per_lock_contended;
    std::vector<double> get_p50, put_p50, scan_p50;
    double q99 = 0.0;
    double kv_q99 = 0.0;
    std::size_t lat_samples = 0;
    std::uint64_t trials = 0;
    std::uint64_t kept = 0;
    std::uint64_t kept_disturbed = 0;

    repeat_for(seconds, opts.tiny ? 1 : 5, [&](int rep) {
        const double t0 = now_ns();
        const int root = tracer.add("native_locks", t0, t0, -1, rep);
        std::uint64_t pairs = 0;
        double timed_ns = 0.0; // the pass's undisturbed time

        // The uncontended ladder.
        std::vector<double> lock_medians;
        timed_span(tracer, "ladder", root, rep, [&] {
            const double c0 = cpu_ns();
            for (const LockKind kind : all) {
                const double ns = median(ladder_lock(opts, kind, sz));
                per_lock_pair[kind].push_back(ns);
                lock_medians.push_back(ns);
                pairs += static_cast<std::uint64_t>(sz.ladder_batches) *
                         static_cast<std::uint64_t>(sz.ladder_pairs);
            }
            timed_ns += cpu_ns() - c0;
        });
        uncontended.push_back(geomean(lock_medians));

        // Contended acquire/touch/release.
        std::vector<double> rates, lat;
        double contended_wall = 0.0;
        std::uint64_t handovers = 0;
        timed_span(tracer, "contended", root, rep, [&] {
            for (const LockKind kind : kContendedKinds) {
                const ContendedResult c = undisturbed_trial(
                    [&] { return contended_lock(opts, kind, sz); },
                    [&](const ContendedResult& t) {
                        r.attempted += 1;
                        if (!t.counter_ok)
                            r.fail(std::string("contended ") +
                                   nucalock::locks::lock_name(kind) +
                                   ": shared counter != threads x iterations");
                    },
                    trials);
                ++kept;
                kept_disturbed += c.clocks.undisturbed ? 0 : 1;
                const double wall = c.clocks.wall_ns;
                rates.push_back(static_cast<double>(c.acquisitions) /
                                (wall / 1e9));
                per_lock_contended[kind].push_back(
                    wall / static_cast<double>(c.acquisitions));
                lat.insert(lat.end(), c.acquire_ns.begin(), c.acquire_ns.end());
                contended_wall += wall;
                handovers += c.handovers;
                pairs += c.acquisitions;
            }
        });
        timed_ns += contended_wall;
        contended_rate.push_back(geomean(rates));
        handover_rate.push_back(static_cast<double>(handovers) /
                                (contended_wall / 1e9));
        p50.push_back(median(lat));
        p99.push_back(tail(lat, 0.99, &q99));
        lat_samples = lat.size();

        // The native KV service.
        KvResult kv;
        timed_span(tracer, "kv", root, rep, [&] {
            kv = undisturbed_trial(
                [&] { return native_kv(opts, sz); },
                [&](const KvResult& t) {
                    r.attempted += 1;
                    if (!t.audit_ok)
                        r.fail("native kv: key population audit failed");
                },
                trials);
        });
        ++kept;
        kept_disturbed += kv.clocks.undisturbed ? 0 : 1;
        timed_ns += kv.clocks.wall_ns;
        kv_rate.push_back(static_cast<double>(kv.ops) /
                          (kv.clocks.wall_ns / 1e9));
        kv_p99.push_back(tail(kv.op_ns, 0.99, &kv_q99));
        get_p50.push_back(median(kv.get_ns));
        put_p50.push_back(median(kv.put_ns));
        scan_p50.push_back(median(kv.scan_ns));
        pairs += kv.ops;

        std::vector<double> sp;
        timed_span(tracer, "spawn", root, rep, [&] {
            for (int i = 0; i < sz.spawns; ++i)
                sp.push_back(spawn_ns(opts));
        });
        spawn.push_back(median(sp));

        tracer.set_end(root, now_ns());
        pass_ns.push_back(timed_ns);
        pairs_rate.push_back(static_cast<double>(pairs) / (timed_ns / 1e9));
    });

    // Every metric is the median over passes (README.md, "Statistics").
    r.e2e("wall_s", median(pass_ns) / 1e9, "s");
    r.e2e("setup_s", median(spawn) / 1e9, "s");
    r.e2e("sim_events_per_s", median(pairs_rate), "1/s");
    r.e2e("sim_switches_per_s", median(handover_rate), "1/s");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    r.e2e("uncontended_ns", median(uncontended), "ns");
    r.e2e("contended_acq_per_s", median(contended_rate), "1/s");
    r.e2e("acquire_p50_ns", median(p50), "ns");
    r.e2e("acquire_p99_ns", median(p99), "ns");
    r.e2e("kv_ops_per_s", median(kv_rate), "1/s");
    r.e2e("kv_op_p99_ns", median(kv_p99), "ns");
    r.note("repetitions", std::to_string(pass_ns.size()));
    r.note("rep_timed_s", join(pass_ns));
    r.note("trials_run", std::to_string(trials));
    r.note("trials_kept", std::to_string(kept));
    r.note("trials_kept_disturbed", std::to_string(kept_disturbed));
    r.note("acquire_tail_quantile", std::to_string(q99));
    r.note("acquire_samples_per_pass", std::to_string(lat_samples));
    r.note("kv_op_tail_quantile", std::to_string(kv_q99));
    r.note("threads", std::to_string(opts.jobs));

    for (const LockKind kind : all)
        r.layer(std::string("locks.uncontended_ns.") +
                    nucalock::locks::lock_name(kind),
                median(per_lock_pair[kind]), "ns");
    for (const LockKind kind : kContendedKinds)
        r.layer(std::string("locks.contended_ns.") +
                    nucalock::locks::lock_name(kind),
                median(per_lock_contended[kind]), "ns");
    r.layer("structs.native.get_ns.p50", median(get_p50), "ns");
    r.layer("structs.native.put_ns.p50", median(put_p50), "ns");
    r.layer("structs.native.scan_ns.p50", median(scan_p50), "ns");
    r.layer("native.spawn_us", median(spawn) / 1e3, "us");
    run.wall_ns = median(pass_ns);
    return run;
}

} // namespace perfbench
