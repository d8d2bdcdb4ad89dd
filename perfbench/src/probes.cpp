/**
 * @file
 * Isolated layer probes: each times calls into one module's public
 * functions from outside, in a loop of fixed size, and reports host ns per
 * call (the median over a few repetitions). They feed the per-layer
 * metrics of the traced run and the modelled sim.share.* split.
 */
#include <atomic>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "harness/newbench.hpp"
#include "locks/any_lock.hpp"
#include "native/machine.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/probe.hpp"
#include "obs/report.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/invariants.hpp"
#include "sim/memory.hpp"
#include "sim/ready_queue.hpp"
#include "workloads.hpp"

namespace perfbench {

using nucalock::Topology;
using nucalock::locks::LockKind;
using nucalock::native::NativeContext;
using nucalock::native::NativeMachine;

namespace {

constexpr int kReps = 5;

/** Median over kReps of @p fn(), which returns ns per call. */
template <typename Fn>
double
median_of(Fn&& fn, int reps = kReps)
{
    std::vector<double> v;
    for (int i = 0; i < reps; ++i)
        v.push_back(fn());
    return median(v);
}

// ----- sim.fiber --------------------------------------------------------

/** ns per resume+yield pair, round-robin over @p n fibers. */
double
fiber_switch_ns(int n, int rounds)
{
    bool stop = false;
    std::vector<std::unique_ptr<nucalock::sim::Fiber>> fibers;
    std::vector<nucalock::sim::Fiber*> self(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        nucalock::sim::Fiber** slot = &self[static_cast<std::size_t>(i)];
        fibers.push_back(std::make_unique<nucalock::sim::Fiber>([slot, &stop] {
            while (!stop)
                (*slot)->yield();
        }));
        *slot = fibers.back().get();
    }
    for (auto& f : fibers) // first entry: stacks faulted in, untimed
        f->resume();
    const double t0 = now_ns();
    for (int r = 0; r < rounds; ++r)
        for (auto& f : fibers)
            f->resume();
    const double ns = (now_ns() - t0) / (static_cast<double>(rounds) * n);
    stop = true;
    for (auto& f : fibers)
        f->resume();
    return ns;
}

// ----- sim.ready_queue ----------------------------------------------------

/** ns per pick + re-key of the top thread (the engine's per-event step). */
double
ready_queue_update_ns(int n, int updates)
{
    nucalock::sim::ReadyQueue q;
    q.reset(static_cast<std::size_t>(n));
    nucalock::Xoshiro256 rng(7);
    for (int t = 0; t < n; ++t)
        q.push_or_update(t, rng.next_below(1000));
    const double t0 = now_ns();
    for (int i = 0; i < updates; ++i) {
        const int tid = q.top_tid();
        q.push_or_update(tid, q.top_wake() + 1 + rng.next_below(1000));
    }
    return (now_ns() - t0) / updates;
}

/** ns per entry of push_bulk, re-inserting 64 popped threads of @p n. */
double
ready_queue_push_bulk_ns(int n, int batches)
{
    nucalock::sim::ReadyQueue q;
    q.reset(static_cast<std::size_t>(n));
    nucalock::Xoshiro256 rng(11);
    for (int t = 0; t < n; ++t)
        q.push_or_update(t, rng.next_below(100000));
    std::vector<nucalock::sim::ReadyQueue::Entry> batch;
    double timed = 0.0;
    std::size_t entries = 0;
    for (int b = 0; b < batches; ++b) {
        batch.clear();
        for (int k = 0; k < 64; ++k) {
            const nucalock::sim::SimTime wake = q.top_wake();
            const int tid = q.top_tid();
            q.remove(tid);
            batch.push_back({wake + 1 + rng.next_below(100000), tid});
        }
        const double t0 = now_ns();
        q.push_bulk(batch.data(), batch.size());
        timed += now_ns() - t0;
        entries += batch.size();
    }
    return timed / static_cast<double>(entries);
}

// ----- sim.memory ---------------------------------------------------------

/** Access patterns, each a two-access cycle after one warm-up cycle. */
enum class Pattern
{
    LoadHit,          ///< cpu 0 reloads its own cached line
    LoadLocal,        ///< a node-0 peer writes, cpu 0 re-fetches locally
    LoadRemote,       ///< a node-1 cpu writes, cpu 0 re-fetches remotely
    StoreInvalLocal,  ///< a node-0 peer reads, cpu 0's store invalidates it
    StoreInvalRemote, ///< a node-1 cpu reads, cpu 0's store invalidates it
    CasRemote,        ///< cpus of both nodes cas the line in turn
};

const std::vector<std::pair<const char*, Pattern>> kPatterns = {
    {"load_hit", Pattern::LoadHit},
    {"load_local", Pattern::LoadLocal},
    {"load_remote", Pattern::LoadRemote},
    {"store_inval_local", Pattern::StoreInvalLocal},
    {"store_inval_remote", Pattern::StoreInvalRemote},
    {"cas_remote", Pattern::CasRemote},
};

/** ns per SimMemory::access in @p p, with traffic attribution on or off. */
double
memory_access_ns(Pattern p, bool attributed, int cycles)
{
    using nucalock::sim::MemOp;
    const Topology topo = Topology::wildfire();
    nucalock::sim::SimMemory mem(topo, nucalock::sim::LatencyModel::wildfire());
    const nucalock::sim::MemRef line = mem.alloc(0, 0);
    if (attributed)
        mem.set_tx_context(1, nucalock::sim::TxPhase::AcquireSpin);
    const int peer = 1;                         // node 0
    const int remote = topo.cpus_of_node(1)[0]; // node 1
    nucalock::sim::SimTime now = 0;
    const auto op = [&](MemOp kind, int cpu, std::uint64_t a,
                        std::uint64_t b) {
        now = mem.access(kind, cpu, now, line, a, b).complete;
    };
    const auto cycle = [&](std::uint64_t i) {
        switch (p) {
          case Pattern::LoadHit:
            op(MemOp::Load, 0, 0, 0);
            op(MemOp::Load, 0, 0, 0);
            break;
          case Pattern::LoadLocal:
            op(MemOp::Store, peer, i, 0);
            op(MemOp::Load, 0, 0, 0);
            break;
          case Pattern::LoadRemote:
            op(MemOp::Store, remote, i, 0);
            op(MemOp::Load, 0, 0, 0);
            break;
          case Pattern::StoreInvalLocal:
            op(MemOp::Load, peer, 0, 0);
            op(MemOp::Store, 0, i, 0);
            break;
          case Pattern::StoreInvalRemote:
            op(MemOp::Load, remote, 0, 0);
            op(MemOp::Store, 0, i, 0);
            break;
          case Pattern::CasRemote:
            op(MemOp::Cas, remote, i, i + 1);
            op(MemOp::Cas, 0, i + 1, i + 2);
            break;
        }
    };
    cycle(0);
    const double t0 = now_ns();
    for (int i = 1; i <= cycles; ++i)
        cycle(static_cast<std::uint64_t>(i) * 2);
    return (now_ns() - t0) / (2.0 * cycles);
}

/** ns per line of SimContext::touch_array (64-line writes, one thread). */
double
touch_line_ns(int calls)
{
    using nucalock::sim::SimContext;
    nucalock::sim::SimMachine machine(Topology::wildfire());
    const nucalock::sim::MemRef array = machine.alloc_array(64, 0, 0);
    machine.add_thread(0, [&](SimContext& ctx) {
        for (int i = 0; i < calls; ++i)
            ctx.touch_array(array, 64, true);
    });
    const double t0 = now_ns();
    machine.run();
    return (now_ns() - t0) / (64.0 * calls);
}

/** ns of one store that invalidates 1023 sharers over 16 nodes. */
double
store_inval_s1024_ns(int cycles)
{
    using nucalock::sim::MemOp;
    const Topology topo = Topology::symmetric(16, 64);
    nucalock::sim::SimMemory mem(topo, nucalock::sim::LatencyModel::wildfire());
    const nucalock::sim::MemRef line = mem.alloc(0, 0);
    nucalock::sim::SimTime now = 0;
    std::vector<double> stores;
    for (int c = 0; c < cycles; ++c) {
        for (int cpu = 1; cpu < topo.num_cpus(); ++cpu)
            now = mem.access(MemOp::Load, cpu, now, line).complete;
        const std::uint64_t k0 = tick();
        now = mem.access(MemOp::Store, 0, now, line,
                         static_cast<std::uint64_t>(c) + 1)
                  .complete;
        stores.push_back(static_cast<double>(tick() - k0) * ns_per_tick());
    }
    return median(stores);
}

// ----- sim.invariants / sim.machine --------------------------------------

/** ns per wait-begin + enter + exit triple over 28 threads. */
double
invariants_ns(int cycles)
{
    nucalock::sim::InvariantChecker checker;
    nucalock::sim::SimTime t = 0;
    const double t0 = now_ns();
    for (int i = 0; i < cycles; ++i) {
        const int tid = i % 28;
        const int node = tid % 2;
        checker.on_wait_begin(tid, node, t++);
        checker.on_enter(tid, node, t++);
        checker.on_exit(tid, node, t++);
    }
    const double ns = (now_ns() - t0) / cycles;
    if (checker.mutual_exclusion_violations() != 0)
        return -1.0;
    return ns;
}

/** ms to build and destroy a machine with @p threads idle threads. */
double
machine_build_ms(const Topology& topo, int threads)
{
    const double t0 = now_ns();
    {
        nucalock::sim::SimMachine machine(topo);
        machine.add_threads(threads, nucalock::Placement::RoundRobinNodes,
                            [](nucalock::sim::SimContext&, int) {});
    }
    return (now_ns() - t0) / 1e6;
}

// ----- obs ------------------------------------------------------------------

nucalock::harness::NewBenchConfig
probe_config(const Options& opts, std::uint32_t iters)
{
    nucalock::harness::NewBenchConfig config;
    config.iterations_per_thread = iters;
    config.critical_work = 1500;
    config.seed = opts.seed;
    return config;
}

// ----- native ladder ---------------------------------------------------

constexpr int kPairs = 2000;
constexpr int kBatches = 9;

/** Median ns per call of @p pair over kBatches fixed batches. */
template <typename Fn>
double
batch_ns(Fn&& pair)
{
    for (int i = 0; i < kPairs; ++i)
        pair();
    std::vector<double> v;
    for (int b = 0; b < kBatches; ++b) {
        const double t0 = now_ns();
        for (int i = 0; i < kPairs; ++i)
            pair();
        v.push_back((now_ns() - t0) / kPairs);
    }
    return median(v);
}

/** MiB of resident memory gained by @p pairs uncontended acquisitions. */
double
rss_growth_mb(LockKind kind, int pairs)
{
    NativeMachine machine(Topology::symmetric(2, 2));
    nucalock::locks::AnyLock<NativeContext> lock(machine, kind);
    NativeContext ctx = machine.make_context(0, 0);
    const double before = current_rss_mb();
    for (int i = 0; i < pairs; ++i) {
        lock.acquire(ctx);
        lock.release(ctx);
    }
    return current_rss_mb() - before;
}

} // namespace

LayerCosts
run_probes(const Options& opts, Report& r, Tracer& tracer)
{
    LayerCosts c;
    const double t_all = now_ns();
    const int root = tracer.add("probes", t_all, t_all, -1, 0);
    const int scale = opts.tiny ? 10 : 1;
    const auto span = [&](const char* name, auto&& fn) {
        timed_span(tracer, name, root, 0, fn);
    };

    span("sim.fiber", [&] {
        c.switch_ns_t28 =
            median_of([&] { return fiber_switch_ns(28, 20000 / scale); });
        c.switch_ns_t1024 =
            median_of([&] { return fiber_switch_ns(1024, 500 / scale); });
    });
    r.layer("sim.fiber.switch_ns.t28", c.switch_ns_t28, "ns");
    r.layer("sim.fiber.switch_ns.t1024", c.switch_ns_t1024, "ns");

    span("sim.ready_queue", [&] {
        c.rq_update_ns_t28 = median_of(
            [&] { return ready_queue_update_ns(28, 500000 / scale); });
        c.rq_update_ns_t1024 = median_of(
            [&] { return ready_queue_update_ns(1024, 500000 / scale); });
    });
    double bulk = 0.0;
    span("sim.ready_queue.push_bulk",
         [&] { bulk = median_of([&] {
                   return ready_queue_push_bulk_ns(1024, 2000 / scale);
               }); });
    r.layer("sim.ready_queue.update_ns.t28", c.rq_update_ns_t28, "ns");
    r.layer("sim.ready_queue.update_ns.t1024", c.rq_update_ns_t1024, "ns");
    r.layer("sim.ready_queue.push_bulk_ns.t1024", bulk, "ns");

    span("sim.memory", [&] {
        double sum = 0.0;
        for (const auto& [name, pattern] : kPatterns) {
            const double off = median_of(
                [&] { return memory_access_ns(pattern, false, 100000 / scale); });
            const double on = median_of(
                [&] { return memory_access_ns(pattern, true, 100000 / scale); });
            r.layer(std::string("sim.memory.access_ns.") + name, off, "ns");
            r.layer(std::string("sim.memory.access_ns.") + name + ".attr", on,
                    "ns");
            sum += off;
        }
        c.access_ns = sum / static_cast<double>(kPatterns.size());
        r.layer("sim.memory.touch_line_ns",
                median_of([&] { return touch_line_ns(20000 / scale); }), "ns");
        r.layer("sim.memory.store_inval_ns.s1024",
                store_inval_s1024_ns(opts.tiny ? 5 : 40), "ns");
    });

    span("sim.invariants", [&] {
        c.invariants_ns =
            median_of([&] { return invariants_ns(300000 / scale); });
    });
    if (c.invariants_ns < 0.0)
        r.fail("InvariantChecker reported a violation on a serial trace");
    r.layer("sim.invariants.enter_exit_ns", c.invariants_ns, "ns");

    span("sim.machine", [&] {
        r.layer("sim.machine.build_ms.t28", median_of([&] {
                    return machine_build_ms(Topology::wildfire(), 28);
                }, 9),
                "ms");
        r.layer("sim.machine.build_ms.t1024", median_of([&] {
                    return machine_build_ms(Topology::symmetric(16, 64), 1024);
                }),
                "ms");
    });

    // obs: the report writer and validator over eight instrumented runs.
    span("obs.report", [&] {
        std::vector<std::unique_ptr<nucalock::obs::MetricsRegistry>> regs;
        std::vector<nucalock::obs::ReportRun> runs;
        for (const LockKind kind : nucalock::locks::paper_lock_kinds()) {
            regs.push_back(std::make_unique<nucalock::obs::MetricsRegistry>());
            auto config = probe_config(opts, 3);
            config.probe = regs.back().get();
            const auto res = nucalock::harness::run_newbench(kind, config);
            regs.back()->finalize();
            runs.emplace_back(nucalock::locks::lock_name(kind), res,
                              regs.back().get());
        }
        nucalock::obs::ReportConfig rc;
        rc.tool = "perfbench";
        rc.bench = "new";
        rc.nodes = 2;
        rc.cpus_per_node = 14;
        rc.threads = 28;
        rc.critical_work = 1500;
        rc.private_work = 4000;
        rc.iterations = 3;
        rc.seed = opts.seed;
        std::string text;
        const double write_ms = median_of([&] {
            std::ostringstream os;
            const double t0 = now_ns();
            nucalock::obs::write_report(os, rc, runs);
            const double ms = (now_ns() - t0) / 1e6;
            text = os.str();
            return ms;
        });
        bool valid = true;
        const double validate_ms = median_of([&] {
            std::string error;
            const double t0 = now_ns();
            valid = nucalock::obs::validate_report_text(text, &error) && valid;
            return (now_ns() - t0) / 1e6;
        });
        r.attempted += 1;
        if (!valid)
            r.fail("obs: the written report does not validate");
        r.layer("obs.report.write_ms", write_ms, "ms");
        r.layer("obs.report.validate_ms", validate_ms, "ms");
    });

    // obs: a metrics sink on versus off must not change the simulated run.
    span("obs.probe.sim", [&] {
        std::vector<double> on, off;
        std::uint64_t acqs = 1;
        for (int i = 0; i < (opts.tiny ? 1 : 5); ++i) {
            nucalock::obs::MetricsRegistry reg;
            auto config = probe_config(opts, opts.tiny ? 3 : 20);
            const auto plain = nucalock::harness::run_newbench(LockKind::HboGt,
                                                               config);
            config.probe = &reg;
            const auto probed =
                nucalock::harness::run_newbench(LockKind::HboGt, config);
            r.attempted += 1;
            if (plain.acquisition_order_hash != probed.acquisition_order_hash)
                r.fail("obs: a metrics sink changed the acquisition order");
            off.push_back(plain.host_run_ns);
            on.push_back(probed.host_run_ns);
            acqs = plain.total_acquires;
        }
        r.layer("obs.probe.sim_ns_per_acq",
                (median(on) - median(off)) / static_cast<double>(acqs), "ns");
    });

    // native ladder: raw atomic floor -> template -> AnyLock -> probes ->
    // phase hooks, each an uncontended acquire/release pair on one thread.
    span("native.ladder", [&] {
        std::atomic<std::uint64_t> word{0};
        r.layer("native.floor_ns", median_of([&] {
                    return batch_ns([&] {
                        std::uint64_t expected = 0;
                        word.compare_exchange_strong(
                            expected, 1, std::memory_order_acq_rel,
                            std::memory_order_acquire);
                        word.store(0, std::memory_order_release);
                    });
                }),
                "ns");
        NativeMachine machine(Topology::symmetric(2, 2));
        nucalock::locks::TatasLock<NativeContext> tatas(machine);
        NativeContext ctx = machine.make_context(0, 0);
        r.layer("locks.template_ns", median_of([&] {
                    return batch_ns([&] {
                        tatas.acquire(ctx);
                        tatas.release(ctx);
                    });
                }),
                "ns");
        nucalock::locks::AnyLock<NativeContext> any(machine, LockKind::Tatas);
        r.layer("locks.anylock_ns", median_of([&] {
                    return batch_ns([&] {
                        any.acquire(ctx);
                        any.release(ctx);
                    });
                }),
                "ns");

        nucalock::obs::MetricsRegistry reg;
        nucalock::obs::ThreadSafeSink sink(reg);
        machine.install_probe(&sink);
        NativeContext probed = machine.make_context(1, 1);
        r.layer("obs.probe.native_ns", median_of([&] {
                    return batch_ns([&] {
                        any.acquire(probed);
                        any.release(probed);
                    });
                }),
                "ns");

        nucalock::obs::FakeCounterSource source;
        nucalock::obs::NativeCounterSession session(source);
        machine.install_phase_hooks(&session);
        NativeContext hooked = machine.make_context(2, 2);
        r.layer("native.phase_hooks_ns", median_of([&] {
                    return batch_ns([&] {
                        any.acquire(hooked);
                        any.release(hooked);
                    });
                }),
                "ns");
        machine.install_phase_hooks(nullptr);
        machine.install_probe(nullptr);
        session.finish();
    });

    span("native.rss", [&] {
        const int pairs = opts.tiny ? 20000 : 500000;
        r.layer("native.rss_growth_mb.CLH_TRY",
                rss_growth_mb(LockKind::ClhTry, pairs), "MB");
        r.layer("native.rss_growth_mb.TATAS",
                rss_growth_mb(LockKind::Tatas, pairs), "MB");
    });

    tracer.set_end(root, now_ns());
    return c;
}

void
add_shares(const WorkloadRun& run, const LayerCosts& costs, Report& r)
{
    const bool big = run.sim_threads > 28;
    const double switch_ns = big ? costs.switch_ns_t1024 : costs.switch_ns_t28;
    const double rq_ns = big ? costs.rq_update_ns_t1024 : costs.rq_update_ns_t28;
    const double host = run.host_run_ns;
    const auto events = static_cast<double>(run.counts.events);
    const double fiber = switch_ns * static_cast<double>(run.counts.switches) / host;
    // Every memory event re-keys the issuing thread in the ready queue.
    const double rq = rq_ns * events / host;
    const double memory = costs.access_ns * events / host;
    const double inv = costs.invariants_ns *
                       static_cast<double>(run.counts.acquisitions) / host;
    r.layer("sim.share.fiber", fiber, "ratio");
    r.layer("sim.share.ready_queue", rq, "ratio");
    r.layer("sim.share.memory", memory, "ratio");
    r.layer("sim.share.invariants", inv, "ratio");
    r.layer("sim.share.rest", 1.0 - fiber - rq - memory - inv, "ratio");
}

} // namespace perfbench
