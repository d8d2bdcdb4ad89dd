/**
 * @file
 * One simulated run, built, instrumented and finished in one place. Every
 * simulated workload (the microbenchmarks, the application models, the KV
 * service and the checker's workloads) is only its locks, data and thread
 * body around a SimRun:
 *
 *     SimRun run(config);
 *     AnyLock<SimContext> lock(run.machine(), kind, config.params);
 *     run.add_threads([&](SimContext& ctx, int) {
 *         lock.acquire(ctx);
 *         run.enter(ctx);
 *         ...                     // the critical section
 *         ctx.cs_exit();
 *         lock.release(ctx);
 *     });
 *     return run.finish();
 *
 * Every run carries an InvariantChecker with its watchdog unarmed, so the
 * engine's fast paths stay on. A critical section marked with enter() and
 * cs_exit() is audited for mutual exclusion: a timed run stops at the
 * first violation with the checker's message, and a run under a
 * controlled Scheduler (nucacheck) leaves it to the caller's verdict.
 * SimRun allocates no simulated memory, so it moves no line id or home.
 */
#ifndef NUCALOCK_HARNESS_SIM_RUN_HPP
#define NUCALOCK_HARNESS_SIM_RUN_HPP

#include <cstdint>
#include <functional>
#include <optional>

#include "harness/results.hpp"
#include "locks/params.hpp"
#include "obs/probe.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"
#include "sim/invariants.hpp"
#include "sim/trace.hpp"
#include "topology/mapping.hpp"

namespace nucalock::harness {

/** The settings the simulated workloads share; each workload's config
 *  derives from it and adds its own knobs. The uncontested probes place
 *  their own one or two threads, so they build one per scenario. */
struct SimRunConfig
{
    Topology topology = Topology::wildfire();
    sim::LatencyModel latency = sim::LatencyModel::wildfire();
    /** Parameters of the locks the workload builds. */
    locks::LockParams params;
    int threads = 28;
    Placement placement = Placement::RoundRobinNodes;
    std::uint64_t seed = 1;
    /** OS-preemption injection (Table 4's 30-cpu multiprogrammed runs). */
    bool preemption = false;
    sim::SimTime preempt_mean_interval = 40'000'000;
    sim::SimTime preempt_duration = 10'000'000;
    /** Deterministic fault plan executed against the run (sim/faults.hpp). */
    sim::FaultPlan fault_plan;
    /** Lock-event probe sink (src/obs/); non-owning, nullptr = off. It must
     *  not change the run: the order hash is bit-identical either way. */
    obs::ProbeSink* probe = nullptr;
    /** Bin width of the time-binned bus/link utilisation series in
     *  BenchResult::contention; 0 = occupancy totals and queue-delay
     *  histograms only (always collected). */
    sim::SimTime contention_bin_ns = 0;
    /** Memory-access recorder (sim/trace.hpp); non-owning, nullptr = off.
     *  Its counts land in BenchResult::memtrace_events/_dropped. */
    sim::TraceRecorder* memory_trace = nullptr;
};

class SimRun
{
  public:
    /** Build the machine @p config describes, with the checker, the fault
     *  plan (when not empty), the probe sink, the contention series and
     *  the memory trace installed. @p scheduler (non-owning) makes it a
     *  controlled run. */
    explicit SimRun(const SimRunConfig& config,
                    sim::Scheduler* scheduler = nullptr);

    sim::SimMachine& machine() { return machine_; }
    const sim::InvariantChecker& checker() const { return checker_; }

    /** Add the config's threads at its placement, each running @p body. */
    void add_threads(std::function<void(sim::SimContext&, int)> body);

    /** Critical-section entry, with the lock held: the cs_enter marker
     *  (the checker's audit, and where a holder-preemption fault strikes),
     *  then the node handoff count and the thread id into the order hash. */
    void
    enter(sim::SimContext& ctx)
    {
        ctx.cs_enter();
        if (prev_node_ >= 0 && prev_node_ != ctx.node())
            ++handoffs_;
        prev_node_ = ctx.node();
        note(static_cast<std::uint64_t>(ctx.thread_id()));
    }

    /** One FNV-1a step of the acquisition-order hash over @p value; each
     *  note counts as one of the result's total_acquires. */
    void
    note(std::uint64_t value)
    {
        ++notes_;
        order_hash_ ^= value;
        order_hash_ *= 0x100000001b3ULL;
    }

    /** Run the machine and fill every BenchResult field but lock_timeouts.
     *  finish_times and the fairness spread need a completed run: a
     *  controlled scheduler may stop it early. */
    BenchResult finish();

  private:
    sim::SimMachine machine_;
    sim::InvariantChecker checker_;
    std::optional<sim::FaultInjector> injector_;
    sim::TraceRecorder* memory_trace_;
    int threads_;
    Placement placement_;

    std::uint64_t notes_ = 0;
    std::uint64_t handoffs_ = 0;
    int prev_node_ = -1;
    std::uint64_t order_hash_ = 0xcbf29ce484222325ULL;
};

} // namespace nucalock::harness

#endif // NUCALOCK_HARNESS_SIM_RUN_HPP
