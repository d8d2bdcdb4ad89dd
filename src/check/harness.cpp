#include "check/harness.hpp"

#include <algorithm>
#include <functional>

#include "check/broken.hpp"
#include "common/logging.hpp"
#include "harness/sim_run.hpp"
#include "locks/instrumented.hpp" // detail::lock_clock_ns

namespace nucalock::check {

using locks::AnyLock;
using sim::SimContext;
using sim::SimMachine;

RunReport
run_one(const CheckSetup& setup, sim::Scheduler& scheduler)
{
    NUCA_ASSERT(setup.nodes > 0 && setup.cpus_per_node > 0);
    NUCA_ASSERT(setup.iterations > 0);

    // Fault injection: the plan derives deterministically from the spec,
    // seed and thread count, so a trace carrying the spec replays the same
    // disturbances. Death events bound how many counter updates may be lost
    // (a thread killed between cs_enter and its store loses exactly one).
    harness::SimRunConfig config;
    config.topology = Topology::symmetric(setup.nodes, setup.cpus_per_node);
    config.threads = threads_of(setup);
    config.seed = setup.seed;
    config.probe = setup.probe;
    std::uint64_t deaths = 0;
    if (!setup.faults.empty()) {
        auto plan = sim::FaultPlan::parse(setup.faults, setup.seed,
                                          threads_of(setup));
        NUCA_ASSERT(plan.has_value(),
                    "unknown fault spec (validate via setup_from_trace)");
        for (const sim::FaultEvent& e : plan->events)
            if (e.kind == sim::FaultKind::ThreadDeath ||
                e.kind == sim::FaultKind::HolderDeath)
                ++deaths;
        config.fault_plan = std::move(*plan);
    }
    RecordingScheduler recorder(scheduler);
    harness::SimRun run(config, &recorder);
    SimMachine& machine = run.machine();

    // Either the real algorithm or the planted-bug variant, behind the same
    // three calls the workload makes.
    std::optional<AnyLock<SimContext>> real;
    std::optional<BrokenTatasLock<SimContext>> broken;
    std::optional<BrokenAdaptiveLock<SimContext>> broken_adaptive;
    std::function<bool(SimContext&)> acquire_ok;
    std::function<void(SimContext&)> release;
    if (setup.use_broken_tatas) {
        broken.emplace(machine);
        if (setup.bounded)
            acquire_ok = [&](SimContext& ctx) {
                return locks::acquire_for(*broken, ctx, setup.timeout_ns);
            };
        else
            acquire_ok = [&](SimContext& ctx) {
                broken->acquire(ctx);
                return true;
            };
        release = [&](SimContext& ctx) { broken->release(ctx); };
    } else if (setup.use_broken_adaptive) {
        broken_adaptive.emplace(machine);
        if (setup.bounded)
            acquire_ok = [&](SimContext& ctx) {
                return locks::acquire_for(*broken_adaptive, ctx,
                                          setup.timeout_ns);
            };
        else
            acquire_ok = [&](SimContext& ctx) {
                broken_adaptive->acquire(ctx);
                return true;
            };
        release = [&](SimContext& ctx) { broken_adaptive->release(ctx); };
    } else {
        real.emplace(machine, setup.kind);
        if (setup.bounded)
            acquire_ok = [&](SimContext& ctx) {
                return real->acquire_for(ctx, setup.timeout_ns);
            };
        else
            acquire_ok = [&](SimContext& ctx) {
                real->acquire(ctx);
                return true;
            };
        release = [&](SimContext& ctx) { real->release(ctx); };
    }

    const sim::MemRef counter = machine.alloc(0, 0);
    std::uint64_t timeouts = 0;
    std::uint64_t max_overshoot = 0;

    run.add_threads([&](SimContext& ctx, int) {
        for (std::uint32_t i = 0; i < setup.iterations; ++i) {
            ctx.cs_wait_begin();
            const std::uint64_t t0 =
                setup.bounded ? locks::detail::lock_clock_ns(ctx) : 0;
            if (!acquire_ok(ctx)) {
                // Abandonment-latency audit: a failed acquire_for must
                // return close to its deadline; the excess is the lock's
                // documented recovery overshoot.
                const std::uint64_t taken =
                    locks::detail::lock_clock_ns(ctx) - t0;
                if (taken > setup.timeout_ns)
                    max_overshoot =
                        std::max(max_overshoot, taken - setup.timeout_ns);
                ctx.cs_wait_abort();
                ++timeouts;
                continue;
            }
            run.enter(ctx);
            const std::uint64_t v = ctx.load(counter);
            ctx.store(counter, v + 1);
            ctx.cs_exit();
            release(ctx);
        }
    });
    const harness::BenchResult result = run.finish();
    const sim::InvariantChecker& checker = run.checker();

    RunReport report;
    report.stop = machine.stop_reason();
    report.steps = machine.sched_steps();
    report.schedule = recorder.taken();
    report.acquisitions = checker.acquisitions();
    report.mutex_violations = result.mutex_violations;
    report.max_bypasses = checker.max_bypasses();
    report.max_node_streak = checker.max_node_streak();
    report.counter = machine.memory().peek(counter);
    report.timeouts = timeouts;
    report.max_overshoot_ns = max_overshoot;
    report.faults_injected = result.faults_injected;
    report.fault_log = result.fault_log;
    if (real)
        report.abandon = real->abandon_stats();

    if (report.mutex_violations != 0) {
        report.failed = true;
        report.what = "mutual exclusion violated (" +
                      std::to_string(report.mutex_violations) + "x): " +
                      (checker.violations().empty()
                           ? std::string("?")
                           : checker.violations().front());
    } else if (report.stop == sim::StopReason::Deadlock) {
        report.failed = true;
        report.what = "deadlock: every remaining thread is parked";
    } else if (report.stop == sim::StopReason::TimeLimit) {
        report.failed = true;
        report.what = "livelock: simulated time limit exceeded";
    } else if (setup.bypass_bound != 0 &&
               checker.max_bypasses() > setup.bypass_bound) {
        report.failed = true;
        report.what = "starvation bound exceeded: a wait was bypassed " +
                      std::to_string(checker.max_bypasses()) + " times (bound " +
                      std::to_string(setup.bypass_bound) + ")";
    } else if (report.stop == sim::StopReason::Completed &&
               (report.counter > report.acquisitions ||
                report.counter + deaths < report.acquisitions)) {
        // Belt and braces: the checker flags the double-entry itself, but a
        // lost update on the protected counter is the user-visible symptom.
        // Each ThreadDeath event may legitimately strand one entered-but-
        // not-stored update, so death plans get exactly that much slack.
        report.failed = true;
        report.what = "lost update: counter=" + std::to_string(report.counter) +
                      " after " + std::to_string(report.acquisitions) +
                      " acquisitions";
    }
    return report;
}

Trace
make_trace(const CheckSetup& setup, const Schedule& schedule)
{
    Trace trace;
    trace.lock = setup.use_broken_tatas      ? kBrokenTatasName
                 : setup.use_broken_adaptive ? kBrokenAdaptiveName
                                             : locks::lock_name(setup.kind);
    trace.nodes = setup.nodes;
    trace.cpus_per_node = setup.cpus_per_node;
    trace.iterations = setup.iterations;
    trace.seed = setup.seed;
    trace.bounded = setup.bounded;
    trace.timeout_ns = setup.timeout_ns;
    trace.faults = setup.faults;
    trace.schedule = schedule;
    return trace;
}

std::optional<CheckSetup>
setup_from_trace(const Trace& trace)
{
    CheckSetup setup;
    if (trace.lock == kBrokenTatasName) {
        setup.use_broken_tatas = true;
    } else if (trace.lock == kBrokenAdaptiveName) {
        setup.use_broken_adaptive = true;
    } else {
        const auto kind = locks::parse_lock_name(trace.lock);
        if (!kind)
            return std::nullopt;
        setup.kind = *kind;
    }
    setup.nodes = trace.nodes;
    setup.cpus_per_node = trace.cpus_per_node;
    setup.iterations = trace.iterations;
    setup.seed = trace.seed;
    setup.bounded = trace.bounded;
    setup.timeout_ns = trace.timeout_ns;
    if (!trace.faults.empty()) {
        // Validate the spec here (the decoder only checks syntax) so
        // run_one can assert instead of crashing on a corrupt trace.
        const int threads = trace.nodes * trace.cpus_per_node;
        if (!sim::FaultPlan::parse(trace.faults, trace.seed, threads))
            return std::nullopt;
        setup.faults = trace.faults;
    }
    return setup;
}

} // namespace nucalock::check
