#include "harness/sim_run.hpp"

#include <chrono>

namespace nucalock::harness {

SimRun::SimRun(const SimRunConfig& config, sim::Scheduler* scheduler)
    : machine_(config.topology, config.latency,
               sim::SimConfig{
                   .seed = config.seed,
                   .preemption = config.preemption,
                   .preempt_mean_interval = config.preempt_mean_interval,
                   .preempt_duration = config.preempt_duration}),
      // The default checker, but a timed run panics on a violation.
      checker_(sim::InvariantConfig{.panic_on_violation = scheduler == nullptr}),
      memory_trace_(config.memory_trace), threads_(config.threads),
      placement_(config.placement)
{
    machine_.install_invariants(&checker_);
    machine_.install_scheduler(scheduler);
    if (!config.fault_plan.empty()) {
        injector_.emplace(config.fault_plan);
        machine_.install_faults(&*injector_);
    }
    machine_.install_probe(config.probe);
    if (config.contention_bin_ns != 0)
        machine_.memory().enable_contention_series(config.contention_bin_ns);
    if (memory_trace_ != nullptr)
        machine_.memory().set_trace_hook(memory_trace_->hook());
}

void
SimRun::add_threads(std::function<void(sim::SimContext&, int)> body)
{
    machine_.add_threads(threads_, placement_, std::move(body));
}

BenchResult
SimRun::finish()
{
    const auto host_t0 = std::chrono::steady_clock::now();
    machine_.run();
    const auto host_t1 = std::chrono::steady_clock::now();

    BenchResult result;
    result.host_run_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(host_t1 -
                                                             host_t0)
            .count());
    result.total_time = machine_.now();
    result.total_acquires = notes_;
    if (notes_ != 0)
        result.avg_iteration_ns = static_cast<double>(machine_.now()) /
                                  static_cast<double>(notes_);
    if (notes_ > 1)
        result.node_handoff_ratio = static_cast<double>(handoffs_) /
                                    static_cast<double>(notes_ - 1);
    result.traffic = machine_.traffic();
    result.traffic_attribution = machine_.traffic_attribution();
    result.contention = machine_.contention();
    if (machine_.stop_reason() == sim::StopReason::Completed) {
        for (int t = 0; t < machine_.num_threads(); ++t)
            result.finish_times.push_back(machine_.finish_time(t));
        result.fairness_spread_pct = fairness_spread_pct(result.finish_times);
    }
    result.acquisition_order_hash = order_hash_;
    result.sim_memory_accesses = machine_.memory().num_accesses();
    result.sim_fiber_switches = machine_.fiber_switches();
    result.sim_run_ahead_picks = machine_.run_ahead_picks();
    result.sim_lazy_picks = machine_.lazy_picks();
    result.sim_replayed_picks = machine_.replayed_picks();
    if (memory_trace_ != nullptr) {
        result.memtrace_events = memory_trace_->events().size();
        result.memtrace_dropped = memory_trace_->dropped();
    }
    if (injector_) {
        result.faults_injected = injector_->injected();
        result.fault_log = injector_->log();
    }
    result.mutex_violations = checker_.mutual_exclusion_violations();
    return result;
}

} // namespace nucalock::harness
