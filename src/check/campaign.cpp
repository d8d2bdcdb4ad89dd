#include "check/campaign.hpp"

#include <algorithm>

#include "check/explore.hpp"
#include "common/logging.hpp"
#include "exec/executor.hpp"
#include "locks/adaptive_policy.hpp"
#include "obs/probe.hpp"
#include "sim/faults.hpp"

namespace nucalock::check {

namespace {

/**
 * Witness for the ADAPTIVE demote-on-death audit: counts AdaptSwitch
 * probes whose target gear is the queue and remembers the final gear, so
 * the cell can verify that a timeout storm actually demoted the lock. A
 * failed demotion CAS means another thread already switched — then the
 * final gear is the queue and the audit is still satisfied.
 */
class AdaptSwitchCounter final : public obs::ProbeSink
{
  public:
    void
    on_event(const obs::ProbeRecord& r) override
    {
        if (r.event != obs::LockEvent::AdaptSwitch)
            return;
        final_gear_ = static_cast<int>((r.a0 >> 8) & 0xff);
        if (final_gear_ == static_cast<int>(locks::AdaptGear::Queue))
            ++demotes_;
    }

    std::uint64_t demotes() const { return demotes_; }
    int final_gear() const { return final_gear_; }

  private:
    std::uint64_t demotes_ = 0;
    int final_gear_ = -1;
};

/** The per-cell overshoot budget: base + 4x every fault suspension the
 *  preset can inflict on the departing waiter (see CampaignConfig). */
std::uint64_t
overshoot_bound(const CampaignConfig& cfg, const sim::FaultPlan& plan)
{
    std::uint64_t suspensions = 0;
    for (const sim::FaultEvent& e : plan.events)
        suspensions += e.duration;
    return cfg.overshoot_base_ns + 4 * suspensions;
}

CampaignCell
run_cell(const CampaignConfig& cfg, locks::LockKind kind,
         const std::string& preset, const CampaignShape& shape,
         std::uint64_t seed)
{
    CampaignCell cell;
    cell.lock = locks::lock_name(kind);
    cell.preset = preset;
    cell.nodes = shape.nodes;
    cell.cpus_per_node = shape.cpus_per_node;
    cell.seed = seed;

    CheckSetup setup;
    setup.kind = kind;
    setup.nodes = shape.nodes;
    setup.cpus_per_node = shape.cpus_per_node;
    setup.iterations = cfg.iterations;
    setup.seed = seed;
    setup.bounded = true;
    setup.timeout_ns = cfg.timeout_ns;
    // "none" is the baseline cell: no injector at all, so its trace is
    // byte-identical to a fault-free bounded trace.
    setup.faults = preset == "none" ? std::string{} : preset;

    const auto plan =
        sim::FaultPlan::parse(setup.faults.empty() ? "none" : setup.faults,
                              seed, threads_of(setup));
    NUCA_ASSERT(plan.has_value(), "campaign preset failed to parse: ",
                preset);
    cell.overshoot_bound_ns = overshoot_bound(cfg, *plan);

    AdaptSwitchCounter adapt_probe;
    if (kind == locks::LockKind::Adaptive)
        setup.probe = &adapt_probe;

    DefaultScheduler scheduler;
    RunReport report = run_one(setup, scheduler);

    cell.stop = sim::stop_reason_name(report.stop);
    cell.steps = report.steps;
    cell.acquisitions = report.acquisitions;
    cell.timeouts = report.timeouts;
    cell.mutex_violations = report.mutex_violations;
    cell.faults_injected = report.faults_injected;
    cell.max_overshoot_ns = report.max_overshoot_ns;
    cell.abandon = report.abandon;
    cell.leaked_nodes = report.abandon.linked_abandoned();

    // ----- recovery audit -------------------------------------------------
    // run_one's own verdict first (mutex violation / deadlock / livelock /
    // lost update beyond the death allowance), then the campaign-specific
    // invariants layered on top.
    const bool run_failed = report.failed;
    if (report.failed) {
        cell.failed = true;
        cell.what = report.what;
    } else if (report.truncated()) {
        cell.failed = true;
        cell.what = "truncated: scheduler stopped before a verdict";
    } else if (report.stop != sim::StopReason::Completed) {
        cell.failed = true;
        cell.what = std::string("survivors did not complete: ") + cell.stop;
    } else if (cell.max_overshoot_ns > cell.overshoot_bound_ns) {
        cell.failed = true;
        cell.what = "abandonment overshoot " +
                    std::to_string(cell.max_overshoot_ns) + "ns exceeds " +
                    std::to_string(cell.overshoot_bound_ns) + "ns bound";
    } else if (kind == locks::LockKind::Mcs && !plan->has_death() &&
               cell.leaked_nodes != 0) {
        // MCS is the lock whose parked nodes live in the active queue; a
        // completed fault-free-of-death run must have reclaimed or
        // rejoined every one of them. (A dead holder legitimately strands
        // the walk that would have reclaimed its successors; CLH_TRY's
        // last redirect markers wait for a later arrival's walk, which
        // reclaims them, so at run end they are not leaks.)
        cell.failed = true;
        cell.what = "leaked queue nodes: " +
                    std::to_string(cell.leaked_nodes) +
                    " abandoned node(s) still linked at run end";
    }
#ifndef NUCALOCK_NO_PROBES
    // Graceful-degradation audit: an ADAPTIVE cell whose faults killed a
    // thread and whose abandonments reached the storm threshold must have
    // demoted to the queue gear (every abandonment path feeds the storm
    // detector, and the counter is monotonic across voluntary switches).
    // Probe-dependent, so it is compiled out with the probe sites.
    else if (kind == locks::LockKind::Adaptive && plan->has_death() &&
             report.abandon.abandons >=
                 locks::LockParams{}.adaptive.storm_abandons &&
             adapt_probe.demotes() == 0 &&
             adapt_probe.final_gear() !=
                 static_cast<int>(locks::AdaptGear::Queue)) {
        cell.failed = true;
        cell.what = "graceful degradation missed: " +
                    std::to_string(report.abandon.abandons) +
                    " abandonment(s) under a death plan with no demotion "
                    "to the queue gear";
    }
#endif

    if (!cell.failed)
        return cell;

    cell.trace = encode_trace(make_trace(setup, report.schedule));
    // Shrink only failures run_one itself can judge — the replay oracle
    // re-runs run_one and asks `failed`, which is blind to the campaign's
    // overshoot/leak audits (those are whole-run properties anyway).
    if (!run_failed || !cfg.shrink)
        return cell;

    const std::uint64_t step_cap = report.steps * 4 + 1000;
    const ScheduleOracle oracle = [&setup, step_cap](const Schedule& s) {
        ReplayScheduler candidate(s, step_cap);
        return run_one(setup, candidate).failed;
    };
    ExploreConfig short_cfg;
    short_cfg.max_steps = report.steps;
    const auto short_failure = find_short_failure(setup, short_cfg);
    const Schedule minimal = minimize_schedule(
        short_failure ? short_failure->schedule : report.schedule, oracle);
    Trace min_trace = make_trace(setup, minimal);
    cell.minimal_trace = encode_trace(min_trace);
    return cell;
}

} // namespace

void
CampaignConfig::apply_defaults()
{
    if (presets.empty())
        presets = {"none",  "holder", "publish",    "spinner",
                   "spike", "stall",  "holderdeath"};
    if (kinds.empty())
        for (locks::LockKind kind : locks::all_lock_kinds())
            if (locks::lock_supports_native_timeout(kind))
                kinds.push_back(kind);
    if (shapes.empty())
        shapes = {CampaignShape{2, 2}, CampaignShape{2, 4}};
    if (num_seeds <= 0)
        num_seeds = 1;
}

CampaignResult
run_campaign(CampaignConfig cfg)
{
    cfg.apply_defaults();

    // Flatten the sweep so cells shard across host threads; the nesting
    // (preset, lock, shape, seed) fixes the deterministic cell order.
    struct CellKey
    {
        std::string preset;
        locks::LockKind kind;
        CampaignShape shape;
        std::uint64_t seed;
    };
    std::vector<CellKey> keys;
    for (const std::string& preset : cfg.presets)
        for (locks::LockKind kind : cfg.kinds)
            for (const CampaignShape& shape : cfg.shapes)
                for (int s = 0; s < cfg.num_seeds; ++s)
                    keys.push_back(CellKey{
                        preset, kind, shape,
                        cfg.first_seed + static_cast<std::uint64_t>(s)});

    exec::Executor executor(cfg.jobs);
    CampaignResult result;
    result.cells = executor.map<CampaignCell>(
        keys.size(), [&](std::size_t i) {
            const CellKey& k = keys[i];
            return run_cell(cfg, k.kind, k.preset, k.shape, k.seed);
        });

    for (locks::LockKind kind : cfg.kinds) {
        CampaignLockSummary row;
        row.lock = locks::lock_name(kind);
        result.per_lock.push_back(row);
    }
    for (const CampaignCell& cell : result.cells) {
        if (cell.failed)
            ++result.failures;
        for (CampaignLockSummary& row : result.per_lock) {
            if (row.lock != cell.lock)
                continue;
            ++row.cells;
            if (cell.failed)
                ++row.failures;
            row.acquisitions += cell.acquisitions;
            row.timeouts += cell.timeouts;
            row.abandons += cell.abandon.abandons;
            row.parked += cell.abandon.parked;
            row.grant_races += cell.abandon.grant_races;
            row.reclaims += cell.abandon.reclaims;
            row.rejoins += cell.abandon.rejoins;
            row.unparks += cell.abandon.unparks;
            row.leaked_nodes += cell.leaked_nodes;
            row.max_overshoot_ns =
                std::max(row.max_overshoot_ns, cell.max_overshoot_ns);
        }
    }
    return result;
}

} // namespace nucalock::check
