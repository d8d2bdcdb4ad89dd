#include "obs/report.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

namespace nucalock::obs {

namespace {

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

void
write_histogram(JsonWriter& w, const stats::LogHistogram& h)
{
    w.begin_object();
    w.kv("count", h.count());
    w.kv("mean", h.mean());
    w.kv("p50", h.percentile(50.0));
    w.kv("p90", h.percentile(90.0));
    w.kv("p99", h.percentile(99.0));
    w.kv("max", h.percentile(100.0));
    w.end_object();
}

void
write_summary(JsonWriter& w, const stats::Summary& s)
{
    w.begin_object();
    w.kv("count", s.count());
    w.kv("mean", s.mean());
    w.kv("min", s.min());
    w.kv("max", s.max());
    w.kv("stddev", s.stddev());
    w.end_object();
}

void
write_traffic(JsonWriter& w, const sim::TrafficStats& t)
{
    w.begin_object();
    w.kv("local_tx", t.local_tx);
    w.kv("global_tx", t.global_tx);
    w.kv("data_fetch_tx", t.data_fetch_tx);
    w.kv("invalidation_tx", t.invalidation_tx);
    w.kv("atomic_tx", t.atomic_tx);
    w.end_object();
}

void
write_result(JsonWriter& w, const harness::BenchResult& r)
{
    w.begin_object();
    w.kv("total_time_ns", static_cast<std::uint64_t>(r.total_time));
    w.kv("total_acquires", r.total_acquires);
    w.kv("avg_iteration_ns", r.avg_iteration_ns);
    w.kv("node_handoff_ratio", r.node_handoff_ratio);
    w.kv("fairness_spread_pct", r.fairness_spread_pct);
    w.kv("acquisition_order_hash", hex64(r.acquisition_order_hash));
    w.kv("sim_memory_accesses", r.sim_memory_accesses);
    w.kv("sim_fiber_switches", r.sim_fiber_switches);
    w.key("traffic");
    write_traffic(w, r.traffic);
    w.kv("faults_injected", r.faults_injected);
    w.kv("mutex_violations", r.mutex_violations);
    w.kv("lock_timeouts", r.lock_timeouts);
    w.kv("memtrace_events", r.memtrace_events);
    w.kv("memtrace_dropped", r.memtrace_dropped);
    w.end_object();
}

void
write_tx_count(JsonWriter& w, const sim::TxCount& c)
{
    w.begin_object();
    w.kv("local_tx", c.local_tx);
    w.kv("global_tx", c.global_tx);
    w.end_object();
}

/** The v2 per-run "traffic" object (attribution + per-acquisition rates). */
void
write_run_traffic(JsonWriter& w, const harness::BenchResult& r,
                  const MetricsRegistry* registry)
{
    const TrafficMetrics tm =
        fold_traffic(r.traffic, r.traffic_attribution, r.contention,
                     r.total_acquires, registry);
    w.begin_object();
    w.kv("local_tx_per_acquisition", tm.local_tx_per_acquisition());
    w.kv("global_tx_per_acquisition", tm.global_tx_per_acquisition());
    w.key("per_lock");
    w.begin_array();
    for (const LockTrafficView& lock : tm.locks) {
        w.begin_object();
        w.kv("lock_id", hex64(lock.lock_id));
        w.kv("acquisitions", lock.acquisitions);
        w.kv("local_tx", lock.tx.totals().local_tx);
        w.kv("global_tx", lock.tx.totals().global_tx);
        w.kv("local_tx_per_acquisition", lock.local_per_acquisition());
        w.kv("global_tx_per_acquisition", lock.global_per_acquisition());
        w.key("phases");
        w.begin_object();
        for (int p = 0; p < sim::kNumTxPhases; ++p) {
            w.key(sim::tx_phase_name(static_cast<sim::TxPhase>(p)));
            write_tx_count(w, lock.tx.by_phase[static_cast<std::size_t>(p)]);
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("per_node");
    w.begin_array();
    for (std::size_t node = 0; node < r.traffic_attribution.per_node.size();
         ++node) {
        w.begin_object();
        w.kv("node", static_cast<std::uint64_t>(node));
        w.kv("local_tx", r.traffic_attribution.per_node[node].local_tx);
        w.kv("global_tx", r.traffic_attribution.per_node[node].global_tx);
        w.end_object();
    }
    w.end_array();
    w.key("attributed");
    write_tx_count(w, tm.attributed);
    w.key("unattributed");
    write_tx_count(w, tm.unattributed);
    w.end_object();
}

/** The v2 per-run "contention" object (per-resource queueing). */
void
write_run_contention(JsonWriter& w, const sim::ContentionStats& c)
{
    w.begin_object();
    w.kv("sim_time_ns", static_cast<std::uint64_t>(c.sim_time_ns));
    w.kv("series_bin_ns", static_cast<std::uint64_t>(c.series_bin_ns));
    w.key("resources");
    w.begin_array();
    for (const sim::ResourceUsage& r : c.resources) {
        w.begin_object();
        w.kv("name", r.name);
        w.kv("node", static_cast<std::int64_t>(r.node));
        w.kv("transactions", r.transactions);
        w.kv("busy_ns", static_cast<std::uint64_t>(r.busy_ns));
        w.kv("queue_ns", static_cast<std::uint64_t>(r.queue_ns));
        w.kv("utilization",
             c.sim_time_ns == 0 ? 0.0
                                : static_cast<double>(r.busy_ns) /
                                      static_cast<double>(c.sim_time_ns));
        w.key("queue_delay_ns");
        write_histogram(w, r.queue_delay_ns);
        if (r.series_bin_ns != 0) {
            w.key("busy_ns_bins");
            w.begin_array();
            for (const std::uint64_t b : r.busy_ns_bins)
                w.value(b);
            w.end_array();
            w.key("tx_bins");
            w.begin_array();
            for (const std::uint64_t b : r.tx_bins)
                w.value(b);
            w.end_array();
        }
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

void
write_lock_metrics(JsonWriter& w, const LockMetrics& lm)
{
    w.begin_object();
    w.kv("lock_id", hex64(lm.lock_id));
    w.kv("attempts", lm.attempts);
    w.kv("try_attempts", lm.try_attempts);
    w.kv("acquisitions", lm.acquisitions);
    w.kv("releases", lm.releases);
    w.kv("handovers_local", lm.handovers_local);
    w.kv("handovers_remote", lm.handovers_remote);
    w.kv("repeats", lm.repeats);
    w.kv("local_handover_fraction", lm.local_handover_fraction());
    w.kv("remote_handover_fraction", lm.remote_handover_fraction());
    w.key("node_batch_lengths");
    write_summary(w, lm.node_batch_lengths);
    w.key("wait_ns");
    write_histogram(w, lm.wait_ns);
    w.key("hold_ns");
    write_histogram(w, lm.hold_ns);
    w.key("backoff");
    w.begin_object();
    for (int cls = 0; cls < kNumBackoffClasses; ++cls) {
        w.key(backoff_class_name(static_cast<BackoffClass>(cls)));
        w.begin_object();
        w.kv("episodes", lm.backoff[cls].episodes);
        w.kv("total_ns", lm.backoff[cls].total_ns);
        w.end_object();
    }
    w.end_object();
    w.key("gate");
    w.begin_object();
    w.kv("blocked", lm.gate_blocked);
    w.kv("passed", lm.gate_passed);
    w.kv("publishes", lm.gate_publishes);
    w.kv("opens", lm.gate_opens);
    w.kv("block_fraction", lm.gate_block_fraction());
    w.end_object();
    w.kv("angry_transitions", lm.angry_transitions);
    w.kv("gates_closed_in_anger", lm.gates_closed_in_anger);
    w.key("per_node");
    w.begin_array();
    for (std::size_t node = 0; node < lm.per_node.size(); ++node) {
        const NodeMetrics& nm = lm.per_node[node];
        w.begin_object();
        w.kv("node", static_cast<std::uint64_t>(node));
        w.kv("acquisitions", nm.acquisitions);
        w.kv("handovers_in", nm.handovers_in);
        w.key("batch_lengths");
        write_summary(w, nm.batch_lengths);
        w.kv("gate_blocked", nm.gate_blocked);
        w.kv("gate_passed", nm.gate_passed);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

void
write_metrics(JsonWriter& w, const MetricsRegistry& registry)
{
    w.begin_object();
    w.kv("events_seen", registry.events_seen());
    w.kv("primary_lock_id", hex64(registry.primary_lock_id()));
    w.key("locks");
    w.begin_array();
    // Primary lock first, then any nested tiers in id order.
    if (const LockMetrics* primary = registry.primary())
        write_lock_metrics(w, *primary);
    for (const auto& [lock_id, lm] : registry.locks())
        if (lock_id != registry.primary_lock_id())
            write_lock_metrics(w, lm);
    w.end_array();
    w.key("per_cpu");
    w.begin_array();
    for (std::size_t cpu = 0; cpu < registry.cpus().size(); ++cpu) {
        const CpuMetrics& cm = registry.cpus()[cpu];
        w.begin_object();
        w.kv("cpu", static_cast<std::uint64_t>(cpu));
        w.kv("acquisitions", cm.acquisitions);
        w.kv("backoff_episodes", cm.backoff_episodes);
        w.kv("backoff_ns", cm.backoff_ns);
        w.kv("cs_ns", cm.cs_ns);
        w.key("wait_ns");
        write_histogram(w, cm.wait_ns);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/**
 * The v4 optional per-run "adaptive" object: ADAPTIVE's gear telemetry,
 * folded from the primary lock's AdaptSwitch events.
 */
void
write_adaptive(JsonWriter& w, const LockMetrics& lm)
{
    w.begin_object();
    w.kv("switches", lm.adapt_switches);
    w.key("reasons");
    w.begin_object();
    for (std::size_t i = 0; i < kAdaptReasonNames.size(); ++i)
        w.kv(kAdaptReasonNames[i], lm.adapt_reasons[i]);
    w.end_object();
    w.key("gear_residency_ns");
    w.begin_object();
    for (std::size_t i = 0; i < kAdaptGearNames.size(); ++i)
        w.kv(kAdaptGearNames[i], lm.gear_residency_ns[i]);
    w.end_object();
    w.key("demote_latency_ns");
    write_histogram(w, lm.demote_latency_ns);
    w.end_object();
}

/**
 * The v5 optional per-run "structs" object: the KV-service run's
 * data-structure telemetry. Each per_stripe row carries the stripe lock's
 * id so consumers can join it against the per-lock traffic attribution
 * rows in the run's "traffic" object.
 */
void
write_structs(JsonWriter& w, const structs::KvStructsStats& s)
{
    w.begin_object();
    w.kv("stripes", static_cast<std::uint64_t>(s.per_stripe.size()));
    w.kv("reads", s.reads);
    w.kv("writes", s.writes);
    w.kv("scans", s.scans);
    w.kv("inserts", s.inserts);
    w.kv("hits", s.hits);
    w.kv("misses", s.misses);
    w.kv("local_handover_fraction", s.local_handover_fraction());
    w.key("resize");
    w.begin_object();
    w.kv("epochs", s.resize_epochs);
    w.kv("migrated_keys", s.resize_migrated_keys);
    w.kv("stalls", s.resize_stalls);
    w.key("stall_ns");
    write_histogram(w, s.resize_stall_ns);
    w.end_object();
    w.key("op_latency_ns");
    w.begin_object();
    w.key("read");
    write_histogram(w, s.read_ns);
    w.key("write");
    write_histogram(w, s.write_ns);
    w.key("scan");
    write_histogram(w, s.scan_ns);
    w.end_object();
    w.key("per_stripe");
    w.begin_array();
    for (std::size_t i = 0; i < s.per_stripe.size(); ++i) {
        const structs::StripeStats& st = s.per_stripe[i];
        w.begin_object();
        w.kv("stripe", static_cast<std::uint64_t>(i));
        w.kv("lock_id", hex64(st.lock_id));
        w.kv("acquisitions", st.acquisitions);
        w.kv("handovers_local", st.handovers_local);
        w.kv("handovers_remote", st.handovers_remote);
        w.kv("local_handover_fraction", st.local_handover_fraction());
        w.kv("migrations", st.migrations);
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/**
 * The v6 optional per-run "native_traffic" object: the hardware-counter
 * observatory's per-lock/per-phase deltas, per-event verdicts, and the
 * proxy-mapped per-acquisition rates. Always carries the availability
 * marker; when counters were denied or absent the counts are empty and
 * unavailable_reason says why — the run itself still succeeded.
 */
void
write_native_traffic(JsonWriter& w, const NativeTrafficStats& nt,
                     std::uint64_t total_acquires)
{
    w.begin_object();
    w.kv("available", nt.available);
    w.kv("source", nt.source);
    w.key("perf_event_paranoid");
    if (nt.paranoid_level == kParanoidUnknown)
        w.null();
    else
        w.value(nt.paranoid_level);
    if (!nt.available)
        w.kv("unavailable_reason", nt.unavailable_reason);
    w.kv("samples", nt.samples);
    w.kv("threads", nt.threads);
    w.kv("time_enabled_ns", nt.time_enabled_ns);
    w.kv("time_running_ns", nt.time_running_ns);
    w.kv("multiplexed", nt.multiplexed());
    const sim::TrafficStats totals = nt.totals();
    const double acquires =
        total_acquires == 0 ? 0.0 : static_cast<double>(total_acquires);
    w.kv("local_tx_per_acquisition",
         acquires == 0.0 ? 0.0
                         : static_cast<double>(totals.local_tx) / acquires);
    w.kv("global_tx_per_acquisition",
         acquires == 0.0 ? 0.0
                         : static_cast<double>(totals.global_tx) / acquires);
    w.key("events");
    w.begin_array();
    for (const CounterEventStatus& e : nt.events) {
        w.begin_object();
        w.kv("event", counter_event_name(e.event));
        w.kv("status", counter_state_name(e.state));
        if (!e.detail.empty())
            w.kv("detail", e.detail);
        w.end_object();
    }
    w.end_array();
    w.key("per_lock");
    w.begin_array();
    for (const NativeLockTraffic& lock : nt.per_lock) {
        w.begin_object();
        w.kv("lock_id", hex64(lock.lock_id));
        w.key("phases");
        w.begin_object();
        for (int p = 0; p < sim::kNumTxPhases; ++p) {
            const PhaseCounters& cell =
                lock.by_phase[static_cast<std::size_t>(p)];
            w.key(sim::tx_phase_name(static_cast<sim::TxPhase>(p)));
            w.begin_object();
            for (int e = 0; e < kNumCounterEvents; ++e)
                w.kv(counter_event_name(static_cast<CounterEvent>(e)),
                     cell.value[static_cast<std::size_t>(e)]);
            w.end_object();
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
}

/** The v3 optional top-level "robustness" object. */
void
write_robustness(JsonWriter& w, const RobustnessReport& r)
{
    w.begin_object();
    w.key("campaign");
    w.begin_object();
    w.key("presets");
    w.begin_array();
    for (const std::string& preset : r.presets)
        w.value(preset);
    w.end_array();
    w.kv("timeout_ns", r.timeout_ns);
    w.kv("iterations", static_cast<std::uint64_t>(r.iterations));
    w.kv("first_seed", r.first_seed);
    w.kv("num_seeds", r.num_seeds);
    w.end_object();
    w.key("cells");
    w.begin_array();
    for (const RobustnessCell& c : r.cells) {
        w.begin_object();
        w.kv("lock", c.lock);
        w.kv("preset", c.preset);
        w.kv("nodes", c.nodes);
        w.kv("cpus_per_node", c.cpus_per_node);
        w.kv("seed", c.seed);
        w.kv("verdict", c.failed ? "FAIL" : "ok");
        if (c.failed)
            w.kv("what", c.what);
        w.kv("stop", c.stop);
        w.kv("steps", c.steps);
        w.kv("acquisitions", c.acquisitions);
        w.kv("timeouts", c.timeouts);
        w.kv("mutex_violations", c.mutex_violations);
        w.kv("faults_injected", c.faults_injected);
        w.kv("max_overshoot_ns", c.max_overshoot_ns);
        w.kv("overshoot_bound_ns", c.overshoot_bound_ns);
        w.kv("abandons", c.abandons);
        w.kv("parked", c.parked);
        w.kv("grant_races", c.grant_races);
        w.kv("reclaims", c.reclaims);
        w.kv("rejoins", c.rejoins);
        w.kv("unparks", c.unparks);
        w.kv("leaked_nodes", c.leaked_nodes);
        if (!c.trace.empty())
            w.kv("trace", c.trace);
        if (!c.minimal_trace.empty())
            w.kv("minimal_trace", c.minimal_trace);
        w.end_object();
    }
    w.end_array();
    w.key("per_lock");
    w.begin_array();
    for (const RobustnessLockRow& row : r.per_lock) {
        w.begin_object();
        w.kv("lock", row.lock);
        w.kv("cells", row.cells);
        w.kv("failures", row.failures);
        w.kv("acquisitions", row.acquisitions);
        w.kv("timeouts", row.timeouts);
        w.kv("abandons", row.abandons);
        w.kv("parked", row.parked);
        w.kv("grant_races", row.grant_races);
        w.kv("reclaims", row.reclaims);
        w.kv("rejoins", row.rejoins);
        w.kv("unparks", row.unparks);
        w.kv("leaked_nodes", row.leaked_nodes);
        w.kv("max_overshoot_ns", row.max_overshoot_ns);
        w.end_object();
    }
    w.end_array();
    w.kv("failures", r.failures);
    w.kv("verdict", r.failures == 0 ? "ok" : "FAIL");
    w.end_object();
}

} // namespace

void
write_report(std::ostream& os, const ReportConfig& config,
             const std::vector<ReportRun>& runs,
             const RobustnessReport* robustness)
{
    JsonWriter w(os, /*pretty=*/true);
    w.begin_object();
    w.kv("schema", kReportSchemaName);
    w.kv("schema_version", kReportSchemaVersion);
    w.kv("tool", config.tool);
    w.key("config");
    w.begin_object();
    w.kv("bench", config.bench);
    w.kv("nodes", config.nodes);
    w.kv("cpus_per_node", config.cpus_per_node);
    w.kv("threads", config.threads);
    w.kv("critical_work", static_cast<std::uint64_t>(config.critical_work));
    w.kv("private_work", static_cast<std::uint64_t>(config.private_work));
    w.kv("iterations", static_cast<std::uint64_t>(config.iterations));
    w.kv("nuca_ratio", config.nuca_ratio);
    w.kv("seed", config.seed);
    w.end_object();
    w.key("runs");
    w.begin_array();
    for (const ReportRun& run : runs) {
        w.begin_object();
        w.kv("lock", run.lock_name);
        w.key("result");
        write_result(w, run.result);
        w.key("traffic");
        write_run_traffic(w, run.result, run.metrics);
        w.key("contention");
        write_run_contention(w, run.result.contention);
        w.key("metrics");
        if (run.metrics != nullptr)
            write_metrics(w, *run.metrics);
        else
            w.null();
        if (run.host.valid) {
            // Host wall-clock fields: the only nondeterministic part of a
            // report. Determinism comparisons must strip this object.
            w.key("host");
            w.begin_object();
            w.kv("wall_ns", run.host.wall_ns);
            w.kv("events_per_sec", run.host.events_per_sec);
            w.kv("switches_per_sec", run.host.switches_per_sec);
            w.kv("jobs", run.host.jobs);
            w.end_object();
        }
        if (const LockMetrics* primary =
                run.metrics != nullptr ? run.metrics->primary() : nullptr;
            primary != nullptr && primary->adapt_seen) {
            w.key("adaptive");
            write_adaptive(w, *primary);
        }
        if (run.structs != nullptr) {
            w.key("structs");
            write_structs(w, *run.structs);
        }
        if (run.native_traffic != nullptr) {
            // Hardware counters are nondeterministic like "host":
            // determinism comparisons must strip this object too.
            w.key("native_traffic");
            write_native_traffic(w, *run.native_traffic,
                                 run.result.total_acquires);
        }
        w.end_object();
    }
    w.end_array();
    if (robustness != nullptr) {
        w.key("robustness");
        write_robustness(w, *robustness);
    }
    w.end_object();
    os << '\n';
}

// ---------------------------------------------------------------------------
// The schema table: the one statement of the report's shape besides the
// writer above. The validator, --diff's stripping and the field reference
// in docs/observability.md all read it.
// ---------------------------------------------------------------------------

namespace {

/** What a member's value must be. */
enum class Kind : std::uint8_t
{
    Number,
    String,
    Bool,
    NumberOrNull,
    Object,
    ObjectOrNull,
    Objects, ///< array of objects
    Numbers, ///< array of numbers
    Strings, ///< array of strings
};

/**
 * One member of the report: its name, what its value must be and, for
 * objects and arrays of objects, their members. A bare name converts to a
 * required number, the commonest member.
 */
struct Field
{
    Field(const char* field_name, Kind field_kind = Kind::Number,
          std::vector<Field> field_members = {})
        : name(field_name), kind(field_kind), members(std::move(field_members))
    {
    }

    std::string name;
    Kind kind;
    std::vector<Field> members;
    /** Schema version that added the member to its object; 1 when it
     *  came with the object. */
    int since = 1;
    /** The writer leaves the member out of some reports. */
    bool optional = false;
    /** The value measures the host, not the simulated run, so it differs
     *  between repetitions; --diff strips it. */
    bool host_dependent = false;
};

Field
text(const char* name)
{
    return {name, Kind::String};
}

Field
flag(const char* name)
{
    return {name, Kind::Bool};
}

Field
object(const char* name, std::vector<Field> members)
{
    return {name, Kind::Object, std::move(members)};
}

Field
objects(const char* name, std::vector<Field> members)
{
    return {name, Kind::Objects, std::move(members)};
}

Field
added(int version, Field field)
{
    field.since = version;
    return field;
}

Field
optional(Field field)
{
    field.optional = true;
    return field;
}

Field
host_dependent(Field field)
{
    field.host_dependent = true;
    return field;
}

Field
histogram(const char* name)
{
    return object(name, {"count", "mean", "p50", "p90", "p99", "max"});
}

Field
summary(const char* name)
{
    return object(name, {"count", "mean", "min", "max", "stddev"});
}

Field
tx_count(const char* name)
{
    return object(name, {"local_tx", "global_tx"});
}

/** Numeric members named by @p names. */
template <std::size_t N>
std::vector<Field>
numbers(const std::array<const char*, N>& names)
{
    return std::vector<Field>(names.begin(), names.end());
}

/** One member per value of an enum, named by @p name_of, shaped by
 *  @p shape. */
template <typename Enum, typename Shape>
std::vector<Field>
per_value(int count, const char* (*name_of)(Enum), Shape shape)
{
    std::vector<Field> members;
    for (int i = 0; i < count; ++i)
        members.push_back(shape(name_of(static_cast<Enum>(i))));
    return members;
}

Field
backoff_class(const char* name)
{
    return object(name, {"episodes", "total_ns"});
}

/** One phase's hardware-counter deltas. */
Field
counter_cell(const char* phase)
{
    return object(phase, per_value(kNumCounterEvents, counter_event_name,
                                   [](const char* event) {
                                       return Field(event);
                                   }));
}

const Field&
report_schema()
{
    static const Field schema = object("report", {
        text("schema"),
        "schema_version",
        text("tool"),
        object("config", {text("bench"), "nodes", "cpus_per_node", "threads",
                          "critical_work", "private_work", "iterations",
                          "nuca_ratio", "seed"}),
        objects("runs", {
            text("lock"),
            object("result", {
                "total_time_ns", "total_acquires", "avg_iteration_ns",
                "node_handoff_ratio", "fairness_spread_pct",
                text("acquisition_order_hash"), "sim_memory_accesses",
                "sim_fiber_switches",
                object("traffic", {"local_tx", "global_tx", "data_fetch_tx",
                                   "invalidation_tx", "atomic_tx"}),
                "faults_injected", "mutex_violations", "lock_timeouts",
                added(2, "memtrace_events"), added(2, "memtrace_dropped"),
            }),
            added(2, object("traffic", {
                "local_tx_per_acquisition", "global_tx_per_acquisition",
                objects("per_lock", {
                    text("lock_id"), "acquisitions", "local_tx", "global_tx",
                    "local_tx_per_acquisition", "global_tx_per_acquisition",
                    object("phases", per_value(sim::kNumTxPhases,
                                               sim::tx_phase_name, tx_count)),
                }),
                objects("per_node", {"node", "local_tx", "global_tx"}),
                tx_count("attributed"),
                tx_count("unattributed"),
            })),
            added(2, object("contention", {
                "sim_time_ns", "series_bin_ns",
                objects("resources", {
                    text("name"), "node", "transactions", "busy_ns",
                    "queue_ns", "utilization", histogram("queue_delay_ns"),
                    optional({"busy_ns_bins", Kind::Numbers}),
                    optional({"tx_bins", Kind::Numbers}),
                }),
            })),
            {"metrics", Kind::ObjectOrNull, {
                "events_seen",
                text("primary_lock_id"),
                objects("locks", {
                    text("lock_id"), "attempts", "try_attempts",
                    "acquisitions", "releases", "handovers_local",
                    "handovers_remote", "repeats", "local_handover_fraction",
                    "remote_handover_fraction", summary("node_batch_lengths"),
                    histogram("wait_ns"), histogram("hold_ns"),
                    object("backoff",
                           per_value(kNumBackoffClasses, backoff_class_name,
                                     backoff_class)),
                    object("gate", {"blocked", "passed", "publishes", "opens",
                                    "block_fraction"}),
                    "angry_transitions", "gates_closed_in_anger",
                    objects("per_node", {"node", "acquisitions",
                                         "handovers_in",
                                         summary("batch_lengths"),
                                         "gate_blocked", "gate_passed"}),
                }),
                objects("per_cpu", {"cpu", "acquisitions", "backoff_episodes",
                                    "backoff_ns", "cs_ns",
                                    histogram("wait_ns")}),
            }},
            host_dependent(optional(object(
                "host",
                {"wall_ns", "events_per_sec", "switches_per_sec", "jobs"}))),
            optional(added(4, object("adaptive", {
                "switches",
                object("reasons", numbers(kAdaptReasonNames)),
                object("gear_residency_ns", numbers(kAdaptGearNames)),
                histogram("demote_latency_ns"),
            }))),
            optional(added(5, object("structs", {
                "stripes", "reads", "writes", "scans", "inserts", "hits",
                "misses", "local_handover_fraction",
                object("resize", {"epochs", "migrated_keys", "stalls",
                                  histogram("stall_ns")}),
                object("op_latency_ns", {histogram("read"),
                                         histogram("write"),
                                         histogram("scan")}),
                objects("per_stripe", {"stripe", text("lock_id"),
                                       "acquisitions", "handovers_local",
                                       "handovers_remote",
                                       "local_handover_fraction",
                                       "migrations"}),
            }))),
            host_dependent(optional(added(6, object("native_traffic", {
                flag("available"),
                text("source"),
                {"perf_event_paranoid", Kind::NumberOrNull},
                // Required when "available" is false: validate_report
                // checks that one conditional rule itself.
                optional(text("unavailable_reason")),
                "samples", "threads", "time_enabled_ns", "time_running_ns",
                flag("multiplexed"),
                "local_tx_per_acquisition", "global_tx_per_acquisition",
                objects("events", {text("event"), text("status"),
                                   optional(text("detail"))}),
                objects("per_lock", {
                    text("lock_id"),
                    object("phases", per_value(sim::kNumTxPhases,
                                               sim::tx_phase_name,
                                               counter_cell)),
                }),
            })))),
        }),
        optional(added(3, object("robustness", {
            object("campaign", {{"presets", Kind::Strings}, "timeout_ns",
                                "iterations", "first_seed", "num_seeds"}),
            objects("cells", {
                text("lock"), text("preset"), "nodes", "cpus_per_node",
                "seed", text("verdict"), optional(text("what")),
                text("stop"), "steps", "acquisitions", "timeouts",
                "mutex_violations", "faults_injected", "max_overshoot_ns",
                "overshoot_bound_ns", "abandons", "parked", "grant_races",
                "reclaims", "rejoins", "unparks", "leaked_nodes",
                optional(text("trace")), optional(text("minimal_trace")),
            }),
            objects("per_lock", {
                text("lock"), "cells", "failures", "acquisitions",
                "timeouts", "abandons", "parked", "grant_races", "reclaims",
                "rejoins", "unparks", "leaked_nodes", "max_overshoot_ns",
            }),
            "failures",
            text("verdict"),
        }))),
    });
    return schema;
}

// ------------------------------------------------------------- walker ---

/** One step of the path from the report root to the value being checked:
 *  a member name, or an array index when @c name is null. The path is
 *  rendered only when a check fails. */
struct Where
{
    const Where* parent;
    const std::string* name;
    std::size_t index;
};

std::string
path_of(const Where* at)
{
    if (at == nullptr)
        return "report";
    std::string path = path_of(at->parent);
    if (at->name != nullptr)
        path += "." + *at->name;
    else
        path += "[" + std::to_string(at->index) + "]";
    return path;
}

bool
fail(std::string* error, const std::string& message)
{
    if (error != nullptr && error->empty())
        *error = message;
    return false;
}

const char*
kind_noun(Kind kind)
{
    switch (kind) {
      case Kind::Number: return "a number";
      case Kind::String: return "a string";
      case Kind::Bool: return "a boolean";
      case Kind::NumberOrNull: return "a number or null";
      case Kind::Object: return "an object";
      case Kind::ObjectOrNull: return "an object or null";
      case Kind::Objects:
      case Kind::Numbers:
      case Kind::Strings: return "an array";
    }
    return "?";
}

bool check_members(const JsonValue& object, const std::vector<Field>& fields,
                   const Where* at, std::string* error);

/** Check that @p value is of @p kind; an object also against
 *  @p members. */
bool
check_value(const JsonValue& value, Kind kind,
            const std::vector<Field>& members, const Where* at,
            std::string* error)
{
    bool ok = false;
    switch (kind) {
      case Kind::Number: ok = value.is_number(); break;
      case Kind::String: ok = value.is_string(); break;
      case Kind::Bool: ok = value.type == JsonValue::Type::Bool; break;
      case Kind::NumberOrNull:
        ok = value.is_number() || value.type == JsonValue::Type::Null;
        break;
      case Kind::ObjectOrNull:
        if (value.type == JsonValue::Type::Null)
            return true;
        [[fallthrough]];
      case Kind::Object:
        if (value.is_object())
            return check_members(value, members, at, error);
        break;
      case Kind::Objects:
      case Kind::Numbers:
      case Kind::Strings: {
        if (!value.is_array())
            break;
        const Kind element = kind == Kind::Objects   ? Kind::Object
                             : kind == Kind::Numbers ? Kind::Number
                                                     : Kind::String;
        for (std::size_t i = 0; i < value.array.size(); ++i) {
            const Where here{at, nullptr, i};
            if (!check_value(value.array[i], element, members, &here, error))
                return false;
        }
        return true;
      }
    }
    return ok || fail(error, path_of(at) + " must be " + kind_noun(kind));
}

/** Check each member of @p object the table declares in @p fields; a
 *  required one that is absent fails, and so does any member the table
 *  does not declare. */
bool
check_members(const JsonValue& object, const std::vector<Field>& fields,
              const Where* at, std::string* error)
{
    std::size_t matched = 0;
    for (const Field& field : fields) {
        const auto it = object.object.find(field.name);
        if (it == object.object.end()) {
            if (field.optional)
                continue;
            return fail(error, path_of(at) + ": missing field '" +
                                   field.name + "'");
        }
        ++matched;
        const Where here{at, &field.name, 0};
        if (!check_value(it->second, field.kind, field.members, &here, error))
            return false;
    }
    if (matched != object.object.size())
        for (const auto& [name, value] : object.object)
            if (std::none_of(fields.begin(), fields.end(),
                             [&](const Field& f) { return f.name == name; }))
                return fail(error, path_of(at) + ": unknown field '" + name +
                                       "'");
    return true;
}

void
strip_members(JsonValue& object, const std::vector<Field>& fields)
{
    for (const Field& field : fields) {
        const auto it = object.object.find(field.name);
        if (it == object.object.end())
            continue;
        if (field.host_dependent) {
            object.object.erase(it);
            continue;
        }
        JsonValue& value = it->second;
        if (value.is_object())
            strip_members(value, field.members);
        for (JsonValue& element : value.array)
            if (element.is_object())
                strip_members(element, field.members);
    }
}

/** A member as the field reference spells it: name, shape, notes. */
std::string
describe(const Field& field)
{
    std::string out = field.name;
    std::string notes;
    switch (field.kind) {
      case Kind::Number: break;
      case Kind::String: notes = ", string"; break;
      case Kind::Bool: notes = ", bool"; break;
      case Kind::NumberOrNull: notes = ", number or null"; break;
      case Kind::Object: out += " {}"; break;
      case Kind::ObjectOrNull: out += " {} or null"; break;
      case Kind::Objects: out += " [{}]"; break;
      case Kind::Numbers: out += " [numbers]"; break;
      case Kind::Strings: out += " [strings]"; break;
    }
    if (field.since > 1)
        notes += ", v" + std::to_string(field.since);
    if (field.optional)
        notes += ", optional";
    if (field.host_dependent)
        notes += ", host-dependent";
    if (!notes.empty())
        out += " (" + notes.substr(2) + ")";
    return out;
}

void
render(const std::vector<Field>& members, const std::string& path,
       std::string& out)
{
    out += "- `" + path + "`:";
    const char* separator = " ";
    for (const Field& field : members) {
        out += separator + describe(field);
        separator = ", ";
    }
    out += '\n';
    for (const Field& field : members)
        if (!field.members.empty())
            render(field.members,
                   path + "." + field.name +
                       (field.kind == Kind::Objects ? "[]" : ""),
                   out);
}

} // namespace

bool
validate_report(const JsonValue& document, std::string* error)
{
    if (!document.is_object())
        return fail(error, "report root must be an object");
    const JsonValue* schema = document.find("schema");
    if (schema == nullptr || !schema->is_string() ||
        schema->string != kReportSchemaName)
        return fail(error, std::string("'schema' must be \"") +
                               kReportSchemaName + "\"");
    const JsonValue* version = document.find("schema_version");
    if (version == nullptr || !version->is_number())
        return fail(error, "'schema_version' must be a number");
    if (version->number != kReportSchemaVersion) {
        // %g, not a cast to int: the value comes from outside the program.
        char seen[32];
        std::snprintf(seen, sizeof seen, "%g", version->number);
        return fail(error, std::string("report is v") + seen +
                               ", tool understands v" +
                               std::to_string(kReportSchemaVersion));
    }
    if (!check_members(document, report_schema().members, nullptr, error))
        return false;
    // The one rule the table does not state: counters that could not be
    // read must say why.
    const std::vector<JsonValue>& runs = document.find("runs")->array;
    for (std::size_t i = 0; i < runs.size(); ++i)
        if (const JsonValue* nt = runs[i].find("native_traffic");
            nt != nullptr && !nt->find("available")->boolean &&
            nt->find("unavailable_reason") == nullptr)
            return fail(error, "report.runs[" + std::to_string(i) +
                                   "].native_traffic: missing field "
                                   "'unavailable_reason' (required when "
                                   "'available' is false)");
    return true;
}

bool
validate_report_text(std::string_view text, std::string* error)
{
    std::string parse_error;
    const auto document = json_parse(text, &parse_error);
    if (!document)
        return fail(error, "JSON parse error: " + parse_error);
    return validate_report(*document, error);
}

void
strip_nondeterministic(JsonValue& document)
{
    if (document.is_object())
        strip_members(document, report_schema().members);
}

std::string
report_schema_reference()
{
    std::string out;
    render(report_schema().members, "report", out);
    return out;
}

} // namespace nucalock::obs
