/**
 * @file
 * Machine-readable benchmark report: schema "nucalock-bench-report" v6.
 *
 * v2 added, per run, a "traffic" object (per-lock/per-phase local/global
 * transaction attribution and per-acquisition rates) and a "contention"
 * object (per-resource occupancy, queue-delay percentiles, optional
 * time-binned utilisation series), plus memtrace_events/memtrace_dropped
 * in "result".
 *
 * v3 adds an optional top-level "robustness" object — the fault-campaign
 * soak runner's audited verdict (nucacheck --campaign): per-cell recovery
 * results (preset x lock x shape x seed, with abandonment/reclaim counters,
 * overshoot bounds and replay traces for failures) plus per-lock summary
 * rows. Reports without the object remain valid documents; nucaprof
 * renders it with --robustness.
 *
 * v4 adds an optional per-run "adaptive" object — ADAPTIVE's gear
 * telemetry folded from LockEvent::AdaptSwitch (obs/metrics.hpp): switch
 * totals by reason, per-gear residency, and the demotion-latency
 * histogram. Emitted only when the run's primary lock saw a gear switch;
 * reports without it remain valid documents.
 *
 * v5 adds an optional per-run "structs" object — the KV-service workload's
 * data-structure telemetry (structs/stats.hpp): op mix and hit rates,
 * cooperative-resize accounting (epochs, migrated keys, per-op stall
 * histogram), service op-latency histograms, and a per-stripe table
 * (acquisitions, local/remote custody handovers, lock_id linking each
 * stripe to its per-lock traffic-attribution row). Emitted only for KV
 * runs; reports without it remain valid v5 documents.
 *
 * v6 adds an optional per-run "native_traffic" object — the hardware-
 * counter observatory (obs/perf_counters.hpp): per-lock, per-phase counter
 * deltas (cycles, instructions, LLC load misses, node/remote accesses)
 * read at probe phase transitions on the native backend, with per-event
 * availability verdicts, multiplex detection, the proxy-mapped local/
 * global per-acquisition rates, and — when perf is denied or absent — a
 * machine-readable unavailable marker instead of counts. Like "host" it
 * measures the host, so `nucaprof --diff` strips it.
 *
 * Shared by tools/nucaprof (full metrics) and tools/nucabench --json
 * (results only). Besides the writer, one declarative table in report.cpp
 * states the schema: validate_report() walks a parsed document against it
 * (what `nucaprof --check-schema` and CI run), strip_nondeterministic()
 * erases the members it marks host-dependent, and
 * report_schema_reference() renders it as the field reference in
 * docs/observability.md. Bump kReportSchemaVersion on any breaking change
 * to the emitted shape.
 */
#ifndef NUCALOCK_OBS_REPORT_HPP
#define NUCALOCK_OBS_REPORT_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "harness/results.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "structs/stats.hpp"

namespace nucalock::obs {

inline constexpr const char* kReportSchemaName = "nucalock-bench-report";
inline constexpr int kReportSchemaVersion = 6;

/** Benchmark configuration echoed into the report. */
struct ReportConfig
{
    std::string tool;  ///< "nucaprof" or "nucabench"
    std::string bench; ///< "new", "traditional", "uncontested"
    int nodes = 0;
    int cpus_per_node = 0;
    int threads = 0;
    std::uint32_t critical_work = 0;
    std::uint32_t private_work = 0;
    std::uint32_t iterations = 0;
    double nuca_ratio = 0.0;
    std::uint64_t seed = 0;
};

/**
 * Host-side (wall-clock) measurements of a run. Everything else in a report
 * is a deterministic function of the simulated run; these fields are the
 * one exception — they measure the *host machine executing the simulator*
 * (bench/bench_sim_throughput.cpp), so they differ between hosts and
 * repetitions. Consumers comparing reports for determinism must ignore the
 * "host" object (it is emitted only when @ref valid is set).
 */
struct HostStats
{
    bool valid = false;
    /** Host wall-clock time of the run(s), nanoseconds. */
    double wall_ns = 0.0;
    /** Simulated memory operations executed per host second. */
    double events_per_sec = 0.0;
    /** Engine scheduling picks (sim_fiber_switches) per host second. */
    double switches_per_sec = 0.0;
    /** Worker count the run used (1 = sequential). */
    int jobs = 1;
};

/** One benchmark run (one lock) inside a report. */
struct ReportRun
{
    ReportRun() = default;
    ReportRun(std::string name, harness::BenchResult res,
              const MetricsRegistry* reg)
        : lock_name(std::move(name)), result(res), metrics(reg)
    {
    }

    std::string lock_name;
    harness::BenchResult result;
    /** Finalized registry for this run, or nullptr (nucabench --json). */
    const MetricsRegistry* metrics = nullptr;
    /** Host wall-clock measurements; omitted from the JSON unless valid. */
    HostStats host;
    /** KV-service structs telemetry, or nullptr (v5 optional per-run
     *  "structs" object; the pointee must outlive write_report). */
    const structs::KvStructsStats* structs = nullptr;
    /** Hardware-counter traffic, or nullptr (v6 optional per-run
     *  "native_traffic" object; the pointee must outlive write_report). */
    const NativeTrafficStats* native_traffic = nullptr;
};

// ---------------------------------------------------------------------------
// v3 "robustness" object: the fault campaign's audited verdict, as plain
// data so the checker layer can fill it without depending on this library.
// ---------------------------------------------------------------------------

/** One campaign cell (preset x lock x shape x seed). */
struct RobustnessCell
{
    std::string lock;
    std::string preset;
    int nodes = 0;
    int cpus_per_node = 0;
    std::uint64_t seed = 0;
    bool failed = false;
    std::string what; ///< empty unless failed
    std::string stop; ///< sim::stop_reason_name
    std::uint64_t steps = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t mutex_violations = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t max_overshoot_ns = 0;
    std::uint64_t overshoot_bound_ns = 0;
    std::uint64_t abandons = 0;
    std::uint64_t parked = 0;
    std::uint64_t grant_races = 0;
    std::uint64_t reclaims = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t unparks = 0;
    std::uint64_t leaked_nodes = 0;
    std::string trace;         ///< nc1 replay trace (failed cells only)
    std::string minimal_trace; ///< shrunk trace, when available
};

/** Per-lock aggregation row. */
struct RobustnessLockRow
{
    std::string lock;
    std::uint64_t cells = 0;
    std::uint64_t failures = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t abandons = 0;
    std::uint64_t parked = 0;
    std::uint64_t grant_races = 0;
    std::uint64_t reclaims = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t unparks = 0;
    std::uint64_t leaked_nodes = 0;
    std::uint64_t max_overshoot_ns = 0;
};

/** The whole robustness object (campaign parameters echoed for replay). */
struct RobustnessReport
{
    std::vector<std::string> presets;
    std::uint64_t timeout_ns = 0;
    std::uint32_t iterations = 0;
    std::uint64_t first_seed = 0;
    int num_seeds = 0;
    std::vector<RobustnessCell> cells;
    std::vector<RobustnessLockRow> per_lock;
    std::uint64_t failures = 0;
};

/** Write the whole report document to @p os (pretty-printed JSON).
 *  @p robustness, when non-null, is emitted as the optional top-level
 *  "robustness" object (the fault campaign's verdict). */
void write_report(std::ostream& os, const ReportConfig& config,
                  const std::vector<ReportRun>& runs,
                  const RobustnessReport* robustness = nullptr);

/**
 * Validate a parsed report against the v6 schema. Returns true when the
 * document conforms; otherwise false with a description in *error. A
 * member that is absent though the writer always emits it fails, and so
 * does a member the schema does not declare. A version mismatch fails with
 * "report is vN, tool understands vM" so a reader paired with the wrong
 * tool build is diagnosed immediately.
 */
bool validate_report(const JsonValue& document, std::string* error);

/** Parse + validate a report file. */
bool validate_report_text(std::string_view text, std::string* error);

/** Erase every member the schema marks host-dependent, leaving what is a
 *  deterministic function of the simulated runs: what `nucaprof --diff`
 *  compares. */
void strip_nondeterministic(JsonValue& document);

/** The schema as the markdown field reference docs/observability.md
 *  embeds, one line per object; obs_test keeps the two equal. */
std::string report_schema_reference();

} // namespace nucalock::obs

#endif // NUCALOCK_OBS_REPORT_HPP
