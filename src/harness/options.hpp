/**
 * @file
 * Command-line options for the nucabench tool (tools/nucabench.cpp):
 * parsing is kept in the library so it is unit-testable.
 */
#ifndef NUCALOCK_HARNESS_OPTIONS_HPP
#define NUCALOCK_HARNESS_OPTIONS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "locks/params.hpp"

namespace nucalock::harness {

/** Which benchmark nucabench runs. */
enum class CliBench
{
    New,         // the paper's new microbenchmark (default)
    Traditional, // the traditional microbenchmark
    Uncontested, // Table 1 style latency probes
    App,         // application models (kv_service / SPLASH-2 descriptors)
};

/** Parsed command line. */
struct CliOptions
{
    CliBench bench = CliBench::New;
    /** Lock name as in locks::lock_name(), or "ALL". */
    std::string lock = "ALL";
    int nodes = 2;
    int cpus_per_node = 14;
    /** Defaults to the full machine (nodes * cpus_per_node) when not
     *  given on the command line. */
    int threads = 28;
    std::uint32_t critical_work = 1500;
    std::uint32_t private_work = 4000;
    std::uint32_t iterations = 60;
    /** 0 = calibrated WildFire model; otherwise LatencyModel::scaled(). */
    double nuca_ratio = 0.0;
    std::uint64_t seed = 1;
    /** OS-preemption injection; not valid with --bench=traditional or
     *  --bench=uncontested. */
    bool preemption = false;
    /**
     * Fault-plan spec for sim::FaultPlan::parse(): '+'-separated presets
     * out of {none, holder, publish, spinner, spike, stall, death, chaos}.
     * Empty = no fault injection. Only valid with --bench=new.
     */
    std::string faults;
    bool csv = false;
    /** Write a machine-readable report (obs/report.hpp) to this path;
     *  "-" = stdout. Empty = off. */
    std::string json;
    /** nucaprof only: write a Chrome/Perfetto trace to this path (requires
     *  a single --lock, not ALL). Empty = off. */
    std::string trace;
    /** nucaprof only: print the traffic-attribution tables (per-lock
     *  per-phase local/global transactions, link contention). */
    bool traffic = false;
    /** nucaprof only: record the memory-access trace to this CSV path
     *  (requires a single --lock, not ALL). Empty = off. */
    std::string memtrace;
    /** nucaprof only: validate an existing report file against the schema
     *  and exit; no benchmark runs. */
    std::string check_schema;
    /** nucaprof only: render the "robustness" object of an existing report
     *  (nucacheck --campaign output) and exit; no benchmark runs. */
    std::string robustness;
    /** nucaprof only: "A,B" — diff two report files over their
     *  deterministic fields (obs::strip_nondeterministic first erases the
     *  members the report schema marks host-dependent) and exit; no
     *  benchmark runs. */
    std::string diff;
    /** nucaprof only: probe hardware-counter availability (one line per
     *  perf event: available / multiplexed / denied / unsupported) and
     *  exit; no benchmark runs. */
    bool counters = false;
    /**
     * --bench=app only: which application model to drive — "kv" (the
     * sharded KV-service model, apps/kv_service.hpp) or a SPLASH-2
     * descriptor name (apps/workload.hpp). Name existence is checked by
     * the tool, which owns the app registry.
     */
    std::string app = "kv";
    /** --app=kv knobs; defaults mirror apps::KvServiceConfig. */
    std::uint64_t kv_keys = 4096;
    std::uint64_t kv_stripes = 16;
    std::uint32_t kv_read_pct = 80;
    std::uint32_t kv_write_pct = 15;
    std::uint32_t kv_scan_len = 16;
    double kv_skew = 0.9;
    std::uint32_t kv_ops = 1000;
    std::uint32_t kv_storms = 1;
    /**
     * Host worker threads for independent runs (exec::Executor). 0 = the
     * default: the NUCALOCK_JOBS environment variable when set, otherwise
     * hardware concurrency. Results are bit-identical at every level.
     */
    int jobs = 0;
    /**
     * Lock tuning knobs forwarded into every run's LockParams. The CLI
     * exposes the REACTIVE mode-switch thresholds (--reactive-slow /
     * --reactive-fast) and the ADAPTIVE policy knobs (--adaptive-*) so
     * fig9/fig10-style sensitivity sweeps can tune both from the command
     * line; everything else keeps its params.hpp default.
     */
    locks::LockParams params;
    bool help = false;
};

/** Result of parsing: options, or an error message. */
struct CliParse
{
    std::optional<CliOptions> options;
    std::string error;
};

/** One simulated machine shape: `NxC` = N nodes × C cpus per node. */
struct ShapeSpec
{
    int nodes = 0;
    int cpus_per_node = 0;

    int total_cpus() const { return nodes * cpus_per_node; }

    friend bool operator==(const ShapeSpec&, const ShapeSpec&) = default;
};

/**
 * Parse one "NxC" shape (e.g. "2x14", "64x16"); both components must be
 * positive integers. Returns nullopt on malformed input.
 */
std::optional<ShapeSpec> parse_shape(const std::string& text);

/**
 * Parse a comma-separated shape list "NxC[,NxC...]" (the throughput
 * bench's --shape flag). Returns nullopt when the list is empty or any
 * element is malformed.
 */
std::optional<std::vector<ShapeSpec>>
parse_shape_list(const std::string& text);

/**
 * Parse `--key=value` style arguments (and `--help`). Unknown keys, bad
 * values, or out-of-range combinations produce an error message.
 */
CliParse parse_cli(const std::vector<std::string>& args);

/** The nucabench --help text. */
std::string cli_usage();

/** The nucaprof --help text (nucaprof parses with parse_cli too). */
std::string prof_usage();

} // namespace nucalock::harness

#endif // NUCALOCK_HARNESS_OPTIONS_HPP
