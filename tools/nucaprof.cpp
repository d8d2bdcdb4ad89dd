/**
 * @file
 * nucaprof: the observability front end (src/obs/). Runs a harness
 * benchmark with the lock-event probes enabled, folds the event stream
 * into per-lock / per-node / per-CPU metrics, and emits:
 *
 *  - a human-readable table (local vs remote handover split, node batch
 *    lengths, backoff time breakdown, GT gate traffic, SD anger),
 *  - `--traffic`: the coherence-traffic attribution tables (per-lock
 *    per-phase local/global transactions per acquisition, global-link
 *    utilisation and queue-delay p99 — the paper's Table 2/6 shape),
 *  - `--json=PATH`: the versioned machine-readable report
 *    (schema nucalock-bench-report v6, obs/report.hpp),
 *  - `--trace=PATH`: a Chrome/Perfetto trace_event JSON of per-CPU lock
 *    states plus link-utilisation / bus-rate counter tracks (single
 *    --lock runs only; open in ui.perfetto.dev),
 *  - `--memtrace=PATH`: the raw memory-access trace as CSV (single --lock,
 *    capped at 1M events; the drop count is reported and in the JSON),
 *  - `--check-schema=FILE`: validate an existing report and exit (what
 *    the CI perf-smoke job runs on its own artifact),
 *  - `--robustness=FILE`: render the "robustness" object of a report
 *    written by `nucacheck --campaign --report=...` (per-lock recovery
 *    tables, failing cells with replay traces),
 *  - `--diff=A,B`: compare two reports over their deterministic fields
 *    (obs::strip_nondeterministic first erases the members the schema
 *    marks host-dependent) and list every differing path — what the CI
 *    determinism jobs run instead of raw byte comparison,
 *  - `--counters`: probe hardware-counter availability on this host (one
 *    line per perf event: available / multiplexed / denied with the
 *    perf_event_paranoid level / unsupported) and exit.
 *
 * Everything is deterministic per --seed, and — pinned by a debug-build
 * assertion here and by tests/obs_test.cpp — observing a run never
 * changes it: the acquisition order is bit-identical with probes off.
 *
 * Examples:
 *   nucaprof --bench=new --nodes=2 --cpus-per-node=4 --lock=ALL
 *   nucaprof --lock=HBO_GT_SD --trace=hbo.trace.json --json=hbo.json
 *   nucaprof --check-schema=hbo.json
 */
#include <array>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "apps/kv_service.hpp"
#include "common/logging.hpp"
#include "exec/executor.hpp"
#include "front_end.hpp"
#include "harness/newbench.hpp"
#include "harness/options.hpp"
#include "harness/traditional.hpp"
#include "locks/adaptive_policy.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/report.hpp"
#include "obs/timeline.hpp"
#include "stats/table.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::harness;
using namespace nucalock::locks;
using namespace nucalock::tools;

/** One profiled benchmark run: result plus its finalized registry. */
struct ProfiledRun
{
    LockKind kind;
    BenchResult result;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    /** --bench=app only: the run's structs telemetry (v5 report object). */
    std::unique_ptr<structs::KvStructsStats> structs;
};

/** Utilisation-series bin width for --trace counter tracks (10 µs). */
constexpr sim::SimTime kCounterBinNs = 10'000;

/** --memtrace recording cap; drops past this are counted, not stored. */
constexpr std::size_t kMemtraceCap = 1'000'000;

BenchResult
run_bench(LockKind kind, const CliOptions& opts, obs::ProbeSink* probe,
          sim::TraceRecorder* memtrace = nullptr,
          structs::KvStructsStats* structs_out = nullptr)
{
    const auto observed = [&](auto config) {
        config.probe = probe;
        // Record the utilisation series whenever a Perfetto trace was
        // asked for; it is pure accounting (never perturbs the run).
        config.contention_bin_ns = opts.trace.empty() ? 0 : kCounterBinNs;
        config.memory_trace = memtrace;
        return config;
    };
    if (opts.bench == CliBench::App) {
        apps::KvOutcome outcome =
            apps::run_kv_service(kind, observed(kv_config_of(opts)));
        if (structs_out != nullptr)
            *structs_out = outcome.structs;
        return outcome.bench;
    }
    if (opts.bench == CliBench::Traditional) {
        auto config = observed(run_config_of<TraditionalConfig>(opts));
        config.iterations_per_thread = opts.iterations;
        return run_traditional(kind, config);
    }
    auto config = observed(run_config_of<NewBenchConfig>(opts));
    config.critical_work = opts.critical_work;
    config.private_work = opts.private_work;
    config.iterations_per_thread = opts.iterations;
    return run_newbench(kind, config);
}

int
check_schema(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "error: cannot read '" << path << "'\n";
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    if (!obs::validate_report_text(text.str(), &error)) {
        std::cerr << path << ": schema validation FAILED: " << error << "\n";
        return 1;
    }
    std::cout << path << ": valid " << obs::kReportSchemaName << " v"
              << obs::kReportSchemaVersion << "\n";
    return 0;
}

/** Read + parse a report file; nullopt (with a message) on failure. */
std::optional<obs::JsonValue>
load_report(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "error: cannot read '" << path << "'\n";
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string error;
    auto document = obs::json_parse(text.str(), &error);
    if (!document) {
        std::cerr << path << ": JSON parse error: " << error << "\n";
        return std::nullopt;
    }
    return document;
}

std::uint64_t
num_of(const obs::JsonValue& parent, const char* name)
{
    const obs::JsonValue* v = parent.find(name);
    return v == nullptr ? 0 : static_cast<std::uint64_t>(v->number);
}

std::string
str_of(const obs::JsonValue& parent, const char* name)
{
    const obs::JsonValue* v = parent.find(name);
    return v == nullptr ? std::string{} : v->string;
}

/** --robustness: render a campaign report's recovery verdict. */
int
show_robustness(const std::string& path)
{
    const auto document = load_report(path);
    if (!document)
        return 1;
    std::string error;
    if (!obs::validate_report(*document, &error)) {
        std::cerr << path << ": schema validation FAILED: " << error << "\n";
        return 1;
    }
    const obs::JsonValue* rob = document->find("robustness");
    if (rob == nullptr) {
        std::cerr << path << ": no \"robustness\" object (write one with "
                     "nucacheck --campaign --report=...)\n";
        return 1;
    }

    const obs::JsonValue* campaign = rob->find("campaign");
    std::cout << "campaign:";
    if (const obs::JsonValue* presets = campaign->find("presets"))
        for (const obs::JsonValue& p : presets->array)
            std::cout << " " << p.string;
    std::cout << "\n  timeout_ns=" << num_of(*campaign, "timeout_ns")
              << " iterations=" << num_of(*campaign, "iterations")
              << " first_seed=" << num_of(*campaign, "first_seed")
              << " num_seeds=" << num_of(*campaign, "num_seeds") << "\n\n";

    stats::Table table({"Lock", "cells", "fail", "acq", "timeouts",
                        "abandons", "parked", "races", "reclaims", "rejoins",
                        "unparks", "leaked", "overshoot", "verdict"});
    for (const obs::JsonValue& row : rob->find("per_lock")->array)
        table.row()
            .cell(str_of(row, "lock"))
            .cell(num_of(row, "cells"))
            .cell(num_of(row, "failures"))
            .cell(num_of(row, "acquisitions"))
            .cell(num_of(row, "timeouts"))
            .cell(num_of(row, "abandons"))
            .cell(num_of(row, "parked"))
            .cell(num_of(row, "grant_races"))
            .cell(num_of(row, "reclaims"))
            .cell(num_of(row, "rejoins"))
            .cell(num_of(row, "unparks"))
            .cell(num_of(row, "leaked_nodes"))
            .cell(num_of(row, "max_overshoot_ns"))
            .cell(num_of(row, "failures") != 0 ? "FAIL" : "ok");
    table.print(std::cout);

    const obs::JsonValue* cells = rob->find("cells");
    for (const obs::JsonValue& cell : cells->array) {
        if (str_of(cell, "verdict") != "FAIL")
            continue;
        std::cout << "\n"
                  << str_of(cell, "lock") << " preset="
                  << str_of(cell, "preset") << " " << num_of(cell, "nodes")
                  << "x" << num_of(cell, "cpus_per_node")
                  << " seed=" << num_of(cell, "seed") << ":\n"
                  << "  failure: " << str_of(cell, "what") << "\n";
        if (const obs::JsonValue* t = cell.find("trace"))
            std::cout << "  trace:   " << t->string << "\n";
        if (const obs::JsonValue* t = cell.find("minimal_trace"))
            std::cout << "  minimal: " << t->string << "\n";
    }
    const std::uint64_t failures = num_of(*rob, "failures");
    std::cout << "\nrobustness: " << cells->array.size() << " cells, "
              << failures << " failure" << (failures == 1 ? "" : "s") << " ("
              << str_of(*rob, "verdict") << ")\n";
    return failures == 0 ? 0 : 1;
}

/** Append every path where @p a and @p b differ (caps at 32 entries). */
void
diff_values(const obs::JsonValue& a, const obs::JsonValue& b,
            const std::string& path, std::vector<std::string>& out)
{
    constexpr std::size_t kMaxDiffs = 32;
    if (out.size() >= kMaxDiffs)
        return;
    if (a.type != b.type) {
        out.push_back(path + ": type differs");
        return;
    }
    switch (a.type) {
      case obs::JsonValue::Type::Object: {
        for (const auto& [key, av] : a.object) {
            const obs::JsonValue* bv = b.find(key);
            if (bv == nullptr)
                out.push_back(path + "." + key + ": only in first");
            else
                diff_values(av, *bv, path + "." + key, out);
            if (out.size() >= kMaxDiffs)
                return;
        }
        for (const auto& [key, bv] : b.object)
            if (a.find(key) == nullptr) {
                out.push_back(path + "." + key + ": only in second");
                if (out.size() >= kMaxDiffs)
                    return;
            }
        break;
      }
      case obs::JsonValue::Type::Array: {
        if (a.array.size() != b.array.size()) {
            out.push_back(path + ": array length " +
                          std::to_string(a.array.size()) + " vs " +
                          std::to_string(b.array.size()));
            return;
        }
        for (std::size_t i = 0; i < a.array.size(); ++i) {
            diff_values(a.array[i], b.array[i],
                        path + "[" + std::to_string(i) + "]", out);
            if (out.size() >= kMaxDiffs)
                return;
        }
        break;
      }
      case obs::JsonValue::Type::String:
        if (a.string != b.string)
            out.push_back(path + ": \"" + a.string + "\" vs \"" + b.string +
                          "\"");
        break;
      case obs::JsonValue::Type::Number:
        if (a.number != b.number)
            out.push_back(path + ": " + std::to_string(a.number) + " vs " +
                          std::to_string(b.number));
        break;
      case obs::JsonValue::Type::Bool:
        if (a.boolean != b.boolean)
            out.push_back(path + ": boolean differs");
        break;
      case obs::JsonValue::Type::Null:
        break;
    }
}

/** --diff=A,B: deterministic-field comparison of two reports. */
int
diff_reports(const std::string& spec)
{
    const std::size_t comma = spec.find(',');
    const std::string path_a = spec.substr(0, comma);
    const std::string path_b = spec.substr(comma + 1);
    auto a = load_report(path_a);
    auto b = load_report(path_b);
    if (!a || !b)
        return 2;
    obs::strip_nondeterministic(*a);
    obs::strip_nondeterministic(*b);
    std::vector<std::string> diffs;
    diff_values(*a, *b, "$", diffs);
    if (diffs.empty()) {
        std::cout << path_a << " and " << path_b
                  << ": identical over deterministic fields\n";
        return 0;
    }
    std::cout << path_a << " and " << path_b << " DIFFER:\n";
    for (const std::string& d : diffs)
        std::cout << "  " << d << "\n";
    return 1;
}

int
write_trace(const ProfiledRun& run, const obs::TimelineBuilder& timeline,
            const std::string& path)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "error: cannot write --trace file '" << path << "'\n";
        return 1;
    }
    timeline.write_chrome_trace(
        out, lock_name(run.kind),
        obs::contention_counter_tracks(run.result.contention));
    return 0;
}

/** The --traffic tables: per-acquisition attribution + link contention. */
void
print_traffic(const std::vector<ProfiledRun>& runs)
{
    // Per-acquisition rates in the paper's Table 2/6 shape, with the
    // global column split by the phase the transactions served.
    stats::Table table({"Lock", "acquires", "local/acq", "global/acq",
                        "g spin", "g handover", "g critical", "g release",
                        "g gate", "g unattr", "link util %", "link p99 ns"});
    for (const ProfiledRun& run : runs) {
        const obs::TrafficMetrics tm = obs::fold_traffic(
            run.result.traffic, run.result.traffic_attribution,
            run.result.contention, run.result.total_acquires,
            run.metrics.get());
        const double acq =
            tm.acquisitions == 0 ? 1.0 : static_cast<double>(tm.acquisitions);
        // Phase split summed over every attributed lock tier of the run.
        std::array<std::uint64_t, sim::kNumTxPhases> phase_global{};
        for (const obs::LockTrafficView& lock : tm.locks)
            for (int p = 0; p < sim::kNumTxPhases; ++p)
                phase_global[static_cast<std::size_t>(p)] +=
                    lock.tx.by_phase[static_cast<std::size_t>(p)].global_tx;
        const auto per_acq = [&](sim::TxPhase p) {
            return static_cast<double>(
                       phase_global[static_cast<std::size_t>(p)]) /
                   acq;
        };
        table.row()
            .cell(lock_name(run.kind))
            .cell(tm.acquisitions)
            .cell(tm.local_tx_per_acquisition(), 2)
            .cell(tm.global_tx_per_acquisition(), 2)
            .cell(per_acq(sim::TxPhase::AcquireSpin), 2)
            .cell(per_acq(sim::TxPhase::Handover), 2)
            .cell(per_acq(sim::TxPhase::Critical), 2)
            .cell(per_acq(sim::TxPhase::Release), 2)
            .cell(per_acq(sim::TxPhase::GatePublish), 2)
            .cell(static_cast<double>(tm.unattributed.global_tx) / acq, 2)
            .cell(100.0 * tm.link_utilization, 1)
            .cell(tm.link_queue_delay_ns.percentile(99.0), 0);
    }
    std::cout << "\nCoherence traffic per acquisition (global split by "
                 "phase):\n";
    table.print(std::cout);
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    const CliParse parsed = parse_cli(args);
    if (!parsed.options) {
        std::cerr << "error: " << parsed.error << "\n\n" << prof_usage();
        return 2;
    }
    const CliOptions& opts = *parsed.options;
    if (opts.help) {
        std::cout << prof_usage();
        return 0;
    }
    if (!opts.check_schema.empty())
        return check_schema(opts.check_schema);
    if (!opts.robustness.empty())
        return show_robustness(opts.robustness);
    if (!opts.diff.empty())
        return diff_reports(opts.diff);
    if (opts.counters) {
        // Informational probe: report per-event availability on this host.
        // Exit 0 when at least one event counts, 1 when none do — the CI
        // perf-smoke job treats both as "probe ran"; only a crash fails it.
        obs::PerfCounterSource source;
        return obs::print_counter_capabilities(source, stdout);
    }
    if (opts.bench == CliBench::Uncontested) {
        std::cerr << "error: nucaprof profiles contended runs; use "
                     "--bench=new or --bench=traditional\n";
        return 2;
    }
    if (!opts.faults.empty()) {
        std::cerr << "error: --faults profiling is not supported; use "
                     "nucabench\n";
        return 2;
    }
    if (opts.bench == CliBench::App) {
        if (opts.app != "kv") {
            std::cerr << "error: nucaprof --bench=app profiles the KV "
                         "service only (--app=kv); SPLASH-2 models run "
                         "under nucabench\n";
            return 2;
        }
    }

    const std::vector<LockKind> kinds = selected_locks(opts);
    const bool want_trace = !opts.trace.empty();

    // Each lock profiles into its own MetricsRegistry, so the per-lock runs
    // shard across host threads; the summary/report below walks them in
    // lock order, keeping output byte-identical at every --jobs level. The
    // shared TimelineBuilder is only attached under --trace, which
    // parse_cli restricts to a single lock (a one-job batch runs inline).
    const bool want_memtrace = !opts.memtrace.empty();
    std::vector<ProfiledRun> runs(kinds.size());
    obs::TimelineBuilder timeline;     // only fed when --trace is set
    sim::TraceRecorder memtrace;       // only attached under --memtrace
    memtrace.set_max_events(kMemtraceCap);
    exec::Executor executor(opts.jobs);
    executor.run_batch(kinds.size(), [&](std::size_t i) {
        ProfiledRun& run = runs[i];
        run.kind = kinds[i];
        run.metrics = std::make_unique<obs::MetricsRegistry>();
        obs::MultiSink sink;
        sink.add(run.metrics.get());
        if (want_trace)
            sink.add(&timeline); // single lock: parse_cli enforced it
        if (opts.bench == CliBench::App)
            run.structs = std::make_unique<structs::KvStructsStats>();
        run.result = run_bench(run.kind, opts, &sink,
                               want_memtrace ? &memtrace : nullptr,
                               run.structs.get());
        run.metrics->finalize();

#ifndef NDEBUG
        // Observer-effect tripwire (debug builds only, doubles the work):
        // the identical run without a sink must produce the identical
        // simulated history. tests/obs_test.cpp pins the same property.
        const BenchResult bare = run_bench(run.kind, opts, nullptr);
        NUCA_ASSERT(bare.acquisition_order_hash ==
                        run.result.acquisition_order_hash,
                    "probes changed the acquisition order of ",
                    lock_name(run.kind));
        NUCA_ASSERT(bare.total_time == run.result.total_time,
                    "probes changed the run time of ", lock_name(run.kind));
#endif
    });
    if (want_trace)
        timeline.finalize();

    // Human-readable summary. "local ho %" is the paper's locality
    // headline: handovers that stayed within a node.
    stats::Table table({"Lock", "ns/acquire", "local ho %", "remote ho %",
                        "node batch", "backoff us", "gate block %", "angry"});
    for (const ProfiledRun& run : runs) {
        const obs::LockMetrics* m = run.metrics->primary();
        const double local_pct =
            m == nullptr ? 0.0 : 100.0 * m->local_handover_fraction();
        const double remote_pct =
            m == nullptr ? 0.0 : 100.0 * m->remote_handover_fraction();
        const double batch =
            m == nullptr ? 0.0 : m->node_batch_lengths.mean();
        const double backoff_us =
            m == nullptr ? 0.0
                         : static_cast<double>(m->backoff_ns_total()) / 1e3;
        const double gate_pct =
            m == nullptr ? 0.0 : 100.0 * m->gate_block_fraction();
        const std::uint64_t angry = m == nullptr ? 0 : m->angry_transitions;
        table.row()
            .cell(lock_name(run.kind))
            .cell(run.result.avg_iteration_ns, 0)
            .cell(local_pct, 1)
            .cell(remote_pct, 1)
            .cell(batch, 2)
            .cell(backoff_us, 1)
            .cell(gate_pct, 1)
            .cell(angry);
    }
    table.print(std::cout);

    // ADAPTIVE gear telemetry: shown only for runs whose primary lock
    // actually switched gears (LockEvent::AdaptSwitch folded by the
    // registry; the same numbers land in the report's "adaptive" object).
    for (const ProfiledRun& run : runs) {
        const obs::LockMetrics* m = run.metrics->primary();
        if (m == nullptr || !m->adapt_seen)
            continue;
        std::cout << "\n"
                  << lock_name(run.kind) << " gears: " << m->adapt_switches
                  << " switch" << (m->adapt_switches == 1 ? "" : "es")
                  << " (";
        bool first = true;
        for (int r = 0; r < locks::kAdaptReasonCount; ++r) {
            if (m->adapt_reasons[r] == 0)
                continue;
            if (!first)
                std::cout << ", ";
            first = false;
            std::cout << locks::adapt_reason_name(
                             static_cast<locks::AdaptReason>(r))
                      << " " << m->adapt_reasons[r];
        }
        std::cout << "); residency";
        const double total =
            static_cast<double>(m->gear_residency_ns[0] +
                                m->gear_residency_ns[1] +
                                m->gear_residency_ns[2]);
        for (int g = 0; g < locks::kAdaptGearCount; ++g) {
            const double pct =
                total == 0.0
                    ? 0.0
                    : 100.0 *
                          static_cast<double>(
                              m->gear_residency_ns[g]) /
                          total;
            std::cout << (g == 0 ? " " : ", ")
                      << locks::adapt_gear_name(
                             static_cast<locks::AdaptGear>(g))
                      << " " << static_cast<int>(pct + 0.5) << "%";
        }
        if (m->demote_latency_ns.count() != 0)
            std::cout << "; demote p50 "
                      << static_cast<std::uint64_t>(
                             m->demote_latency_ns.percentile(50.0))
                      << " ns";
        std::cout << "\n";
    }

    if (opts.traffic)
        print_traffic(runs);

    int rc = 0;
    if (want_trace)
        rc = write_trace(runs.front(), timeline, opts.trace);

    if (want_memtrace) {
        std::ofstream out(opts.memtrace);
        if (!out) {
            std::cerr << "error: cannot write --memtrace file '"
                      << opts.memtrace << "'\n";
            return 1;
        }
        memtrace.dump_csv(out);
        std::cout << "memtrace: " << memtrace.events().size()
                  << " events written to " << opts.memtrace;
        if (memtrace.dropped() != 0)
            std::cout << " (" << memtrace.dropped()
                      << " dropped at the " << kMemtraceCap << "-event cap)";
        std::cout << "\n";
    }

    if (!opts.json.empty()) {
        std::vector<obs::ReportRun> report_runs;
        report_runs.reserve(runs.size());
        for (const ProfiledRun& run : runs) {
            obs::ReportRun rr(lock_name(run.kind), run.result,
                              run.metrics.get());
            rr.structs = run.structs.get();
            report_runs.push_back(rr);
        }
        if (write_json_report(opts, "nucaprof", report_runs) != 0)
            return 1;
    }
    return rc;
}
