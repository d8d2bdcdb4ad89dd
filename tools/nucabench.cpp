/**
 * @file
 * nucabench: a command-line front end to the microbenchmark harness.
 * Pick a benchmark, a (simulated) machine shape, and one lock or ALL;
 * results print as a table or CSV. Everything is deterministic per --seed.
 *
 * Examples:
 *   nucabench --bench=new --threads=28 --critical-work=1500
 *   nucabench --bench=uncontested --lock=HBO_GT
 *   nucabench --nodes=4 --cpus-per-node=8 --nuca-ratio=10 --csv
 */
#include <iostream>
#include <vector>

#include "apps/app_runner.hpp"
#include "apps/kv_service.hpp"
#include "apps/workload.hpp"
#include "exec/executor.hpp"
#include "front_end.hpp"
#include "harness/newbench.hpp"
#include "harness/options.hpp"
#include "harness/traditional.hpp"
#include "harness/uncontested.hpp"
#include "obs/report.hpp"
#include "stats/csv.hpp"
#include "stats/table.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::harness;
using namespace nucalock::locks;
using namespace nucalock::tools;

int
run_contended(const CliOptions& opts)
{
    const bool faulty = !opts.faults.empty();
    std::vector<std::string> headers = {"Lock",          "ns/acquire",
                                        "handoff ratio", "local tx",
                                        "global tx",     "fairness %"};
    if (faulty) {
        headers.push_back("faults");
        headers.push_back("mutex viol");
        headers.push_back("timeouts");
    }
    stats::Table table(headers);
    std::unique_ptr<stats::CsvWriter> csv;
    if (opts.csv)
        csv = std::make_unique<stats::CsvWriter>(std::cout, headers);
    std::vector<obs::ReportRun> runs;

    // Per-lock runs are independent deterministic simulations: fan them out
    // across host threads, then emit tables/CSV/JSON sequentially in lock
    // order so the output is byte-identical at every --jobs level.
    const std::vector<LockKind> kinds = selected_locks(opts);
    exec::Executor executor(opts.jobs);
    const std::vector<BenchResult> results =
        executor.map<BenchResult>(kinds.size(), [&](std::size_t i) {
            const LockKind kind = kinds[i];
            if (opts.bench == CliBench::New) {
                auto config = run_config_of<NewBenchConfig>(opts);
                config.critical_work = opts.critical_work;
                config.private_work = opts.private_work;
                config.iterations_per_thread = opts.iterations;
                if (faulty) {
                    // Spec already validated by parse_cli.
                    config.fault_plan = *sim::FaultPlan::parse(
                        opts.faults, opts.seed, opts.threads);
                }
                return run_newbench(kind, config);
            }
            auto config = run_config_of<TraditionalConfig>(opts);
            config.iterations_per_thread = opts.iterations;
            return run_traditional(kind, config);
        });

    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const LockKind kind = kinds[i];
        const BenchResult& r = results[i];
        if (!opts.json.empty())
            runs.push_back(obs::ReportRun{lock_name(kind), r, nullptr});
        if (csv) {
            csv->cell(lock_name(kind))
                .cell(r.avg_iteration_ns)
                .cell(r.node_handoff_ratio)
                .cell(r.traffic.local_tx)
                .cell(r.traffic.global_tx)
                .cell(r.fairness_spread_pct);
            if (faulty)
                csv->cell(r.faults_injected)
                    .cell(r.mutex_violations)
                    .cell(r.lock_timeouts);
            csv->end_row();
        } else {
            auto& row = table.row()
                            .cell(lock_name(kind))
                            .cell(r.avg_iteration_ns, 0)
                            .cell(r.node_handoff_ratio, 3)
                            .cell(r.traffic.local_tx)
                            .cell(r.traffic.global_tx)
                            .cell(r.fairness_spread_pct, 1);
            if (faulty)
                row.cell(r.faults_injected)
                    .cell(r.mutex_violations)
                    .cell(r.lock_timeouts);
        }
    }
    if (!csv)
        table.print(std::cout);
    if (!opts.json.empty())
        return write_json_report(opts, "nucabench", runs);
    return 0;
}

int
run_app_kv(const CliOptions& opts)
{
    const std::vector<std::string> headers = {
        "Lock",      "ns/op",      "handoff ratio", "local tx",
        "global tx", "fairness %", "resizes",       "local handover %"};
    stats::Table table(headers);
    std::unique_ptr<stats::CsvWriter> csv;
    if (opts.csv)
        csv = std::make_unique<stats::CsvWriter>(std::cout, headers);

    const apps::KvServiceConfig config = kv_config_of(opts);
    const std::vector<LockKind> kinds = selected_locks(opts);
    exec::Executor executor(opts.jobs);
    const std::vector<apps::KvOutcome> outcomes =
        executor.map<apps::KvOutcome>(kinds.size(), [&](std::size_t i) {
            return apps::run_kv_service(kinds[i], config);
        });

    std::vector<obs::ReportRun> runs;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const LockKind kind = kinds[i];
        const apps::KvOutcome& o = outcomes[i];
        const BenchResult& r = o.bench;
        const double local_pct = o.structs.local_handover_fraction() * 100.0;
        if (!opts.json.empty()) {
            obs::ReportRun run(lock_name(kind), r, nullptr);
            run.structs = &outcomes[i].structs;
            runs.push_back(run);
        }
        if (csv) {
            csv->cell(lock_name(kind))
                .cell(r.avg_iteration_ns)
                .cell(r.node_handoff_ratio)
                .cell(r.traffic.local_tx)
                .cell(r.traffic.global_tx)
                .cell(r.fairness_spread_pct)
                .cell(o.structs.resize_epochs)
                .cell(local_pct);
            csv->end_row();
        } else {
            table.row()
                .cell(lock_name(kind))
                .cell(r.avg_iteration_ns, 0)
                .cell(r.node_handoff_ratio, 3)
                .cell(r.traffic.local_tx)
                .cell(r.traffic.global_tx)
                .cell(r.fairness_spread_pct, 1)
                .cell(o.structs.resize_epochs)
                .cell(local_pct, 1);
        }
    }
    if (!csv)
        table.print(std::cout);
    if (!opts.json.empty())
        return write_json_report(opts, "nucabench", runs);
    return 0;
}

int
run_app_cli(const CliOptions& opts)
{
    if (opts.app == "kv")
        return run_app_kv(opts);

    // A SPLASH-2 descriptor by name: validate without app_by_name's fatal.
    const std::vector<apps::AppWorkload> suite = apps::splash2_suite();
    const apps::AppWorkload* app = nullptr;
    for (const apps::AppWorkload& candidate : suite)
        if (candidate.name == opts.app)
            app = &candidate;
    if (app == nullptr) {
        std::cerr << "error: unknown --app '" << opts.app
                  << "' (want kv or a SPLASH-2 name, e.g. Raytrace)\n";
        return 2;
    }
    if (!opts.json.empty()) {
        std::cerr << "error: --json with --bench=app needs --app=kv\n";
        return 2;
    }

    const std::vector<std::string> headers = {"Lock", "time ms", "local tx",
                                              "global tx", "lock calls"};
    stats::Table table(headers);
    std::unique_ptr<stats::CsvWriter> csv;
    if (opts.csv)
        csv = std::make_unique<stats::CsvWriter>(std::cout, headers);

    const auto config = run_config_of<apps::AppRunConfig>(opts);

    const std::vector<LockKind> kinds = selected_locks(opts);
    exec::Executor executor(opts.jobs);
    const std::vector<apps::AppOutcome> outcomes =
        executor.map<apps::AppOutcome>(kinds.size(), [&](std::size_t i) {
            return apps::run_app_once(*app, kinds[i], config);
        });

    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const apps::AppOutcome& o = outcomes[i];
        const double ms = static_cast<double>(o.time) / 1e6;
        if (csv) {
            csv->cell(lock_name(kinds[i]))
                .cell(ms)
                .cell(o.traffic.local_tx)
                .cell(o.traffic.global_tx)
                .cell(o.lock_calls);
            csv->end_row();
        } else {
            table.row()
                .cell(lock_name(kinds[i]))
                .cell(ms, 2)
                .cell(o.traffic.local_tx)
                .cell(o.traffic.global_tx)
                .cell(o.lock_calls);
        }
    }
    if (!csv)
        table.print(std::cout);
    return 0;
}

int
run_uncontested_cli(const CliOptions& opts)
{
    std::vector<std::string> headers = {"Lock", "same processor ns",
                                        "same node ns", "remote node ns"};
    stats::Table table(headers);
    std::unique_ptr<stats::CsvWriter> csv;
    if (opts.csv)
        csv = std::make_unique<stats::CsvWriter>(std::cout, headers);

    UncontestedConfig config;
    config.topology = Topology::symmetric(opts.nodes, opts.cpus_per_node);
    config.latency = latency_of(opts);
    config.params = opts.params;
    config.iterations = opts.iterations;
    config.seed = opts.seed;

    const std::vector<LockKind> kinds = selected_locks(opts);
    exec::Executor executor(opts.jobs);
    const std::vector<UncontestedResult> results =
        executor.map<UncontestedResult>(kinds.size(), [&](std::size_t i) {
            return run_uncontested(kinds[i], config);
        });

    for (std::size_t i = 0; i < kinds.size(); ++i) {
        const LockKind kind = kinds[i];
        const UncontestedResult& r = results[i];
        if (csv) {
            csv->cell(lock_name(kind))
                .cell(r.same_processor_ns)
                .cell(r.same_node_ns)
                .cell(r.remote_node_ns);
            csv->end_row();
        } else {
            table.row()
                .cell(lock_name(kind))
                .cell(r.same_processor_ns, 0)
                .cell(r.same_node_ns, 0)
                .cell(r.remote_node_ns, 0);
        }
    }
    if (!csv)
        table.print(std::cout);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    const CliParse parsed = parse_cli(args);
    if (!parsed.options) {
        std::cerr << "error: " << parsed.error << "\n\n" << cli_usage();
        return 2;
    }
    const CliOptions& opts = *parsed.options;
    if (opts.help) {
        std::cout << cli_usage();
        return 0;
    }
    if (!opts.trace.empty() || !opts.check_schema.empty()) {
        std::cerr << "error: --trace/--check-schema belong to nucaprof\n";
        return 2;
    }
    if (opts.bench == CliBench::App)
        return run_app_cli(opts);
    if (opts.bench == CliBench::Uncontested) {
        if (!opts.json.empty()) {
            std::cerr << "error: --json is not supported with "
                         "--bench=uncontested\n";
            return 2;
        }
        return run_uncontested_cli(opts);
    }
    return run_contended(opts);
}
