/**
 * @file
 * The command-line front-end code nucabench and nucaprof share: which
 * locks a run covers, its latency model, the run fields every workload
 * config takes from the command line, the KV-service config, and the
 * --json report write. Header-only; both tools include it.
 */
#ifndef NUCALOCK_TOOLS_FRONT_END_HPP
#define NUCALOCK_TOOLS_FRONT_END_HPP

#include <fstream>
#include <iostream>
#include <vector>

#include "apps/kv_service.hpp"
#include "harness/options.hpp"
#include "obs/report.hpp"

namespace nucalock::tools {

/** --lock's locks: the one named, or every kind (RH only on machines of
 *  at most two nodes). */
inline std::vector<locks::LockKind>
selected_locks(const harness::CliOptions& opts)
{
    if (opts.lock != "ALL")
        return {*locks::parse_lock_name(opts.lock)};
    std::vector<locks::LockKind> kinds;
    for (locks::LockKind kind : locks::all_lock_kinds()) {
        if (kind == locks::LockKind::Rh && opts.nodes > 2)
            continue;
        kinds.push_back(kind);
    }
    return kinds;
}

inline sim::LatencyModel
latency_of(const harness::CliOptions& opts)
{
    return opts.nuca_ratio == 0.0 ? sim::LatencyModel::wildfire()
                                  : sim::LatencyModel::scaled(opts.nuca_ratio);
}

/** A workload config with the run fields every bench shares filled from
 *  the command line: machine shape, latency model, lock parameters,
 *  threads, seed and preemption. */
template <typename Config>
Config
run_config_of(const harness::CliOptions& opts)
{
    Config config;
    config.topology = Topology::symmetric(opts.nodes, opts.cpus_per_node);
    config.latency = latency_of(opts);
    config.params = opts.params;
    config.threads = opts.threads;
    config.seed = opts.seed;
    config.preemption = opts.preemption;
    return config;
}

/** Build the KV-service config a --bench=app --app=kv run uses. */
inline apps::KvServiceConfig
kv_config_of(const harness::CliOptions& opts)
{
    auto config = run_config_of<apps::KvServiceConfig>(opts);
    config.keys = opts.kv_keys;
    config.stripes = opts.kv_stripes;
    config.zipf_skew = opts.kv_skew;
    config.read_pct = static_cast<int>(opts.kv_read_pct);
    config.write_pct = static_cast<int>(opts.kv_write_pct);
    config.scan_len = opts.kv_scan_len;
    config.ops_per_thread = opts.kv_ops;
    config.resize_storms = static_cast<int>(opts.kv_storms);
    return config;
}

/** Write @p tool's report of @p runs to --json's path ("-" = stdout);
 *  returns 1 when the file cannot be opened. */
inline int
write_json_report(const harness::CliOptions& opts, const char* tool,
                  const std::vector<obs::ReportRun>& runs)
{
    obs::ReportConfig config;
    config.tool = tool;
    config.bench = opts.bench == harness::CliBench::App ? "app-kv"
                   : opts.bench == harness::CliBench::New ? "new"
                                                          : "traditional";
    config.nodes = opts.nodes;
    config.cpus_per_node = opts.cpus_per_node;
    config.threads = opts.threads;
    config.critical_work = opts.critical_work;
    config.private_work = opts.private_work;
    config.iterations = opts.iterations;
    config.nuca_ratio = opts.nuca_ratio;
    config.seed = opts.seed;
    if (opts.json == "-") {
        obs::write_report(std::cout, config, runs);
        return 0;
    }
    std::ofstream out(opts.json);
    if (!out) {
        std::cerr << "error: cannot write --json file '" << opts.json << "'\n";
        return 1;
    }
    obs::write_report(out, config, runs);
    return 0;
}

} // namespace nucalock::tools

#endif // NUCALOCK_TOOLS_FRONT_END_HPP
