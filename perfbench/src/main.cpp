/**
 * @file
 * perfbench: the repository benchmark's single binary.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--jobs J] [--tiny] [--pin 0xHASH] [--out DIR]
 *
 * --trace 0 runs workload W for S seconds and reports every end-to-end
 * metric. --trace 1 is the traced run: W again untraced and then with spans
 * on (their wall-time difference is bench.trace_overhead_pct), every
 * isolated layer probe, and a tiny traced run of each workload that owns a
 * layer W does not exercise; it reports every per-layer metric.
 *
 * The last stdout line is the result object; the line before it is an info
 * object (host fingerprint, hashes, sample counts, errors). Both, with the
 * metrics, also land in DIR/results/, and the spans in DIR/traces/.
 */
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "exec/executor.hpp"
#include "obs/json.hpp"
#include "obs/perf_counters.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

using WorkloadFn = WorkloadRun (*)(const Options&, double, Tracer&);

const std::vector<std::pair<std::string, WorkloadFn>> kWorkloads = {
    {"fig5_sweep", run_fig5_sweep},
    {"scale_1024", run_scale_1024},
    {"kv_service", run_kv_service},
    {"native_locks", run_native_locks},
};

/** Workloads whose own per-layer metrics every traced run reports. */
const std::vector<std::string> kLayerOwners = {"fig5_sweep", "kv_service",
                                               "native_locks"};

const std::vector<std::string> kSimCounts = {
    "sim.events", "sim.switches", "sim.acquisitions", "sim.events_per_acq",
    "sim.switches_per_acq"};

std::string
read_first_line_matching(const char* path, const char* key)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key, 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                return line;
            std::size_t start = colon + 1;
            while (start < line.size() && line[start] == ' ')
                ++start;
            return line.substr(start);
        }
    }
    return "unknown";
}

/** The host fingerprint stored with every result. */
std::vector<std::pair<std::string, std::string>>
fingerprint()
{
    std::vector<std::pair<std::string, std::string>> fp;
    fp.emplace_back("nproc",
                    std::to_string(nucalock::exec::hardware_jobs()));
    fp.emplace_back("cpu_model",
                    read_first_line_matching("/proc/cpuinfo", "model name"));
    fp.emplace_back("compiler", PERFBENCH_COMPILER);
    fp.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
    std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string thp_mode = "unknown";
    std::getline(thp, thp_mode);
    fp.emplace_back("thp", thp_mode);
    nucalock::obs::PerfCounterSource source;
    const auto caps = source.capabilities();
    fp.emplace_back("perf_counters",
                    caps.available ? "available"
                                   : "unavailable: " + caps.unavailable_reason);
    fp.emplace_back("libbenchmark", PERFBENCH_LIBBENCHMARK);
    return fp;
}

std::string
json_number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
json_object(const std::vector<std::pair<std::string, std::string>>& kv)
{
    std::string out = "{";
    for (std::size_t i = 0; i < kv.size(); ++i) {
        out += (i == 0 ? "\"" : ", \"") + nucalock::obs::json_escape(kv[i].first) +
               "\": \"" + nucalock::obs::json_escape(kv[i].second) + "\"";
    }
    return out + "}";
}

std::string
metrics_object(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
               json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
}

[[noreturn]] void
usage(const char* what)
{
    std::fprintf(stderr,
                 "error: %s\nusage: perfbench --workload "
                 "fig5_sweep|scale_1024|kv_service|native_locks --seed N "
                 "--seconds S --trace 0|1 [--jobs J] [--tiny] [--pin 0xHASH] "
                 "[--out DIR]\n",
                 what);
    std::exit(2);
}

WorkloadFn
workload_fn(const std::string& name)
{
    for (const auto& [n, fn] : kWorkloads)
        if (n == name)
            return fn;
    return nullptr;
}

/**
 * Append @p src's metrics to @p dst. From another workload (a tiny
 * layer-owner run) the simulator counts are skipped and other exact counts
 * reported as 0: they describe that run, not this workload.
 */
void
append_layer(Report& dst, const Report& src, bool foreign)
{
    for (const Metric& m : src.per_layer) {
        if (foreign && std::find(kSimCounts.begin(), kSimCounts.end(),
                                 m.name) != kSimCounts.end())
            continue;
        dst.layer(m.name, foreign && m.unit == "count" ? 0.0 : m.value, m.unit);
    }
}

/**
 * @p opts with the host threads @p workload runs on: fig5_sweep fans out
 * over the executor at --jobs; scale_1024 and kv_service run on one host
 * thread; native_locks contends on at most two, because on a shared
 * virtual machine more busy threads mostly measure the hypervisor
 * (README.md, "Host noise").
 */
Options
workload_options(const std::string& workload, Options opts)
{
    if (workload == "scale_1024" || workload == "kv_service")
        opts.jobs = 1;
    if (workload == "native_locks")
        opts.jobs = std::min(opts.jobs, 2);
    return opts;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opts;
    opts.jobs = nucalock::exec::hardware_jobs();
    std::string workload;
    std::string out_dir = ".";
    double seconds = 0.0;
    bool trace = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = value();
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds") {
            seconds = std::atof(value().c_str());
            have_seconds = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            trace = v == "1";
            have_trace = true;
        } else if (arg == "--jobs") {
            opts.jobs = std::atoi(value().c_str());
        } else if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--pin") {
            opts.pin = std::strtoull(value().c_str(), nullptr, 16);
            opts.has_pin = true;
        } else if (arg == "--out") {
            out_dir = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    const WorkloadFn fn = workload_fn(workload);
    if (fn == nullptr)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");
    if (opts.jobs < 1 || opts.jobs > 256 || seconds < 0.0)
        usage("bad --jobs or --seconds");

    const Options wopts = workload_options(workload, opts);

    Report report;
    Tracer off(false);
    Tracer tracer(trace);
    const double t_start = now_ns();
    if (!trace) {
        WorkloadRun run = fn(wopts, seconds, off);
        report = std::move(run.report);
    } else {
        // Probes and tiny owner runs take ~2-4 s; the rest of the budget
        // is split between the untraced and the traced runs of W.
        const double half = std::max(0.5, (seconds - 4.0) / 2.0);
        WorkloadRun plain = fn(wopts, half, off);
        WorkloadRun traced = fn(wopts, half, tracer);
        report.info = traced.report.info;
        report.absorb_checks(plain.report);
        report.absorb_checks(traced.report);

        const LayerCosts costs = run_probes(opts, report, tracer);

        // Layer metrics owned by one workload: from W itself, or from a
        // tiny traced run of the owner when W bypasses that layer.
        Options tiny = opts;
        tiny.tiny = true;
        tiny.has_pin = false;
        WorkloadRun fig5_tiny;
        for (const std::string& owner : kLayerOwners) {
            if (owner == workload) {
                append_layer(report, traced.report, false);
                continue;
            }
            const Options o = workload_options(owner, tiny);
            WorkloadRun small = workload_fn(owner)(o, 0.0, tracer);
            report.absorb_checks(small.report);
            append_layer(report, small.report, true);
            if (owner == "fig5_sweep")
                fig5_tiny = std::move(small);
        }
        if (workload == "scale_1024")
            append_layer(report, traced.report, false);
        if (!traced.simulated) {
            // native_locks simulates nothing: zero counts, and the shares
            // of the fig5_sweep layer-owner run.
            for (const std::string& name : kSimCounts)
                report.layer(name, 0.0, "count");
            add_shares(fig5_tiny, costs, report);
        } else {
            add_shares(traced, costs, report);
        }
        report.layer("bench.trace_overhead_pct",
                     100.0 * (traced.wall_ns - plain.wall_ns) / plain.wall_ns,
                     "%");
    }
    report.note("total_s", json_number((now_ns() - t_start) / 1e9));

    if (report.attempted == 0)
        report.attempted = 1;
    std::vector<Metric>& metrics =
        trace ? report.per_layer : report.end_to_end;
    if (trace)
        report.layer("error_ratio",
                     static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted),
                     "ratio");
    std::map<std::string, int> seen;
    for (Metric& m : metrics) {
        if (!std::isfinite(m.value)) {
            report.fail("metric " + m.name + " is not finite");
            m.value = 0.0;
        }
        if (++seen[m.name] == 2)
            report.fail("metric " + m.name + " reported twice");
    }
    const bool correct = report.failed == 0;

    const auto fp = fingerprint();
    std::vector<std::pair<std::string, std::string>> info = fp;
    info.emplace_back("workload", workload);
    info.emplace_back("seed", std::to_string(opts.seed));
    info.emplace_back("trace", trace ? "1" : "0");
    info.insert(info.end(), report.info.begin(), report.info.end());
    for (std::size_t i = 0; i < report.errors.size(); ++i)
        info.emplace_back("error." + std::to_string(i), report.errors[i]);

    const std::string result =
        std::string("{\"correct\": ") + (correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(report.attempted) +
        ", \"failed\": " + std::to_string(report.failed) +
        ", \"metrics\": " + metrics_object(metrics) + "}";
    const std::string info_json = json_object(info);

    const std::string stem = workload + "-seed" + std::to_string(opts.seed) +
                             "-trace" + (trace ? "1" : "0");
    ::mkdir((out_dir + "/results").c_str(), 0755);
    {
        std::ofstream f(out_dir + "/results/" + stem + ".json");
        f << "{\"info\": " << info_json << ",\n \"result\": " << result
          << "}\n";
    }
    if (trace) {
        ::mkdir((out_dir + "/traces").c_str(), 0755);
        if (!tracer.write(out_dir + "/traces/" + stem + ".json"))
            std::fprintf(stderr, "warning: cannot write the trace\n");
    }
    std::printf("%s\n%s\n", info_json.c_str(), result.c_str());
    return correct ? 0 : 1;
}
