#include "harness/options.hpp"

#include <charconv>

#include "locks/any_lock.hpp"
#include "sim/faults.hpp"

namespace nucalock::harness {
namespace {

bool
split_arg(const std::string& arg, std::string* key, std::string* value)
{
    if (arg.rfind("--", 0) != 0)
        return false;
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
        *key = arg.substr(2);
        value->clear();
        return true;
    }
    *key = arg.substr(2, eq - 2);
    *value = arg.substr(eq + 1);
    return true;
}

template <typename T>
bool
parse_number(const std::string& text, T* out)
{
    const char* first = text.data();
    const char* last = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(first, last, *out);
    return ec == std::errc() && ptr == last;
}

bool
parse_double(const std::string& text, double* out)
{
    try {
        std::size_t used = 0;
        *out = std::stod(text, &used);
        return used == text.size();
    } catch (...) {
        return false;
    }
}

CliParse
fail(const std::string& message)
{
    return CliParse{std::nullopt, message};
}

/**
 * The "locks:" paragraph of both --help texts: every
 * locks::all_lock_kinds() name, wrapped, then the RH node limit.
 */
std::string
lock_list_usage()
{
    // Wrapped at 64 columns, continuation lines aligned under the names.
    constexpr std::size_t kWidth = 64;
    std::vector<std::string> words;
    for (locks::LockKind kind : locks::all_lock_kinds())
        words.emplace_back(locks::lock_name(kind));
    words.emplace_back("(RH: --nodes<=2)");
    std::string out = "locks:";
    std::size_t column = out.size();
    for (const std::string& word : words) {
        if (column + 1 + word.size() > kWidth) {
            out += "\n      ";
            column = 6;
        }
        out += ' ' + word;
        column += 1 + word.size();
    }
    return out + '\n';
}

} // namespace

std::optional<ShapeSpec>
parse_shape(const std::string& text)
{
    const std::size_t x = text.find('x');
    if (x == std::string::npos || x == 0 || x + 1 == text.size())
        return std::nullopt;
    ShapeSpec shape;
    if (!parse_number(text.substr(0, x), &shape.nodes) ||
        !parse_number(text.substr(x + 1), &shape.cpus_per_node) ||
        shape.nodes < 1 || shape.cpus_per_node < 1)
        return std::nullopt;
    return shape;
}

std::optional<std::vector<ShapeSpec>>
parse_shape_list(const std::string& text)
{
    std::vector<ShapeSpec> shapes;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        const auto shape = parse_shape(text.substr(start, comma - start));
        if (!shape)
            return std::nullopt;
        shapes.push_back(*shape);
        start = comma + 1;
    }
    if (shapes.empty())
        return std::nullopt;
    return shapes;
}

std::string
cli_usage()
{
    return "nucabench — run the paper's lock microbenchmarks on the NUCA "
           "simulator\n"
           "\n"
           "usage: nucabench [--bench=new|traditional|uncontested|app]\n"
           "                 [--lock=NAME|ALL] [--nodes=N] [--cpus-per-node=N]\n"
           "                 [--shape=NxC] [--threads=N] [--critical-work=INTS]\n"
           "                 [--private-work=ITERS] [--iterations=N]\n"
           "                 [--nuca-ratio=R] [--seed=S] [--preemption]\n"
           "                 [--faults=SPEC] [--csv] [--json=PATH]\n"
           "                 [--app=kv|SPLASH2_NAME] [--kv-keys=N]\n"
           "                 [--kv-stripes=N] [--kv-read-pct=P]\n"
           "                 [--kv-write-pct=P] [--kv-scan-len=N]\n"
           "                 [--kv-skew=S] [--kv-ops=N] [--kv-storms=N]\n"
           "                 [--jobs=N] [--reactive-slow=N] [--reactive-fast=N]\n"
           "                 [--adaptive-epoch=N] [--adaptive-spin-up=N]\n"
           "                 [--adaptive-spin-down=N] [--adaptive-remote-frac=P]\n"
           "                 [--adaptive-link-util=P] [--adaptive-storm=N]\n"
           "                 [--adaptive-quiet=N] [--adaptive-cooldown=N]\n"
           "                 [--help]\n"
           "\n"
           "--jobs=N runs independent benchmark runs on N host threads\n"
           "(default: $NUCALOCK_JOBS, else hardware concurrency). Results\n"
           "and reports are bit-identical at every --jobs level.\n"
           "\n"
           "--shape=NxC is shorthand for --nodes=N --cpus-per-node=C; the\n"
           "simulator scales to 64x16 = 1024 simulated cpus.\n"
           "\n" +
           lock_list_usage() +
           "\n"
           "--preemption deschedules threads at random, as a multiprogrammed\n"
           "OS would (Table 4); new and app benches only.\n"
           "\n"
           "--faults takes '+'-separated presets (new bench only): holder,\n"
           "publish, spinner, spike, stall, death, holderdeath, chaos,\n"
           "none. Victims and times derive deterministically from --seed.\n"
           "\n"
           "--bench=app drives an application model; --app=kv (default) is\n"
           "the sharded KV service over the striped hash map, tunable with\n"
           "the --kv-* knobs (keys, stripes, read/write mix, Zipf skew,\n"
           "ops per thread, resize storms). Any SPLASH-2 descriptor name\n"
           "(e.g. --app=Raytrace) runs that model instead.\n";
}

std::string
prof_usage()
{
    return "nucaprof — profile a lock microbenchmark run through the "
           "observability probes\n"
           "\n"
           "usage: nucaprof [--bench=new|traditional|app] [--lock=NAME|ALL]\n"
           "                [--nodes=N] [--cpus-per-node=N] [--threads=N]\n"
           "                [--critical-work=INTS] [--private-work=ITERS]\n"
           "                [--iterations=N] [--nuca-ratio=R] [--seed=S]\n"
           "                [--preemption] [--traffic] [--json=PATH]\n"
           "                [--trace=PATH] [--memtrace=PATH] [--jobs=N]\n"
           "                [--app=kv] [--kv-keys=N] [--kv-stripes=N]\n"
           "                [--kv-read-pct=P] [--kv-write-pct=P]\n"
           "                [--kv-scan-len=N] [--kv-skew=S] [--kv-ops=N]\n"
           "                [--kv-storms=N]\n"
           "       nucaprof --check-schema=REPORT.json\n"
           "       nucaprof --robustness=REPORT.json\n"
           "       nucaprof --diff=A.json,B.json\n"
           "       nucaprof --counters\n"
           "\n" +
           lock_list_usage() +
           "\n"
           "--traffic prints the coherence-traffic attribution tables\n"
           "(per-phase local/global transactions per acquisition);\n"
           "--json writes the nucalock-bench-report v6 document (- = "
           "stdout);\n"
           "--trace needs a single --lock and writes Chrome trace_event "
           "JSON\nwith link-utilisation counter tracks; --memtrace needs a "
           "single\n--lock and writes the raw access trace CSV (1M-event "
           "cap).\n"
           "\n"
           "--bench=app profiles the KV-service application model (the\n"
           "sharded striped-map store; only --app=kv) through the same\n"
           "probes: per-stripe locks show up as separate attribution rows\n"
           "in --traffic, and --json adds the v6 per-run structs object.\n"
           "\n"
           "--counters probes perf_event availability on this host: one\n"
           "line per hardware event (available / multiplexed / denied with\n"
           "the perf_event_paranoid level / unsupported). Exit 0 when at\n"
           "least one event counts, 1 when none do. --diff strips the\n"
           "members the report schema marks host-dependent before\n"
           "comparing.\n";
}

CliParse
parse_cli(const std::vector<std::string>& args)
{
    CliOptions opts;
    bool threads_given = false;
    for (const std::string& arg : args) {
        std::string key;
        std::string value;
        if (!split_arg(arg, &key, &value))
            return fail("arguments must look like --key=value, got '" + arg +
                        "'");

        if (key == "help") {
            opts.help = true;
        } else if (key == "bench") {
            if (value == "new")
                opts.bench = CliBench::New;
            else if (value == "traditional")
                opts.bench = CliBench::Traditional;
            else if (value == "uncontested")
                opts.bench = CliBench::Uncontested;
            else if (value == "app")
                opts.bench = CliBench::App;
            else
                return fail("unknown bench '" + value + "'");
        } else if (key == "lock") {
            if (value != "ALL" && !locks::parse_lock_name(value))
                return fail("unknown lock '" + value + "'");
            opts.lock = value;
        } else if (key == "nodes") {
            if (!parse_number(value, &opts.nodes) || opts.nodes < 1)
                return fail("bad --nodes '" + value + "'");
        } else if (key == "cpus-per-node") {
            if (!parse_number(value, &opts.cpus_per_node) ||
                opts.cpus_per_node < 1)
                return fail("bad --cpus-per-node '" + value + "'");
        } else if (key == "shape") {
            // --shape=NxC is shorthand for --nodes=N --cpus-per-node=C.
            const auto shape = parse_shape(value);
            if (!shape)
                return fail("bad --shape '" + value + "' (want NxC, e.g. 2x14)");
            opts.nodes = shape->nodes;
            opts.cpus_per_node = shape->cpus_per_node;
        } else if (key == "threads") {
            if (!parse_number(value, &opts.threads) || opts.threads < 1)
                return fail("bad --threads '" + value + "'");
            threads_given = true;
        } else if (key == "critical-work") {
            if (!parse_number(value, &opts.critical_work))
                return fail("bad --critical-work '" + value + "'");
        } else if (key == "private-work") {
            if (!parse_number(value, &opts.private_work))
                return fail("bad --private-work '" + value + "'");
        } else if (key == "iterations") {
            if (!parse_number(value, &opts.iterations) || opts.iterations == 0)
                return fail("bad --iterations '" + value + "'");
        } else if (key == "nuca-ratio") {
            if (!parse_double(value, &opts.nuca_ratio) || opts.nuca_ratio < 0.0)
                return fail("bad --nuca-ratio '" + value + "'");
            if (opts.nuca_ratio != 0.0 && opts.nuca_ratio < 1.0)
                return fail("--nuca-ratio must be >= 1 (or 0 for default)");
        } else if (key == "app") {
            if (value.empty())
                return fail("--app needs a name (kv or a SPLASH-2 app)");
            opts.app = value;
        } else if (key == "kv-keys") {
            if (!parse_number(value, &opts.kv_keys) || opts.kv_keys == 0)
                return fail("bad --kv-keys '" + value + "'");
        } else if (key == "kv-stripes") {
            if (!parse_number(value, &opts.kv_stripes) || opts.kv_stripes == 0)
                return fail("bad --kv-stripes '" + value + "'");
        } else if (key == "kv-read-pct") {
            if (!parse_number(value, &opts.kv_read_pct) ||
                opts.kv_read_pct > 100)
                return fail("bad --kv-read-pct '" + value + "' (want 0..100)");
        } else if (key == "kv-write-pct") {
            if (!parse_number(value, &opts.kv_write_pct) ||
                opts.kv_write_pct > 100)
                return fail("bad --kv-write-pct '" + value + "' (want 0..100)");
        } else if (key == "kv-scan-len") {
            if (!parse_number(value, &opts.kv_scan_len) ||
                opts.kv_scan_len == 0)
                return fail("bad --kv-scan-len '" + value + "'");
        } else if (key == "kv-skew") {
            if (!parse_double(value, &opts.kv_skew) || opts.kv_skew < 0.0)
                return fail("bad --kv-skew '" + value + "' (want >= 0)");
        } else if (key == "kv-ops") {
            if (!parse_number(value, &opts.kv_ops) || opts.kv_ops == 0)
                return fail("bad --kv-ops '" + value + "'");
        } else if (key == "kv-storms") {
            if (!parse_number(value, &opts.kv_storms))
                return fail("bad --kv-storms '" + value + "'");
        } else if (key == "seed") {
            if (!parse_number(value, &opts.seed))
                return fail("bad --seed '" + value + "'");
        } else if (key == "preemption") {
            opts.preemption = true;
        } else if (key == "faults") {
            opts.faults = value;
        } else if (key == "csv") {
            opts.csv = true;
        } else if (key == "json") {
            if (value.empty())
                return fail("--json needs a path (use - for stdout)");
            opts.json = value;
        } else if (key == "trace") {
            if (value.empty())
                return fail("--trace needs a path");
            opts.trace = value;
        } else if (key == "traffic") {
            opts.traffic = true;
        } else if (key == "memtrace") {
            if (value.empty())
                return fail("--memtrace needs a path");
            opts.memtrace = value;
        } else if (key == "check-schema") {
            if (value.empty())
                return fail("--check-schema needs a report file");
            opts.check_schema = value;
        } else if (key == "robustness") {
            if (value.empty())
                return fail("--robustness needs a report file");
            opts.robustness = value;
        } else if (key == "diff") {
            const std::size_t comma = value.find(',');
            if (comma == std::string::npos || comma == 0 ||
                comma + 1 == value.size())
                return fail("--diff needs two report files: --diff=A,B");
            opts.diff = value;
        } else if (key == "counters") {
            opts.counters = true;
        } else if (key == "jobs") {
            if (!parse_number(value, &opts.jobs) || opts.jobs < 1 ||
                opts.jobs > 1024)
                return fail("bad --jobs '" + value + "' (want 1..1024)");
        } else if (key == "reactive-slow") {
            if (!parse_number(value, &opts.params.reactive_slow_threshold) ||
                opts.params.reactive_slow_threshold == 0)
                return fail("bad --reactive-slow '" + value + "'");
        } else if (key == "reactive-fast") {
            if (!parse_number(value, &opts.params.reactive_fast_threshold) ||
                opts.params.reactive_fast_threshold == 0)
                return fail("bad --reactive-fast '" + value + "'");
        } else if (key == "adaptive-epoch") {
            if (!parse_number(value, &opts.params.adaptive.epoch) ||
                opts.params.adaptive.epoch == 0)
                return fail("bad --adaptive-epoch '" + value + "'");
        } else if (key == "adaptive-spin-up") {
            if (!parse_number(value, &opts.params.adaptive.spin_up))
                return fail("bad --adaptive-spin-up '" + value + "'");
        } else if (key == "adaptive-spin-down") {
            if (!parse_number(value, &opts.params.adaptive.spin_down))
                return fail("bad --adaptive-spin-down '" + value + "'");
        } else if (key == "adaptive-remote-frac") {
            if (!parse_number(value, &opts.params.adaptive.remote_frac_pct) ||
                opts.params.adaptive.remote_frac_pct > 100)
                return fail("bad --adaptive-remote-frac '" + value +
                            "' (want 0..100)");
        } else if (key == "adaptive-link-util") {
            if (!parse_number(value, &opts.params.adaptive.link_util_pct) ||
                opts.params.adaptive.link_util_pct > 100)
                return fail("bad --adaptive-link-util '" + value +
                            "' (want 0..100)");
        } else if (key == "adaptive-storm") {
            if (!parse_number(value, &opts.params.adaptive.storm_abandons) ||
                opts.params.adaptive.storm_abandons == 0)
                return fail("bad --adaptive-storm '" + value + "'");
        } else if (key == "adaptive-quiet") {
            if (!parse_number(value, &opts.params.adaptive.quiet_epochs) ||
                opts.params.adaptive.quiet_epochs == 0)
                return fail("bad --adaptive-quiet '" + value + "'");
        } else if (key == "adaptive-cooldown") {
            if (!parse_number(value, &opts.params.adaptive.cooldown_acquires))
                return fail("bad --adaptive-cooldown '" + value + "'");
        } else {
            return fail("unknown option '--" + key + "'");
        }
    }

    if (!opts.trace.empty() && opts.lock == "ALL")
        return fail("--trace needs a single --lock (not ALL)");
    if (!opts.memtrace.empty() && opts.lock == "ALL")
        return fail("--memtrace needs a single --lock (not ALL)");
    if (!threads_given)
        opts.threads = opts.nodes * opts.cpus_per_node; // full machine
    if (opts.threads > opts.nodes * opts.cpus_per_node)
        return fail("--threads exceeds nodes*cpus-per-node");
    if (opts.lock == "RH" && opts.nodes > 2)
        return fail("RH supports at most two nodes");
    if (opts.kv_read_pct + opts.kv_write_pct > 100)
        return fail("--kv-read-pct + --kv-write-pct must be <= 100");
    // Preemption would drive the traditional benchmark's queue locks past
    // max_sim_time (the paper's collapse, but as an abort that loses every
    // other lock's row), and the uncontested probes measure one pair with
    // no interference by design.
    if (opts.preemption && (opts.bench == CliBench::Traditional ||
                            opts.bench == CliBench::Uncontested))
        return fail("--preemption is not supported with "
                    "--bench=traditional or --bench=uncontested");
    if (!opts.faults.empty()) {
        if (opts.bench != CliBench::New)
            return fail("--faults is only supported with --bench=new");
        if (!sim::FaultPlan::parse(opts.faults, opts.seed, opts.threads))
            return fail("bad --faults spec '" + opts.faults + "'");
    }
    return CliParse{opts, ""};
}

} // namespace nucalock::harness
