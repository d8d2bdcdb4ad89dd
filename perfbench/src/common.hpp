/**
 * @file
 * Shared pieces of the repository benchmark: clocks, order statistics,
 * resident-memory readings, the in-memory span recorder and the metric
 * record every workload fills.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Monotonic nanoseconds since an arbitrary epoch. */
inline double
now_ns()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

/**
 * The calling thread's CPU time in nanoseconds. On a virtual machine it
 * excludes the time the hypervisor runs something else on this vCPU
 * (steal), which wall clocks include; for a thread that never blocks it is
 * the wall time the work would take on an unshared host. README.md,
 * "Host noise", has the measurements that made it the benchmark's clock.
 */
inline double
cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/**
 * Fine-grained timestamp for timing single short operations: the TSC on
 * x86-64 (constant-rate on current hosts), steady-clock ns elsewhere.
 * Convert differences with ns_per_tick(). A TSC tick is a fraction of a
 * nanosecond, so per-operation latencies are not quantized to whole ns.
 */
inline std::uint64_t
tick()
{
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(now_ns());
#endif
}

/** Nanoseconds per tick() unit, calibrated once per process. */
double ns_per_tick();

/** FNV-1a chain of 64-bit hashes, byte by byte (bench_sim_throughput's). */
class HashChain
{
  public:
    void
    add(std::uint64_t h)
    {
        for (int shift = 0; shift < 64; shift += 8) {
            value_ ^= (h >> shift) & 0xffu;
            value_ *= 1099511628211ULL;
        }
    }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 1469598103934665603ULL;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * The highest percentile of @p v with at least ten samples above it,
 * capped at @p q: the value at rank min(ceil(q*n), n-10) - 1. With ten or
 * fewer samples no rank qualifies and the maximum is returned. @p used
 * receives the quantile actually reported.
 */
double tail(std::vector<double> v, double q, double* used = nullptr);

/** Geometric mean of positive values. */
double geomean(const std::vector<double>& v);

/** Values joined by spaces (for the info object). */
std::string join(const std::vector<double>& v);

/** Peak resident set of this process, MiB (getrusage ru_maxrss). */
double peak_rss_mb();

/** Current resident set of this process, MiB (/proc/self/statm). */
double current_rss_mb();

/** One span: a timed call into a layer, from the benchmark's own code. */
struct Span
{
    std::string name;
    double start_ns = 0.0;
    double end_ns = 0.0;
    int id = 0;
    int parent = -1; ///< -1 = root
    int run = 0;     ///< repetition (run id) the span belongs to
};

/**
 * In-memory span recorder. Spans are appended after the timed calls return
 * (from timestamps the workloads record anyway), so recording adds no work
 * inside a measured loop; write() dumps them once the benchmark ends.
 * Disabled recorders drop everything.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a span; returns its id (or -1 when disabled). */
    int add(std::string name, double start_ns, double end_ns, int parent,
            int run);

    /** Close a span opened with add(name, start, start, ...). */
    void set_end(int id, double end_ns);

    /** Write every span as a JSON array to @p path; false on I/O error. */
    bool write(const std::string& path) const;

  private:
    bool enabled_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** Times @p fn and records it as a span under @p parent. */
template <typename Fn>
void
timed_span(Tracer& tracer, const char* name, int parent, int run, Fn&& fn)
{
    const double t0 = now_ns();
    fn();
    tracer.add(name, t0, now_ns(), parent, run);
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one invocation reports. */
struct Report
{
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    /** Informational key/value pairs (hashes, sample counts, quantiles)
     *  written to the results file and the info line, never compared. */
    std::vector<std::pair<std::string, std::string>> info;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    e2e(std::string name, double value, std::string unit)
    {
        end_to_end.push_back({std::move(name), value, std::move(unit)});
    }
    void
    layer(std::string name, double value, std::string unit)
    {
        per_layer.push_back({std::move(name), value, std::move(unit)});
    }
    void
    note(std::string key, std::string value)
    {
        info.emplace_back(std::move(key), std::move(value));
    }
    /** Record a failed check (counted once per call). */
    void fail(std::string what);

    /** Add @p other's attempted and failed counts and its errors. */
    void absorb_checks(const Report& other);
};

std::string hex64(std::uint64_t h);

/** Options shared by every workload. */
struct Options
{
    std::uint64_t seed = 1;
    /** Shrink every workload to a few-hundred-millisecond smoke size. */
    bool tiny = false;
    /** Host threads for fig5_sweep's executor and native_locks. */
    int jobs = 1;
    /** Expected acquisition-order hash chain for this workload and seed. */
    bool has_pin = false;
    std::uint64_t pin = 0;
};

/** Repeat @p rep until @p seconds have elapsed (at least @p min_reps). */
template <typename Fn>
void
repeat_for(double seconds, int min_reps, Fn&& rep)
{
    const double t0 = now_ns();
    for (int reps = 0; reps < min_reps || now_ns() - t0 < seconds * 1e9;
         ++reps)
        rep(reps);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
