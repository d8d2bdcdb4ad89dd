#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double
ns_per_tick()
{
    static const double ratio = [] {
        const double t0 = now_ns();
        const std::uint64_t k0 = tick();
        while (now_ns() - t0 < 20e6) {
        }
        const double t1 = now_ns();
        const std::uint64_t k1 = tick();
        return (t1 - t0) / static_cast<double>(k1 - k0);
    }();
    return ratio;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                     v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo = *std::max_element(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    return (lo + hi) / 2.0;
}

double
tail(std::vector<double> v, double q, double* used)
{
    if (v.empty())
        return 0.0;
    const std::size_t n = v.size();
    std::size_t rank = n; // 1-based; n = the maximum
    if (n > 10)
        rank = std::min(static_cast<std::size_t>(
                            std::ceil(q * static_cast<double>(n))),
                        n - 10);
    rank = std::max<std::size_t>(rank, 1);
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                     v.end());
    if (used != nullptr)
        *used = static_cast<double>(rank) / static_cast<double>(n);
    return v[rank - 1];
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

std::string
join(const std::vector<double>& v)
{
    std::string out;
    for (const double x : v)
        out += (out.empty() ? "" : " ") + std::to_string(x);
    return out;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
current_rss_mb()
{
    std::ifstream statm("/proc/self/statm");
    long pages_total = 0;
    long pages_resident = 0;
    statm >> pages_total >> pages_resident;
    return static_cast<double>(pages_resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int
Tracer::add(std::string name, double start_ns, double end_ns, int parent,
            int run)
{
    if (!enabled_)
        return -1;
    const std::lock_guard<std::mutex> guard(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), start_ns, end_ns, id, parent, run});
    return id;
}

void
Tracer::set_end(int id, double end_ns)
{
    if (!enabled_ || id < 0)
        return;
    const std::lock_guard<std::mutex> guard(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

bool
Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %d, \"parent\": %d, \"run\": %d, \"name\": "
                     "\"%s\", \"start_ns\": %.0f, \"end_ns\": %.0f}%s\n",
                     s.id, s.parent, s.run, s.name.c_str(), s.start_ns,
                     s.end_ns, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

void
Report::fail(std::string what)
{
    ++failed;
    if (errors.size() < 20)
        errors.push_back(std::move(what));
}

void
Report::absorb_checks(const Report& other)
{
    attempted += other.attempted;
    failed += other.failed;
    errors.insert(errors.end(), other.errors.begin(), other.errors.end());
}

std::string
hex64(std::uint64_t h)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
