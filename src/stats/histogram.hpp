/**
 * @file
 * Logarithmic-bucket histogram for latency distributions.
 */
#ifndef NUCALOCK_STATS_HISTOGRAM_HPP
#define NUCALOCK_STATS_HISTOGRAM_HPP

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hpp"

namespace nucalock::stats {

/**
 * Power-of-two bucketed histogram over [0, 2^63). Bucket b holds values in
 * [2^(b-1), 2^b) for b >= 1; bucket 0 holds the value 0. Percentile queries
 * interpolate linearly inside a bucket, which is plenty for reporting
 * latency spreads.
 */
class LogHistogram
{
  public:
    static constexpr int kBuckets = 64;

    void
    add(std::uint64_t value)
    {
        ++buckets_[static_cast<std::size_t>(bucket_of(value))];
        ++count_;
        sum_ += value;
    }

    /** add(0) @p n times. */
    void
    add_zeros(std::uint64_t n)
    {
        buckets_[0] += n;
        count_ += n;
    }

    std::uint64_t count() const { return count_; }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) / static_cast<double>(count_);
    }

    std::uint64_t bucket_count(int b) const { return buckets_.at(static_cast<std::size_t>(b)); }

    /**
     * Value at percentile @p p in [0, 100]. Returns 0 for an empty histogram.
     */
    double
    percentile(double p) const
    {
        NUCA_ASSERT(p >= 0.0 && p <= 100.0, "p=", p);
        if (count_ == 0)
            return 0.0;
        const double target = p / 100.0 * static_cast<double>(count_);
        double seen = 0.0;
        for (int b = 0; b < kBuckets; ++b) {
            const auto in_bucket = static_cast<double>(buckets_[static_cast<std::size_t>(b)]);
            if (in_bucket == 0.0)
                continue;
            if (seen + in_bucket >= target) {
                const double frac = in_bucket == 0.0 ? 0.0 : (target - seen) / in_bucket;
                const double lo = bucket_low(b);
                const double hi = bucket_high(b);
                return lo + frac * (hi - lo);
            }
            seen += in_bucket;
        }
        return bucket_high(kBuckets - 1);
    }

    void
    merge(const LogHistogram& other)
    {
        for (int b = 0; b < kBuckets; ++b)
            buckets_[static_cast<std::size_t>(b)] +=
                other.buckets_[static_cast<std::size_t>(b)];
        count_ += other.count_;
        sum_ += other.sum_;
    }

    static int
    bucket_of(std::uint64_t value)
    {
        return value == 0 ? 0 : 64 - std::countl_zero(value);
    }

    static double
    bucket_low(int b)
    {
        return b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
    }

    static double
    bucket_high(int b)
    {
        return b == 0 ? 1.0 : std::ldexp(1.0, b);
    }

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace nucalock::stats

#endif // NUCALOCK_STATS_HISTOGRAM_HPP
