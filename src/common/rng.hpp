/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Everything in the simulator and the benchmark harness draws randomness from
 * these generators so that runs are exactly reproducible from a seed. We do
 * not use std::mt19937 because its state is bulky and its seeding rules are
 * easy to get subtly wrong; SplitMix64 + xoshiro256** are small, fast, and
 * well studied.
 */
#ifndef NUCALOCK_COMMON_RNG_HPP
#define NUCALOCK_COMMON_RNG_HPP

#include <array>
#include <cstdint>

#include "common/logging.hpp"

namespace nucalock {

/** SplitMix64: used for seeding and as a cheap standalone generator. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/** xoshiro256**: the workhorse generator for workloads and backoff jitter. */
class Xoshiro256
{
  public:
    explicit Xoshiro256(std::uint64_t seed)
    {
        SplitMix64 sm(seed);
        for (auto& s : state_)
            s = sm.next();
    }

    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    next_below(std::uint64_t bound)
    {
        NUCA_ASSERT(bound != 0);
        // Lemire's multiply-shift rejection-free approximation is fine here:
        // bias is < 2^-64 * bound, irrelevant for workload generation.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    next_double()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

/**
 * The delay of one backoff of @p b iterations (Fig. 1's backoff()): @p b
 * itself, or with @p jitter b * [0.75, 1.25) — subtract a quarter, add
 * back up to a half. Below 4 there is no quarter to jitter, and nothing is
 * drawn. locks::backoff() and the simulator's lazy polls
 * (sim/engine.hpp) both draw through this one definition.
 */
template <typename Rng>
std::uint64_t
backoff_delay(Rng& rng, std::uint64_t b, bool jitter)
{
    std::uint64_t d = b;
    if (jitter && d >= 4) {
        const std::uint64_t quarter = d / 4;
        d = d - quarter + rng.next_below(2 * quarter);
    }
    return d;
}

} // namespace nucalock

#endif // NUCALOCK_COMMON_RNG_HPP
