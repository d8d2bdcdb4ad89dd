/**
 * @file
 * Timed acquisition: one uniform entry point over every lock.
 *
 * Locks that implement native timed abandonment expose
 * `try_acquire_for(ctx, timeout_ns)` (MCS, CLH_TRY, cohort, the HBO
 * hierarchy — see docs/robustness.md for the per-family abandonment
 * semantics). `acquire_for` dispatches to that when present and falls
 * back to a try_acquire/backoff loop otherwise, so callers never need to
 * know which family they hold. The fallback's overshoot is bounded by
 * one backoff period plus one attempt; native paths document their own
 * (tighter) bounds. Those paths share the abandonment bookkeeping below:
 * AbandonCounters and abandon_clean().
 */
#ifndef NUCALOCK_LOCKS_TIMED_HPP
#define NUCALOCK_LOCKS_TIMED_HPP

#include <atomic>
#include <cstdint>
#include <limits>

#include "locks/context.hpp"
#include "locks/instrumented.hpp" // detail::lock_clock_ns
#include "locks/params.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

/** Poll quantum between deadline checks in native timed paths (matches
 *  CLH_TRY: coarse enough not to hammer the word, fine enough that the
 *  overshoot bound is dominated by the backoff cap, not the poll). */
inline constexpr std::uint32_t kTimedPollQuantum = 64;

/** Snapshot of a lock's host-side abandonment accounting. */
struct AbandonStats
{
    /** try_acquire_for calls that returned false at the deadline. */
    std::uint64_t abandons = 0;
    /** Of those, abandonments that left a marker node in the queue (MCS). */
    std::uint64_t parked = 0;
    /** Deadline hit but the handover won the abandon race; lock accepted. */
    std::uint64_t grant_races = 0;
    /** Abandoned nodes unlinked and recovered by a releaser's walk. */
    std::uint64_t reclaims = 0;
    /** Abandoned nodes resumed in place by their returning owner. */
    std::uint64_t rejoins = 0;
    /** Already-reclaimed nodes found parked and reused by their owner. */
    std::uint64_t unparks = 0;

    /** Add @p other's counts: a lock's own and its embedded queue's. */
    AbandonStats&
    operator+=(const AbandonStats& other)
    {
        abandons += other.abandons;
        parked += other.parked;
        grant_races += other.grant_races;
        reclaims += other.reclaims;
        rejoins += other.rejoins;
        unparks += other.unparks;
        return *this;
    }

    /** Abandoned nodes still linked into the queue = the leak audit.
     *  Non-zero at quiescence is only legitimate behind a dead holder. */
    std::uint64_t linked_abandoned() const
    {
        const std::uint64_t recovered = reclaims + rejoins;
        return parked > recovered ? parked - recovered : 0;
    }
};

/**
 * Atomic backing store for AbandonStats. Host-side state (never simulated
 * memory): relaxed increments cannot perturb a sim run and are safe from
 * the native backend's real threads.
 */
class AbandonCounters
{
  public:
    void on_abandon() { bump(abandons_); }
    void on_park() { bump(parked_); }
    void on_grant_race() { bump(grant_races_); }
    void on_reclaim() { bump(reclaims_); }
    void on_rejoin() { bump(rejoins_); }
    void on_unpark() { bump(unparks_); }

    AbandonStats
    snapshot() const
    {
        AbandonStats s;
        s.abandons = abandons_.load(std::memory_order_relaxed);
        s.parked = parked_.load(std::memory_order_relaxed);
        s.grant_races = grant_races_.load(std::memory_order_relaxed);
        s.reclaims = reclaims_.load(std::memory_order_relaxed);
        s.rejoins = rejoins_.load(std::memory_order_relaxed);
        s.unparks = unparks_.load(std::memory_order_relaxed);
        return s;
    }

  private:
    static void
    bump(std::atomic<std::uint64_t>& counter)
    {
        counter.fetch_add(1, std::memory_order_relaxed);
    }

    std::atomic<std::uint64_t> abandons_{0};
    std::atomic<std::uint64_t> parked_{0};
    std::atomic<std::uint64_t> grant_races_{0};
    std::atomic<std::uint64_t> reclaims_{0};
    std::atomic<std::uint64_t> rejoins_{0};
    std::atomic<std::uint64_t> unparks_{0};
};

/**
 * End a timed acquire whose timeout leaves nothing behind once @p undo
 * (re-opening what the waiter closed) has run: count it in @p counters
 * (nullptr when an embedded lock counted it already), and bracket @p undo
 * with AbandonStart and AbandonDone(Clean) for @p lock_id.
 * @return false, the timed acquire's result.
 */
template <LockContext Ctx, typename Undo = void (*)()>
bool
abandon_clean(Ctx& ctx, AbandonCounters* counters, std::uint64_t lock_id,
              Undo undo = [] {})
{
    if (counters != nullptr)
        counters->on_abandon();
    obs::probe(ctx, obs::LockEvent::AbandonStart, lock_id);
    undo();
    obs::probe(ctx, obs::LockEvent::AbandonDone, lock_id,
               static_cast<std::uint64_t>(obs::AbandonOutcome::Clean));
    return false;
}

namespace detail {

/**
 * now + timeout, saturated at UINT64_MAX. Sentinel "infinite" timeouts
 * (UINT64_MAX and friends) must clamp to the end of time, not wrap to a
 * deadline in the past that makes every acquire_for fail instantly.
 */
inline std::uint64_t
saturating_deadline(std::uint64_t now_ns, std::uint64_t timeout_ns)
{
    const std::uint64_t headroom =
        std::numeric_limits<std::uint64_t>::max() - now_ns;
    return timeout_ns >= headroom
               ? std::numeric_limits<std::uint64_t>::max()
               : now_ns + timeout_ns;
}

/** Absolute deadline for a relative timeout on this context's clock. */
template <typename Ctx>
inline std::uint64_t
deadline_after(Ctx& ctx, std::uint64_t timeout_ns)
{
    return saturating_deadline(lock_clock_ns(ctx), timeout_ns);
}

} // namespace detail

/**
 * Fallback timed acquisition for locks without native abandonment:
 * bounded-wait locking with exponential backoff between try_acquire
 * attempts. (Scott, PODC 2002 — cited by the paper — covers why queue
 * locks need more than this; those now implement try_acquire_for.)
 *
 * @return true when acquired (caller must release), false on timeout.
 */
template <typename Lock, LockContext Ctx>
bool
acquire_for_polling(Lock& lock, Ctx& ctx, std::uint64_t timeout_ns,
                    const BackoffParams& backoff_params = BackoffParams{})
{
    const std::uint64_t deadline = detail::deadline_after(ctx, timeout_ns);
    std::uint32_t b = backoff_params.base;
    while (true) {
        if (lock.try_acquire(ctx))
            return true;
        if (detail::lock_clock_ns(ctx) >= deadline)
            return false;
        ctx.delay(b);
        b = std::min(b * backoff_params.factor, backoff_params.cap);
    }
}

/**
 * Try to acquire @p lock within roughly @p timeout_ns, preferring the
 * lock's native timed-abandonment path when it has one.
 * @return true when acquired (caller must release), false on timeout.
 */
template <typename Lock, LockContext Ctx>
bool
acquire_for(Lock& lock, Ctx& ctx, std::uint64_t timeout_ns,
            const BackoffParams& backoff_params = BackoffParams{})
{
    if constexpr (requires { lock.try_acquire_for(ctx, timeout_ns); }) {
        (void)backoff_params;
        return lock.try_acquire_for(ctx, timeout_ns);
    } else {
        return acquire_for_polling(lock, ctx, timeout_ns, backoff_params);
    }
}

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_TIMED_HPP
