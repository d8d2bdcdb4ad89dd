/**
 * @file
 * REACTIVE: a simplified reactive lock in the spirit of Lim & Agarwal
 * (ASPLOS-VI), which the paper's related-work section positions against
 * HBO: spin with TATAS_EXP at low contention, fall back to an MCS queue at
 * high contention.
 *
 * Mode-switch protocols in the original require consensus objects; this
 * implementation uses a simpler always-safe composition: mutual exclusion
 * is *always* provided by the TATAS word, and "queue mode" merely routes
 * arrivals through an MCS queue in front of it, so at most one queued
 * thread (plus any latecomer that sampled the mode just before a switch)
 * contends for the word at a time. Mode decisions are heuristic and can be
 * stale without affecting correctness.
 */
#ifndef NUCALOCK_LOCKS_REACTIVE_HPP
#define NUCALOCK_LOCKS_REACTIVE_HPP

#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/mcs.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class ReactiveLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "REACTIVE";

    // Mode-switch thresholds live in LockParams (reactive_slow_threshold /
    // reactive_fast_threshold) so sensitivity sweeps can tune them from
    // the CLI alongside the backoff constants.

    explicit ReactiveLock(Machine& machine,
                          const LockParams& params = LockParams{},
                          int home_node = 0)
        : word_(machine.alloc(0, home_node)),
          mode_(machine.alloc(kSpinMode, home_node)),
          queue_(machine, params, home_node), params_(params)
    {
    }

    void acquire(Ctx& ctx) { acquire_until<false>(ctx, kNoDeadline); }

    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        if (ctx.tas(word_) != 0)
            return false;
        queued_ = false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    /**
     * Timed acquisition: the acquire path with every wait ending at the
     * deadline. Spin mode is a deadline-bounded TATAS_EXP on the word;
     * queue mode bounds the MCS wait (the queue's own abandonment
     * protocol) and then the word take — a timeout after winning queue
     * headship hands the grant to the successor before abandoning, so the
     * queue keeps draining behind a wedged (or dead) word holder. Timed
     * acquires do not participate in mode adaptation: the streak counter
     * is driven by the plain acquire path's cost signal only.
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        return acquire_until<true>(ctx, detail::deadline_after(ctx, timeout_ns));
    }

    /** Host-side abandonment accounting: this lock's own word-take
     *  timeouts plus the embedded queue's (see locks/timed.hpp). */
    AbandonStats
    abandon_stats() const
    {
        AbandonStats s = counters_.snapshot();
        s += queue_.abandon_stats();
        return s;
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, word_.token());
        const bool was_queued = queued_;
        ctx.store(word_, 0);
        if (was_queued)
            queue_.release(ctx);
    }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return word_.token(); }

  private:
    using Queue = McsLock<Ctx>;

    static constexpr std::uint64_t kSpinMode = 0;
    static constexpr std::uint64_t kQueueMode = 1;
    /** The word's value while held: what tas writes. */
    static constexpr std::uint64_t kHeld = 1;

    /** The one acquire path: acquire() runs it without a deadline and
     *  try_acquire_for() with one (@p kTimed). Only the untimed path
     *  adapts the mode. */
    template <bool kTimed>
    bool
    acquire_until(Ctx& ctx, std::uint64_t deadline)
    {
        const std::uint64_t timed = kTimed ? 1 : 0;
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), timed);
        std::uint64_t attempts = 0;
        if (ctx.load(mode_) == kSpinMode) {
            if (!take_word(ctx, deadline, &attempts))
                return abandon_clean(ctx, &counters_, word_.token());
            if constexpr (!kTimed) {
                // Holder-side adaptation: repeated contended acquires flip
                // the lock into queue mode (we hold the lock, so the write
                // is safe).
                streak_ = attempts > 1 ? streak_ + 1 : 0;
                if (streak_ >= params_.reactive_slow_threshold) {
                    ctx.store(mode_, kQueueMode);
                    streak_ = 0;
                }
            }
            queued_ = false;
        } else {
            // Queue mode: wait in the MCS queue, then take the word with
            // an eager spin (only the queue head and stale spin-mode
            // stragglers compete for it).
            const auto queued =
                queue_.template acquire_until<kTimed>(ctx, deadline);
            if (queued == Queue::Outcome::TimedOut) {
                // The queue accounted its own abandonment (its counters,
                // its lock id); close this lock's attempt without
                // double-counting.
                return abandon_clean(ctx, nullptr, word_.token());
            }
            if (!take_word(ctx, deadline, &attempts)) {
                queue_.release(ctx);
                return abandon_clean(ctx, &counters_, word_.token());
            }
            if constexpr (!kTimed) {
                // Flip back once arrivals repeatedly find the queue empty
                // — the contention that justified queueing is gone.
                streak_ = queued == Queue::Outcome::Waited ? 0 : streak_ + 1;
                if (streak_ >= params_.reactive_fast_threshold) {
                    ctx.store(mode_, kSpinMode);
                    streak_ = 0;
                }
            }
            queued_ = true;
        }
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), timed);
        return true;
    }

    /** TATAS_EXP on the word until @p deadline, counting tas attempts in
     *  *@p attempts. Overshoot is bounded by one capped backoff plus one
     *  poll. */
    bool
    take_word(Ctx& ctx, std::uint64_t deadline, std::uint64_t* attempts)
    {
        std::uint32_t b = params_.tatas.base;
        for (*attempts = 1; ctx.tas(word_) != 0; ++*attempts) {
            const PollResult poll =
                backoff_poll(ctx, word_, kHeld, &b, params_.tatas.factor,
                             params_.tatas.cap, params_.jitter,
                             obs::BackoffClass::Generic, kUnlimitedPolls,
                             deadline);
            if (poll.timed_out)
                return false;
        }
        return true;
    }

    Ref word_;
    Ref mode_;
    Queue queue_;
    LockParams params_;
    AbandonCounters counters_;
    // Holder-only adaptation state, protected by the lock itself.
    std::uint64_t streak_ = 0;
    bool queued_ = false;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_REACTIVE_HPP
