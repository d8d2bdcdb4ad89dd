/**
 * @file
 * The paper's backoff() helper (Fig. 1, lines 11-16), shared by all
 * backoff-based locks, with optional deterministic jitter; and the two
 * waits every lock is written with: backoff_poll(), the backoff-and-reload
 * wait built on it, and wait_while_equal(), the wait on a flag or gate.
 */
#ifndef NUCALOCK_LOCKS_BACKOFF_HPP
#define NUCALOCK_LOCKS_BACKOFF_HPP

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "locks/context.hpp"
#include "locks/instrumented.hpp" // detail::lock_clock_ns
#include "locks/params.hpp"
#include "locks/timed.hpp" // kTimedPollQuantum
#include "obs/probe.hpp"

namespace nucalock::locks {

/**
 * Delay for *b iterations (+/-25% jitter when enabled), then grow
 * *b geometrically up to @p cap — exactly Fig. 1's backoff(&b, cap).
 *
 * @p cls labels the episode for observability only (which constants this
 * site uses — local vs remote holder); it never changes the delay.
 */
template <LockContext Ctx>
void
backoff(Ctx& ctx, std::uint32_t* b, std::uint32_t factor, std::uint32_t cap,
        bool jitter, obs::BackoffClass cls = obs::BackoffClass::Generic)
{
    const std::uint64_t d = backoff_delay(ctx.rng(), *b, jitter);
    obs::probe(ctx, obs::LockEvent::BackoffBegin, 0, d,
               static_cast<std::uint64_t>(cls));
    ctx.delay(d);
    obs::probe(ctx, obs::LockEvent::BackoffEnd, 0);
    *b = std::min(*b * factor, cap);
}

/** What backoff_poll() saw. */
struct PollResult
{
    /** The last value loaded; `held` when max_polls ran out or the poll
     *  timed out. */
    std::uint64_t value = 0;
    /** Backoff-and-reload rounds run: at most max_polls, and at least 1
     *  unless the poll timed out. */
    std::uint64_t polls = 0;
    /** The deadline passed before a round, which then did not run. */
    bool timed_out = false;
};

/** backoff_poll()'s default round limit: none. */
inline constexpr std::uint64_t kUnlimitedPolls = ~std::uint64_t{0};

/** backoff_poll()'s default deadline: none. */
inline constexpr std::uint64_t kNoDeadline = ~std::uint64_t{0};

/**
 * The paper's polling wait: repeat { backoff(b); v = load(word); } while
 * v == @p held, at most @p max_polls rounds (at least one). *b keeps
 * growing across the rounds, as in the lock's own loop. A round that
 * would start at or past @p deadline (detail::lock_clock_ns) does not
 * run: the poll ends timed out.
 *
 * The loop below is the definition. It runs natively, and on the
 * simulator whenever a Scheduler, FaultInjector, probe sink, memtrace
 * hook or armed watchdog is installed. Otherwise the simulator parks the
 * thread while its cached copy of the word is valid
 * (SimContext::lazy_backoff_poll) and rolls the rounds it would spin
 * through forward when another cpu writes the word, or when the poll
 * reaches its round limit or deadline with the word unwritten: every
 * pick, event, random draw and result is the same.
 */
template <LockContext Ctx>
PollResult
backoff_poll(Ctx& ctx, typename Ctx::Ref word, std::uint64_t held,
             std::uint32_t* b, std::uint32_t factor, std::uint32_t cap,
             bool jitter, obs::BackoffClass cls = obs::BackoffClass::Generic,
             std::uint64_t max_polls = kUnlimitedPolls,
             std::uint64_t deadline = kNoDeadline)
{
    if constexpr (requires { ctx.can_park_polls(); }) {
        if (ctx.can_park_polls()) {
            const auto r = ctx.lazy_backoff_poll(word, held, b, factor, cap,
                                                 jitter, max_polls, deadline);
            return PollResult{r.value, r.polls, r.timed_out};
        }
    }
    PollResult r{held, 0};
    do {
        if (deadline != kNoDeadline && detail::lock_clock_ns(ctx) >= deadline) {
            r.timed_out = true;
            break;
        }
        backoff(ctx, b, factor, cap, jitter, cls);
        r.value = ctx.load(word);
        ++r.polls;
    } while (r.value == held &&
             (max_polls == kUnlimitedPolls || r.polls < max_polls));
    return r;
}

/**
 * Wait while @p ref holds @p v. The untimed wait parks in
 * spin_while_equal until another cpu writes the word. The timed one
 * reloads every kTimedPollQuantum iterations and gives up when the clock
 * reads @p deadline or later after a load that still saw @p v. It polls
 * even when @p deadline is kNoDeadline: a timed wait keeps its timing
 * whatever its timeout.
 * @return false when the timed wait gave up.
 */
template <bool kTimed, LockContext Ctx>
bool
wait_while_equal(Ctx& ctx, typename Ctx::Ref ref, std::uint64_t v,
                 std::uint64_t deadline)
{
    if constexpr (!kTimed) {
        (void)deadline;
        ctx.spin_while_equal(ref, v);
    } else {
        while (ctx.load(ref) == v) {
            if (detail::lock_clock_ns(ctx) >= deadline)
                return false;
            ctx.delay(kTimedPollQuantum);
        }
    }
    return true;
}

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_BACKOFF_HPP
