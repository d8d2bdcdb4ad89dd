/**
 * @file
 * Ticket lock with proportional backoff — an extra FIFO baseline beyond the
 * paper's set (useful to separate "FIFO order" from "local spinning" when
 * interpreting the queue-lock results).
 */
#ifndef NUCALOCK_LOCKS_TICKET_HPP
#define NUCALOCK_LOCKS_TICKET_HPP

#include <algorithm>
#include <cstdint>

#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class TicketLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "TICKET";

    explicit TicketLock(Machine& machine, const LockParams& params = LockParams{},
                        int home_node = 0)
        : next_(machine.alloc(0, home_node)),
          serving_(machine.alloc(0, home_node)),
          delay_per_waiter_(params.ticket_delay_per_waiter)
    {
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, next_.token());
        // fetch-and-increment built from cas (the paper's primitive set).
        std::uint64_t my;
        while (true) {
            my = ctx.load(next_);
            if (ctx.cas(next_, my, my + 1) == my)
                break;
        }
        std::uint64_t serving = ctx.load(serving_);
        while (serving != my) {
            // Proportional backoff: the further back in line, the longer
            // the wait before polling again. A constant delay (factor 1,
            // capped at itself, no jitter) while serving_ reads the same.
            auto d = static_cast<std::uint32_t>(std::min<std::uint64_t>(
                (my - serving) * delay_per_waiter_, UINT32_MAX));
            serving = backoff_poll(ctx, serving_, serving, &d, 1, d,
                                   /*jitter=*/false)
                          .value;
        }
        obs::probe(ctx, obs::LockEvent::Acquired, next_.token());
    }

    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, next_.token(), 1);
        const std::uint64_t serving = ctx.load(serving_);
        const std::uint64_t next = ctx.load(next_);
        if (serving != next)
            return false;
        if (ctx.cas(next_, next, next + 1) != next)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, next_.token(), 1);
        return true;
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, next_.token());
        // Only the holder writes serving_, so load+store is safe.
        ctx.store(serving_, ctx.load(serving_) + 1);
    }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return next_.token(); }

  private:
    Ref next_;
    Ref serving_;
    std::uint32_t delay_per_waiter_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_TICKET_HPP
