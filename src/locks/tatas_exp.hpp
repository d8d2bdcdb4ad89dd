/**
 * @file
 * TATAS_EXP: test-and-test&set with Ethernet-style exponential backoff,
 * following the paper's section 3 pseudo-code line by line.
 */
#ifndef NUCALOCK_LOCKS_TATAS_EXP_HPP
#define NUCALOCK_LOCKS_TATAS_EXP_HPP

#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class TatasExpLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "TATAS_EXP";

    explicit TatasExpLock(Machine& machine, const LockParams& params = LockParams{},
                          int home_node = 0)
        : word_(machine.alloc(0, home_node)), params_(params)
    {
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token());
        if (ctx.tas(word_) != 0)
            acquire_slowpath(ctx);
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token());
    }

    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        if (ctx.tas(word_) != 0)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, word_.token());
        ctx.store(word_, 0);
    }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return word_.token(); }

  private:
    // Paper section 3: delay, grow the backoff, re-test with a load, and
    // only attempt tas when the lock looked free.
    void
    acquire_slowpath(Ctx& ctx)
    {
        std::uint32_t b = params_.tatas.base;
        while (true) {
            // While it still looks held, back off again without a tas.
            const std::uint64_t v =
                backoff_poll(ctx, word_, kHeld, &b, params_.tatas.factor,
                             params_.tatas.cap, params_.jitter)
                    .value;
            if (v == 0 && ctx.tas(word_) == 0)
                return;
        }
    }

    /** The word's value while held: what tas writes. */
    static constexpr std::uint64_t kHeld = 1;

    Ref word_;
    LockParams params_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_TATAS_EXP_HPP
