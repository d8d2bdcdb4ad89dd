/**
 * @file
 * Anderson's array-based queue lock (IEEE TPDS 1990 — the paper's
 * reference [1]). A fetch-and-increment (built from cas, the paper's
 * primitive set) assigns each contender a slot in a circular array; each
 * waiter spins on its own slot, consumes the grant, and the releaser
 * grants the next slot. FIFO, one transaction per handover, but O(cpus)
 * memory per lock and no node affinity — the classic middle ground
 * between TATAS and MCS/CLH.
 */
#ifndef NUCALOCK_LOCKS_ANDERSON_HPP
#define NUCALOCK_LOCKS_ANDERSON_HPP

#include <vector>

#include "common/logging.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class AndersonLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "ANDERSON";

    explicit AndersonLock(Machine& machine, const LockParams& = LockParams{},
                          int home_node = 0)
        : slots_(static_cast<std::uint64_t>(machine.max_threads())),
          ticket_(machine.alloc(0, home_node)),
          grants_(machine.alloc(0, home_node)),
          flags_(machine.alloc_array(static_cast<std::uint32_t>(slots_),
                                     kMustWait, home_node)),
          holder_slot_(static_cast<std::size_t>(machine.max_threads()), slots_)
    {
        // Ticket 0 holds an implicit initial grant (see acquire); at most
        // max_threads() tickets are outstanding at once, so the ring never
        // laps an unconsumed grant.
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, ticket_.token());
        // fetch-and-increment built from cas (the paper's primitive set).
        std::uint64_t t;
        while (true) {
            t = ctx.load(ticket_);
            if (ctx.cas(ticket_, t, t + 1) == t)
                break;
        }
        const std::uint64_t slot = t % slots_;
        if (t != 0) { // the very first ticket owns the implicit initial grant
            const Ref flag = flags_.at(static_cast<std::uint32_t>(slot));
            ctx.spin_while_equal(flag, kMustWait);
            ctx.store(flag, kMustWait); // consume the grant for the next lap
        }
        holder_slot_[static_cast<std::size_t>(ctx.thread_id())] = slot;
        obs::probe(ctx, obs::LockEvent::Acquired, ticket_.token());
    }

    /**
     * Non-blocking try: succeed only when the lock is free and the grant
     * for the next ticket is already posted. `grants_` counts completed
     * releases (single writer — the serialized holder), so observing
     * grants == ticket and then winning the ticket cas proves no acquire
     * intervened: the grant for our slot is posted and consuming it cannot
     * block.
     */
    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, ticket_.token(), 1);
        const std::uint64_t t = ctx.load(ticket_);
        if (ctx.load(grants_) != t)
            return false; // held, or a handover is still in flight
        if (ctx.cas(ticket_, t, t + 1) != t)
            return false; // lost the race for ticket t
        const std::uint64_t slot = t % slots_;
        if (t != 0) {
            const Ref flag = flags_.at(static_cast<std::uint32_t>(slot));
            ctx.spin_while_equal(flag, kMustWait); // grant posted: no wait
            ctx.store(flag, kMustWait);
        }
        holder_slot_[static_cast<std::size_t>(ctx.thread_id())] = slot;
        obs::probe(ctx, obs::LockEvent::Acquired, ticket_.token(), 1);
        return true;
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, ticket_.token());
        const auto tid = static_cast<std::size_t>(ctx.thread_id());
        const std::uint64_t slot = holder_slot_[tid];
        NUCA_ASSERT(slot < slots_, "release without acquire");
        holder_slot_[tid] = slots_;
        // Counted while the lock is still held: once the grant below is
        // posted, the next holder may already be releasing, and counting.
        const std::uint64_t granted = ++grants_value_;
        const auto next = static_cast<std::uint32_t>((slot + 1) % slots_);
        ctx.store(flags_.at(next), kHasLock);
        // Grant count after the grant itself: a try_acquire that sees the
        // new count is guaranteed to find its grant flag already set. What
        // is left: a release delayed between its two stores until the next
        // holder has released leaves grants_ one behind, and try_acquire
        // failing, until the following release. Storing grants_ before the
        // grant would close that gap, but it moves ANDERSON's simulated
        // results.
        ctx.store(grants_, granted);
    }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return ticket_.token(); }

  private:
    static constexpr std::uint64_t kMustWait = 0;
    static constexpr std::uint64_t kHasLock = 1;

    std::uint64_t slots_;
    Ref ticket_;
    Ref grants_; // completed releases; == ticket when free and settled
    Ref flags_;
    std::vector<std::uint64_t> holder_slot_; // per-thread, lock-protected
    std::uint64_t grants_value_ = 0;         // shadow of grants_, lock-protected
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_ANDERSON_HPP
