/**
 * @file
 * CLH_TRY: a CLH queue lock with timeout (in the spirit of Scott &
 * Scherer, PPoPP 2001, and Scott, PODC 2002 — the paper's references
 * [22, 23], its own pointer for fixing queue locks' multiprogramming
 * fragility).
 *
 * A waiter that gives up marks its own node with a *redirect* to its
 * predecessor; its successor follows the redirect chain and inherits the
 * predecessor, so departures never break the queue.
 *
 * Node word values: kAvailable (grant), kWaiting, or kPtrBase + token
 * (redirect to the node with that token).
 *
 * Node reuse. Every node has exactly one reclaimer: the thread that reads
 * its final value, after which nobody reads it again.
 *  - A grant: the thread that reads kAvailable in its predecessor takes
 *    that node; its releaser is done with it, and only this thread
 *    received it (from the tail swap or through a redirect). The first
 *    acquirer takes the constructor's dummy this way.
 *  - A walk: the thread that reads a redirect takes the abandoned node
 *    and continues at the redirect's target.
 *  - An abandonment takes nothing: the abandoned node now carries the
 *    redirect, and its successor, present or future, reclaims it; the
 *    predecessor passes to that successor with it.
 * The reclaimer keeps the node in its own host-side pool (up to
 * kPoolCapacity nodes, in its cache-line slot next to the node it holds)
 * and its later acquisitions take from the pool; a full pool spills into
 * one spare list per lock, under a mutex, which an empty pool drains
 * before anything is allocated. Untimed runs take one node and reclaim
 * one per grant, so they touch the list only on a thread's first acquire.
 * Machine::recycle re-initializes a reused node: natively a relaxed store
 * that the enqueueing swap releases, in the simulator a reset of the line
 * to what alloc() returns, with no simulated access — so every simulated
 * run is the one a fresh node per acquisition gives, line indices aside.
 *
 * Bound. An acquisition allocates a node only when its pool and the
 * spare list are both empty. At that moment every other node is: in
 * another thread's pool (at most kPoolCapacity each); a thread's own node
 * (taken, queued, or held, at most one each, the new one included); read
 * by another thread and not yet pooled (at most one each); the one
 * released node no successor has read yet; or a redirect no walk has
 * reached yet. So with T threads and at most R unwalked redirects at once
 * (abandon_stats()'s parked - reclaims), acquisitions allocate at most
 * max_acquire_nodes(T, R) = (kPoolCapacity + 2)(T - 1) + 1 + R nodes over
 * the lock's life. R is 0 without timeouts and stays small while waiters
 * keep polling, but it has no bound in T alone: two threads that each
 * abandon their node just after the other's last poll of it leave a
 * chain no one walks until a later arrival does, and only a successor
 * may reclaim. A thread that dies strands its pool, its own node and the
 * queue nodes only it would have read.
 *
 * Checker view (sim/scheduler.hpp): the timeout path makes this the most
 * schedule-sensitive lock in the suite — a waiter's redirect store races
 * with its successor's chain-following loads, and the bounded checker
 * (check/) explores both orders. Reusing a node some thread still spins
 * on trips SimMemory::recycle's watcher assert in any run that does it. The
 * bounded-abort caveat: try_acquire still executes the enqueue swap (a
 * visible decision point) before giving up, so a "failed" try is not a
 * no-op in the schedule — replayed traces include those aborted enqueues.
 */
#ifndef NUCALOCK_LOCKS_CLH_TRY_HPP
#define NUCALOCK_LOCKS_CLH_TRY_HPP

#include <array>
#include <mutex>
#include <vector>

#include "common/compiler.hpp"
#include "common/logging.hpp"
#include "locks/context.hpp"
#include "locks/instrumented.hpp" // detail::lock_clock_ns
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class ClhTryLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;
    static_assert(LockMachine<Machine>);

    static constexpr const char* kName = "CLH_TRY";

    /** Reclaimed nodes a thread keeps for its next acquisitions. */
    static constexpr std::uint32_t kPoolCapacity = 2;

    /**
     * The most nodes acquisitions allocate over the lock's life when at
     * most @p threads threads use it and at most @p unwalked redirects are
     * outstanding at once (see the file comment). The constructor's dummy
     * is not counted.
     */
    static constexpr std::uint64_t
    max_acquire_nodes(std::uint64_t threads, std::uint64_t unwalked)
    {
        return (kPoolCapacity + 2) * (threads - 1) + 1 + unwalked;
    }

    explicit ClhTryLock(Machine& machine, const LockParams& = LockParams{},
                        int home_node = 0)
        : machine_(&machine),
          slots_(static_cast<std::size_t>(machine.max_threads()))
    {
        const Ref dummy = machine.alloc(kAvailable, home_node);
        tail_ = machine.alloc(dummy.token(), home_node);
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, tail_.token());
        const bool ok =
            acquire_deadline(ctx, /*has_deadline=*/false, 0, /*timed=*/false);
        NUCA_ASSERT(ok, "untimed acquire cannot fail");
        obs::probe(ctx, obs::LockEvent::Acquired, tail_.token());
    }

    /**
     * Acquire with a bounded wait.
     * @return true when the lock is held (release() required), false when
     *         the wait timed out (the queue slot was abandoned safely).
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, tail_.token(), 1);
        if (!acquire_deadline(ctx, /*has_deadline=*/true,
                              detail::deadline_after(ctx, timeout_ns),
                              /*timed=*/true))
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, tail_.token(), 1);
        return true;
    }

    /**
     * Bounded-abort try: enqueue, poll the predecessor once (following any
     * redirect chain), and abandon the slot via a redirect on a miss. Not
     * wait-free — enqueueing is mandatory in CLH — but the abort path is a
     * constant number of memory operations.
     */
    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, tail_.token(), 1);
        if (!acquire_deadline(ctx, /*has_deadline=*/true,
                              detail::lock_clock_ns(ctx), /*timed=*/false))
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, tail_.token(), 1);
        return true;
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, tail_.token());
        Slot& slot = slot_of(ctx);
        const Ref mine = slot.held;
        NUCA_ASSERT(mine.valid(), "release without acquire");
        slot.held = Ref{};
        ctx.store(mine, kAvailable); // the successor reclaims it
    }

    /** Host-side abandonment accounting (see locks/timed.hpp). "Parked"
     *  counts redirect markers left behind (timed and bounded-abort
     *  departures); "reclaims" counts redirects consumed by a successor's
     *  chain walk. */
    AbandonStats abandon_stats() const { return counters_.snapshot(); }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return tail_.token(); }

  private:
    static constexpr std::uint64_t kAvailable = 1;
    static constexpr std::uint64_t kWaiting = 2;
    /** Values >= kPtrBase encode a redirect to node (value - kPtrBase). */
    static constexpr std::uint64_t kPtrBase = 16;

    /** One thread's host-side state, a cache line of its own so that
     *  native contenders never write each other's line. */
    struct alignas(kCacheLineBytes) Slot
    {
        Ref held;                  // node to mark available at release
        std::uint32_t pooled = 0;  // reclaimed nodes in pool[0, pooled)
        std::array<Ref, kPoolCapacity> pool{};
    };

    Slot&
    slot_of(Ctx& ctx)
    {
        return slots_[static_cast<std::size_t>(ctx.thread_id())];
    }

    /** A node for this acquisition, set to kWaiting. */
    Ref
    take_node(Ctx& ctx, Slot& slot)
    {
        if (slot.pooled == 0) [[unlikely]]
            return spare_or_new(ctx);
        const Ref node = slot.pool[--slot.pooled];
        machine_->recycle(node, kWaiting, ctx.node());
        return node;
    }

    /** An empty pool's node: a spare, or (only when there is none) a new
     *  one. */
    [[gnu::noinline]] Ref
    spare_or_new(Ctx& ctx)
    {
        const std::lock_guard<std::mutex> guard(spare_mutex_);
        if (spare_.empty())
            return machine_->alloc(kWaiting, ctx.node());
        const Ref node = spare_.back();
        spare_.pop_back();
        machine_->recycle(node, kWaiting, ctx.node());
        return node;
    }

    /** Keep @p node, whose final value this thread just read. */
    void
    reclaim(Slot& slot, Ref node)
    {
        if (slot.pooled == kPoolCapacity) [[unlikely]]
            spill(node);
        else
            slot.pool[slot.pooled++] = node;
    }

    /** A full pool's overflow, for other threads' empty pools. */
    [[gnu::noinline]] void
    spill(Ref node)
    {
        const std::lock_guard<std::mutex> guard(spare_mutex_);
        spare_.push_back(node);
    }

    bool
    acquire_deadline(Ctx& ctx, bool has_deadline, std::uint64_t deadline,
                     bool timed)
    {
        Slot& slot = slot_of(ctx);
        const Ref mine = take_node(ctx, slot);
        Ref pred = Machine::ref_from_token(ctx.swap(tail_, mine.token()));
        const std::uint64_t v = ctx.load(pred);
        if (v != kAvailable) [[unlikely]] {
            pred = wait_for_grant(ctx, pred, v, mine, has_deadline, deadline,
                                  timed);
            if (!pred.valid())
                return false;
        }
        slot.held = mine;
        reclaim(slot, pred); // its releaser is done with it
        return true;
    }

    /**
     * The rest of an acquisition whose first load of @p pred read @p v,
     * not kAvailable. Out of line, so that the uncontended path stays a
     * swap and a load. @return the node that granted the lock, or an
     * invalid Ref when the deadline passed and @p mine was abandoned.
     */
    [[gnu::noinline]] Ref
    wait_for_grant(Ctx& ctx, Ref pred, std::uint64_t v, Ref mine,
                   bool has_deadline, std::uint64_t deadline, bool timed)
    {
        while (v != kAvailable) {
            if (v >= kPtrBase) {
                // Predecessor abandoned its slot; inherit its predecessor.
                counters_.on_reclaim();
                obs::probe(ctx, obs::LockEvent::QueueReclaim, tail_.token(),
                           static_cast<std::uint64_t>(
                               obs::ReclaimKind::Unlinked));
                reclaim(slot_of(ctx), pred); // its owner left; only we read it
                pred = Machine::ref_from_token(v - kPtrBase);
            } else if (has_deadline && detail::lock_clock_ns(ctx) >= deadline) {
                // Leave: redirect our successor (present or future) past
                // us. A grant that lands in pred afterwards is picked up
                // by whoever inherits pred through this redirect, and
                // that thread reclaims both nodes.
                if (timed) {
                    counters_.on_abandon();
                    obs::probe(ctx, obs::LockEvent::AbandonStart,
                               tail_.token());
                }
                counters_.on_park();
                ctx.store(mine, kPtrBase + pred.token());
                if (timed)
                    obs::probe(ctx, obs::LockEvent::AbandonDone, tail_.token(),
                               static_cast<std::uint64_t>(
                                   obs::AbandonOutcome::Parked));
                return Ref{};
            } else if (has_deadline) {
                ctx.delay(kTimedPollQuantum); // bounded poll for the deadline
            } else {
                ctx.spin_while_equal(pred, kWaiting);
            }
            v = ctx.load(pred);
        }
        return pred;
    }

    Machine* machine_;
    Ref tail_;
    std::vector<Slot> slots_; // per thread id
    std::mutex spare_mutex_;
    std::vector<Ref> spare_;  // overflow of full pools, under spare_mutex_
    AbandonCounters counters_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_CLH_TRY_HPP
