/**
 * @file
 * MCS queue lock (Mellor-Crummey and Scott, 1991) with MCS-TP-style
 * timed abandonment.
 *
 * Each waiter spins on its own flag, allocated in its node (local-memory
 * spinning), and the releaser hands the lock to its queue successor: FIFO
 * order, one transaction per handover, but no node affinity — the successor
 * is whoever arrived next, wherever it lives.
 *
 * Queue nodes are kept per (lock, thread) and allocated lazily in the
 * thread's node, which is the standard implementation strategy and matches
 * what the machine-level concept can portably promise.
 *
 * Timeout protocol (try_acquire_for): a timed waiter never spins past its
 * deadline. The per-node flag word becomes a five-state machine:
 *
 *     kGranted(0)    the handover flag — owner may enter the CS
 *     kWaiting(1)    in queue, owner polling
 *     kAbandoned(2)  owner left at its deadline; node parked in queue
 *     kReclaiming(3) a releaser claimed the node and is unlinking it
 *     kReclaimed(4)  unlink complete; owner may reuse the node
 *
 * Abandonment is a CAS(kWaiting -> kAbandoned): if it fails the handover
 * won the race and the lock is accepted past the deadline (a bounded
 * overshoot the caller observes as success). The *releaser* reclaims:
 * its handover walk CASes each abandoned successor kAbandoned ->
 * kReclaiming, unlinks it (re-pointing the walk, or closing the queue via
 * the tail CAS), and only then publishes kReclaimed — so an owner can
 * never re-enqueue a node that a releaser still references. An owner
 * returning to a parked node either rejoins its old queue position
 * (CAS kAbandoned -> kWaiting, resolving atomically against the
 * releaser's claim), waits out a reclaim in flight, or reuses a
 * kReclaimed node as fresh. Nodes are static per (lock, thread): no
 * allocation on any path, timed or not.
 *
 * Checker view (sim/scheduler.hpp): the enqueue swap and the
 * successor-link store are separate decision points, so a schedule *can*
 * run the releaser between them — the releaser then spins on the
 * successor link, and the checker relies on the waiter's pending store
 * being dependent on that spin to wake it (the classic MCS handover
 * window; see sched_ops_dependent). Waiters spinning on their own flag
 * are parked, not busy — deadlock in an explored schedule is reported as
 * a StopReason verdict, not a hang. Timed waiters poll (load + delay)
 * instead, so they stay live and can abandon under any schedule.
 */
#ifndef NUCALOCK_LOCKS_MCS_HPP
#define NUCALOCK_LOCKS_MCS_HPP

#include <vector>

#include "common/logging.hpp"
#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class McsLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "MCS";

    explicit McsLock(Machine& machine, const LockParams& = LockParams{},
                     int home_node = 0)
        : machine_(&machine),
          tail_(machine.alloc(kEmpty, home_node)),
          qnodes_(static_cast<std::size_t>(machine.max_threads()))
    {
    }

    void acquire(Ctx& ctx) { acquire_until<false>(ctx, kNoDeadline); }

    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, tail_.token(), 1);
        QNode& q = qnode(ctx);
        if (q.parked) {
            // Instant-attempt semantics: only an already-reclaimed node
            // can be reused without waiting.
            if (ctx.load(q.locked) != kReclaimed)
                return false;
            unpark(ctx, q);
        }
        ctx.store(q.next, kEmpty);
        if (ctx.cas(tail_, kEmpty, id_of(ctx)) != kEmpty)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, tail_.token(), 1);
        return true;
    }

    /**
     * Timed acquisition with in-queue abandonment. Returns false when the
     * deadline passes first; the waiter is then *out* — it never spins on
     * the lock again until the next call — though its node may stay
     * parked in the queue until a releaser reclaims it. Overshoot on the
     * success path is bounded by one poll quantum plus one handover (the
     * grant-race accept); there is no unbounded in-queue spin.
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        const std::uint64_t deadline = detail::deadline_after(ctx, timeout_ns);
        return acquire_until<true>(ctx, deadline) != Outcome::TimedOut;
    }

    /** How acquire_until() ended. */
    enum class Outcome
    {
        /** The queue was empty: no predecessor to wait for. */
        Free,
        /** Queued behind a predecessor, then granted the lock. */
        Waited,
        /** The deadline passed first (timed only). */
        TimedOut,
    };

    /**
     * The one acquire path: acquire() runs it without a deadline and
     * try_acquire_for() with one (@p kTimed). A timed wait polls its flag
     * and at the deadline abandons in place, parking the node; an untimed
     * one parks in spin_while_equal. REACTIVE's and ADAPTIVE's queue
     * tiers call it to learn whether they waited.
     */
    template <bool kTimed>
    Outcome
    acquire_until(Ctx& ctx, std::uint64_t deadline)
    {
        if constexpr (!kTimed)
            deadline = kNoDeadline; // resume_parked reads no clock
        const std::uint64_t timed = kTimed ? 1 : 0;
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, tail_.token(), timed);
        QNode& q = qnode(ctx);
        // Our node is still in the queue from a past abandonment: rejoin
        // its old position, or enqueue it fresh once reclaimed.
        if (q.parked && !resume_parked(ctx, q, deadline))
            return Outcome::TimedOut; // a reclaim still in flight
        if (!q.parked) {
            ctx.store(q.next, kEmpty);
            const std::uint64_t pred = ctx.swap(tail_, id_of(ctx));
            if (pred == kEmpty) {
                obs::probe(ctx, obs::LockEvent::Acquired, tail_.token(),
                           timed);
                return Outcome::Free;
            }
            // Prepare our flag before making ourselves visible to the
            // predecessor, then link in and spin locally.
            ctx.store(q.locked, kWaiting);
            ctx.store(qnode_of(pred).next, id_of(ctx));
        }
        q.parked = false;
        if (!wait_while_equal<kTimed>(ctx, q.locked, kWaiting, deadline) &&
            !abandon_in_queue(ctx, q))
            return Outcome::TimedOut;
        obs::probe(ctx, obs::LockEvent::Acquired, tail_.token(), timed);
        return Outcome::Waited;
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, tail_.token());
        QNode* cur = &qnode(ctx);
        std::uint64_t cur_id = id_of(ctx);
        // Handover walk. `cur` is a node the walk owns: the releaser's
        // own, or an abandoned node claimed kReclaiming. A claimed node
        // is published kReclaimed only after the walk has read past it
        // (or closed the queue), so its owner cannot re-enqueue it while
        // it is still referenced here.
        while (true) {
            std::uint64_t next_id = ctx.load(cur->next);
            if (next_id == kEmpty) {
                // No visible successor: try to close the queue.
                if (ctx.cas(tail_, cur_id, kEmpty) == cur_id) {
                    if (cur_id != id_of(ctx))
                        retire(ctx, *cur, cur_id);
                    return;
                }
                // Someone is between swap and link; wait for the link.
                ctx.spin_while_equal(cur->next, kEmpty);
                next_id = ctx.load(cur->next);
            }
            if (cur_id != id_of(ctx))
                retire(ctx, *cur, cur_id);
            QNode& s = qnode_of(next_id);
            while (true) {
                if (ctx.cas(s.locked, kWaiting, kGranted) == kWaiting)
                    return; // handed over
                // Successor abandoned. Claim the reclaim; a failed claim
                // means the owner rejoined concurrently — grant instead.
                if (ctx.cas(s.locked, kAbandoned, kReclaiming) == kAbandoned)
                    break;
            }
            cur = &s;
            cur_id = next_id;
        }
    }

    /** Host-side abandonment accounting (see locks/timed.hpp). */
    AbandonStats abandon_stats() const { return counters_.snapshot(); }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return tail_.token(); }

  private:
    static constexpr std::uint64_t kEmpty = 0;

    // States of a QNode's flag word (see file comment).
    static constexpr std::uint64_t kGranted = 0;
    static constexpr std::uint64_t kWaiting = 1;
    static constexpr std::uint64_t kAbandoned = 2;
    static constexpr std::uint64_t kReclaiming = 3;
    static constexpr std::uint64_t kReclaimed = 4;

    struct QNode
    {
        Ref next;   // successor thread id (+1), or kEmpty
        Ref locked; // flag word: kGranted..kReclaimed
        bool valid = false;
        /** Host-side, owner-only: node abandoned in queue by a past
         *  try_acquire_for. */
        bool parked = false;
    };

    static std::uint64_t
    id_of(Ctx& ctx)
    {
        return static_cast<std::uint64_t>(ctx.thread_id()) + 1;
    }

    /**
     * The flag wait timed out: park the node in the queue, unless the
     * handover won the race, and then accept the lock past the deadline
     * (bounded overshoot — one poll + one handover).
     * @return whether the lock was accepted.
     */
    bool
    abandon_in_queue(Ctx& ctx, QNode& q)
    {
        obs::probe(ctx, obs::LockEvent::AbandonStart, tail_.token());
        if (ctx.cas(q.locked, kWaiting, kAbandoned) == kWaiting) {
            q.parked = true;
            counters_.on_abandon();
            counters_.on_park();
            obs::probe(ctx, obs::LockEvent::AbandonDone, tail_.token(),
                       static_cast<std::uint64_t>(obs::AbandonOutcome::Parked));
            return false;
        }
        counters_.on_grant_race();
        obs::probe(ctx, obs::LockEvent::AbandonDone, tail_.token(),
                   static_cast<std::uint64_t>(obs::AbandonOutcome::GrantRaced));
        return true;
    }

    /**
     * Re-entry with a parked node. Returns true when the node is ready:
     * rejoined at its old queue position (q.parked stays set, and the
     * caller waits for the handover) or reclaimed and unparked (the caller
     * enqueues it fresh). Returns false when @p deadline passed first; the
     * clock is read only when there is one.
     */
    bool
    resume_parked(Ctx& ctx, QNode& q, std::uint64_t deadline)
    {
        while (true) {
            if (ctx.cas(q.locked, kAbandoned, kWaiting) == kAbandoned) {
                counters_.on_rejoin();
                obs::probe(ctx, obs::LockEvent::QueueReclaim, tail_.token(),
                           static_cast<std::uint64_t>(
                               obs::ReclaimKind::Rejoined),
                           static_cast<std::uint64_t>(ctx.thread_id()));
                return true;
            }
            if (ctx.load(q.locked) == kReclaimed) {
                unpark(ctx, q);
                return true;
            }
            if (deadline != kNoDeadline &&
                detail::lock_clock_ns(ctx) >= deadline) {
                // Reclaim still in flight (e.g. the reclaiming releaser
                // was preempted or died). Leave the node parked.
                counters_.on_abandon();
                obs::probe(ctx, obs::LockEvent::AbandonStart, tail_.token());
                obs::probe(ctx, obs::LockEvent::AbandonDone, tail_.token(),
                           static_cast<std::uint64_t>(
                               obs::AbandonOutcome::Parked));
                return false;
            }
            // kReclaiming: a releaser is unlinking us right now; the
            // kReclaimed publish is a bounded number of its steps away.
            ctx.delay(kTimedPollQuantum);
        }
    }

    /** Owner-side reuse of a node a releaser finished reclaiming. */
    void
    unpark(Ctx& ctx, QNode& q)
    {
        q.parked = false;
        counters_.on_unpark();
        obs::probe(ctx, obs::LockEvent::QueueReclaim, tail_.token(),
                   static_cast<std::uint64_t>(obs::ReclaimKind::Unparked),
                   static_cast<std::uint64_t>(ctx.thread_id()));
    }

    /** Releaser-side: publish a claimed node as reclaimed once the walk
     *  no longer references it. */
    void
    retire(Ctx& ctx, QNode& node, std::uint64_t node_id)
    {
        ctx.store(node.locked, kReclaimed);
        counters_.on_reclaim();
        obs::probe(ctx, obs::LockEvent::QueueReclaim, tail_.token(),
                   static_cast<std::uint64_t>(obs::ReclaimKind::Unlinked),
                   node_id - 1);
    }

    QNode&
    qnode(Ctx& ctx)
    {
        auto& q = qnodes_[static_cast<std::size_t>(ctx.thread_id())];
        if (!q.valid) {
            q.next = machine_->alloc(kEmpty, ctx.node());
            q.locked = machine_->alloc(0, ctx.node());
            q.valid = true;
        }
        return q;
    }

    QNode&
    qnode_of(std::uint64_t id)
    {
        NUCA_ASSERT(id != kEmpty && id <= qnodes_.size(), "bad queue id ", id);
        QNode& q = qnodes_[static_cast<std::size_t>(id - 1)];
        NUCA_ASSERT(q.valid, "queue id ", id, " has no node");
        return q;
    }

    Machine* machine_;
    Ref tail_; // thread id (+1) of the last queued thread, or kEmpty
    std::vector<QNode> qnodes_;
    AbandonCounters counters_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_MCS_HPP
