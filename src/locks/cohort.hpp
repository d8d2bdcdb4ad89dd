/**
 * @file
 * COHORT: a cohort lock in the taxonomy of Dice, Marathe & Shavit (PPoPP
 * 2012) — the mainstream descendant of this paper's idea, included as a
 * forward-looking comparison point. This is the C-TKT-BO flavour: a FIFO
 * ticket lock globally, backoff locks per node.
 *
 * Structure: one global ticket lock plus one local TATAS word per node. A
 * thread first acquires its node's local lock, then (if the node does not
 * already own it) the global lock. Release prefers a *cohort detour*:
 * while node-local waiters exist and the handoff budget is not exhausted,
 * only the local lock is released and the global lock stays owned by the
 * node — a *deterministic* version of the node affinity HBO gets
 * probabilistically from asymmetric backoff. The FIFO global tier makes
 * the budget a hard bound on node capture whenever another node waits
 * (its ticket is already in line), the property HBO_GT_SD only
 * approximates with anger.
 */
#ifndef NUCALOCK_LOCKS_COHORT_HPP
#define NUCALOCK_LOCKS_COHORT_HPP

#include <vector>

#include "common/logging.hpp"
#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"
#include "locks/ticket.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class CohortLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "COHORT";

    /** Consecutive in-node handoffs before the node must go global. */
    static constexpr std::uint64_t kDefaultBudget = 32;

    explicit CohortLock(Machine& machine,
                        const LockParams& params = LockParams{},
                        int home_node = 0)
        : params_(params), global_(machine, params, home_node)
    {
        const int nodes = machine.topology().num_nodes();
        local_.reserve(static_cast<std::size_t>(nodes));
        // One local lock word per node, homed in that node.
        for (int n = 0; n < nodes; ++n)
            local_.push_back(NodeState{machine.alloc(kFree, n), 0});
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, lock_id());
        NodeState& node = local_[static_cast<std::size_t>(ctx.node())];

        // 1. Local lock (TATAS_EXP on the node's word): cheap, node-local.
        spin_lock(ctx, node.word, params_.hbo_local);

        // 2. Global lock, unless our cohort predecessor passed it to us.
        if (node.global_owned) {
            ++node.streak;
            obs::probe(ctx, obs::LockEvent::Acquired, lock_id());
            return;
        }
        global_.acquire(ctx);
        node.global_owned = true;
        node.streak = 0;
        obs::probe(ctx, obs::LockEvent::Acquired, lock_id());
    }

    /**
     * Non-blocking try: take the local word only if free, then either
     * inherit a node-owned global lock (counting against the detour
     * budget, same as acquire) or try the global ticket tier; on a global
     * miss the local word is released again and the call fails.
     */
    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, lock_id(), 1);
        NodeState& node = local_[static_cast<std::size_t>(ctx.node())];
        if (ctx.cas(node.word, kFree, kLocked) != kFree)
            return false;
        if (node.global_owned) {
            ++node.streak;
            obs::probe(ctx, obs::LockEvent::Acquired, lock_id(), 1);
            return true;
        }
        if (global_.try_acquire(ctx)) {
            node.global_owned = true;
            node.streak = 0;
            obs::probe(ctx, obs::LockEvent::Acquired, lock_id(), 1);
            return true;
        }
        ctx.store(node.word, kFree); // undo the local tier
        return false;
    }

    /**
     * Timed acquisition. A timed waiter must be able to walk away without
     * wedging the node, so it differs from acquire() in two deliberate
     * ways: the local spin never marks the word "contended" (a departed
     * timed waiter's marker could make release() detour the global lock
     * to an empty node and strand every other node), and the global tier
     * is entered by polling try_acquire rather than taking a FIFO ticket
     * (a taken ticket cannot be abandoned). On timeout the local word is
     * re-opened — the abandonment obligation — and false is returned.
     * Overshoot is bounded by one local backoff period plus one global
     * attempt. A timed waiter that wins the local word on a node that
     * already owns the global lock takes the lock even at the deadline
     * edge (inheritance is instantaneous, like MCS's grant race).
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        const std::uint64_t deadline = detail::deadline_after(ctx, timeout_ns);
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, lock_id(), 1);
        NodeState& node = local_[static_cast<std::size_t>(ctx.node())];

        // 1. Local word, deadline-bounded, never marking contended.
        if (!spin_lock_until(ctx, node.word, params_.hbo_local, deadline))
            return abandon_clean(ctx, &counters_, lock_id());

        // 2. Global tier: inherit, or poll the ticket tier's try path.
        if (node.global_owned) {
            ++node.streak;
            obs::probe(ctx, obs::LockEvent::Acquired, lock_id(), 1);
            return true;
        }
        std::uint32_t b = params_.hbo_remote_base;
        while (true) {
            if (global_.try_acquire(ctx)) {
                node.global_owned = true;
                node.streak = 0;
                obs::probe(ctx, obs::LockEvent::Acquired, lock_id(), 1);
                return true;
            }
            if (detail::lock_clock_ns(ctx) >= deadline) {
                // Abandon: re-open the local word we hold, or the node
                // wedges. Nothing else to undo — no ticket was taken.
                return abandon_clean(ctx, &counters_, lock_id(), [&] {
                    ctx.store(node.word, kFree);
                });
            }
            backoff(ctx, &b, 2, params_.hbo_remote_cap, params_.jitter,
                    obs::BackoffClass::Remote);
        }
    }

    /** Host-side abandonment accounting (see locks/timed.hpp). */
    AbandonStats abandon_stats() const { return counters_.snapshot(); }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, lock_id());
        NodeState& node = local_[static_cast<std::size_t>(ctx.node())];
        NUCA_ASSERT(node.global_owned, "release without acquire");

        // Cohort detour: hand over inside the node while someone is
        // waiting locally and the fairness budget allows it.
        const bool waiters = ctx.load(node.word) == kLockedContended;
        if (waiters && node.streak < kDefaultBudget) {
            ctx.store(node.word, kFree); // local handoff, global stays ours
            return;
        }
        node.global_owned = false;
        node.streak = 0;
        global_.release(ctx);
        ctx.store(node.word, kFree);
    }

    /** Identity for probes and traffic attribution: node 0's local word
     *  (stable for the lock's life). */
    std::uint64_t lock_id() const { return local_[0].word.token(); }

  private:
    static constexpr std::uint64_t kFree = 0;
    static constexpr std::uint64_t kLocked = 1;
    static constexpr std::uint64_t kLockedContended = 2;

    struct NodeState
    {
        Ref word;
        std::uint64_t streak = 0;
        // Written only by the node's current holder (serialized by the
        // local lock), so plain storage is safe.
        bool global_owned = false;

        NodeState(Ref w, std::uint64_t s) : word(w), streak(s) {}
    };

    /**
     * TATAS with exponential backoff on @p word, marking the word
     * "contended" while waiting so the releaser can detect local waiters
     * (the detour condition).
     */
    void
    spin_lock(Ctx& ctx, Ref word, const BackoffParams& bp)
    {
        if (ctx.cas(word, kFree, kLocked) == kFree)
            return;
        std::uint32_t b = bp.base;
        std::uint64_t v = ctx.load(word);
        while (true) {
            // Advertise our presence: FREE->locked wins; locked->contended
            // keeps the waiter count visible at release time.
            if (v == kFree) {
                if (ctx.cas(word, kFree, kLocked) == kFree) {
                    // Normalize: the contended marker we (or others who
                    // since acquired elsewhere) left must not linger, or a
                    // release with no real waiters would detour the global
                    // lock to nobody and strand the other nodes. A racing
                    // waiter's fresh marker may be overwritten — that only
                    // costs one detour opportunity, never correctness.
                    return;
                }
                v = ctx.load(word);
                continue;
            }
            if (v == kLocked)
                ctx.cas(word, kLocked, kLockedContended);
            v = backoff_poll(ctx, word, kLockedContended, &b, bp.factor,
                             bp.cap, params_.jitter, obs::BackoffClass::Local)
                    .value;
        }
    }

    /**
     * Deadline-bounded TATAS on @p word for the timed path. Unlike
     * spin_lock it never publishes the contended marker: a marker left by
     * a waiter who then abandons would turn the release-time detour into
     * a handoff to nobody. The cost is that timed waiting is invisible to
     * the detour heuristic; the win is that abandonment needs no undo
     * here at all.
     */
    bool
    spin_lock_until(Ctx& ctx, Ref word, const BackoffParams& bp,
                    std::uint64_t deadline)
    {
        std::uint32_t b = bp.base;
        while (true) {
            if (ctx.cas(word, kFree, kLocked) == kFree)
                return true;
            if (detail::lock_clock_ns(ctx) >= deadline)
                return false;
            backoff(ctx, &b, bp.factor, bp.cap, params_.jitter,
                    obs::BackoffClass::Local);
        }
    }

    LockParams params_;
    TicketLock<Ctx> global_; // FIFO between node winners
    std::vector<NodeState> local_;
    AbandonCounters counters_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_COHORT_HPP
