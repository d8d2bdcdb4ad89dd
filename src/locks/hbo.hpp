/**
 * @file
 * The HBO family: the paper's Figure 1 and Figure 2 as one template.
 *
 *  - HBO (section 4.1, Figure 1 without the emphasized lines). One cas on
 *    one word acquires a free lock; the winning thread's *node id* is
 *    what gets cas-ed in, so a failed cas tells the loser where the lock
 *    lives: same node => small backoff, remote node => large backoff.
 *    That asymmetry is the entire mechanism — threads in the holder's
 *    node win the next handover with high probability, keeping the lock
 *    word and the critical-section data in the node.
 *  - HBO_GT (section 4.2, Figure 1's emphasized lines). Each node has one
 *    `is_spinning` gate word. A thread that must spin on a lock held in a
 *    *remote* node first publishes the lock's identity in its own node's
 *    gate; other threads in that node poll the gate before even
 *    attempting a cas, so normally only one thread per node generates
 *    cross-node lock traffic. The winner re-opens the gate (the paper's
 *    "dummy value") as soon as the lock arrives.
 *  - HBO_GT_SD (section 4.3, Figure 2). A node winner that keeps losing
 *    remote handovers "gets angry" after GET_ANGRY_LIMIT failures: it
 *    (1) spins more frequently, at the constant local base, and (2)
 *    writes the lock's identity into the *winning* nodes' gates. Once it
 *    acquires (or the lock migrates home) it re-opens every gate it
 *    closed. Figure 2 stops the single node observed at the limit; past
 *    the limit we stop any newly observed holding node too (the lock may
 *    migrate between third-party nodes on >2-node machines).
 *  - HBO_HIER (section 4.1: "This scheme can be expanded in a
 *    hierarchical way, using more than two sets of constants"). The
 *    cas-ed token names the holder's *chip*: a same-chip holder gets the
 *    hier_chip constants, a holder on another chip of the node gets
 *    hbo_local, and remote-node spinning is gated per node as in HBO_GT.
 *    On a flat (one chip per node) topology it is not HBO_GT: its local
 *    level backs off at hier_chip, not hbo_local, and it skips Figure 1's
 *    backoff after the lock leaves the node.
 *
 * Values: kHboFree (0) when free, otherwise node (HBO_HIER: chip) id + 1.
 *
 * One path serves acquire() and try_acquire_for(): acquire_until() runs
 * it without a deadline, and every wait of the timed path ends at its
 * deadline. A timeout re-opens every gate the thread closed (the HMCS-T
 * discipline), or its node wedges behind a gate nobody will clear — the
 * window the `spinner` fault preset targets. The timed path keeps two
 * differences from the untimed one: its gate waits poll every
 * kTimedPollQuantum iterations instead of parking in spin_while_equal,
 * and it skips Figure 1's backoff after the lock leaves the node.
 *
 * Checker view (sim/scheduler.hpp): the cas is the only decision point
 * that can change ownership, so mutual exclusion is schedule-independent;
 * what the backoff asymmetry changes is *which* thread reaches its next
 * cas first. The backoff delays are voluntary yields — the controlled
 * schedulers (and the preemption bound in check/explore.hpp) treat
 * switching away during backoff as free, which is what keeps exploring
 * this lock's schedule space tractable.
 */
#ifndef NUCALOCK_LOCKS_HBO_HPP
#define NUCALOCK_LOCKS_HBO_HPP

#include <array>
#include <vector>

#include "common/logging.hpp"
#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

/** FREE value of an HBO lock word. */
inline constexpr std::uint64_t kHboFree = 0;

/** Lock-word value identifying @p node as the holding node. */
inline std::uint64_t
hbo_node_token(int node)
{
    return static_cast<std::uint64_t>(node) + 1;
}

/**
 * The cas half of hbo_poll(): a load read @p v; cas only when that was free.
 * @return kHboFree when the lock was acquired, else the holder's token.
 */
template <LockContext Ctx>
std::uint64_t
hbo_claim(Ctx& ctx, typename Ctx::Ref word, std::uint64_t v, std::uint64_t mine)
{
    if (v != kHboFree)
        return v;
    return ctx.cas(word, kHboFree, mine);
}

/**
 * One slowpath poll: test with a load, cas only when the lock looked free.
 * @return kHboFree when the lock was acquired, else the holder's token.
 *
 * Figure 1 polls with a bare cas; a failed cas still migrates the line
 * exclusively, so bare-cas polling makes every waiting thread bounce the
 * lock line and stalls the holder's release (clearly visible in the
 * simulator's coherence model). Polling with a load first keeps waiters'
 * copies shared and is the standard test-and-set-style refinement; the
 * uncontested path (acquire's first cas) is unchanged.
 */
template <LockContext Ctx>
std::uint64_t
hbo_poll(Ctx& ctx, typename Ctx::Ref word, std::uint64_t mine)
{
    return hbo_claim(ctx, word, ctx.load(word), mine);
}

/** Which of the paper's lines an HboFamilyLock runs. */
enum class HboVariant
{
    Hbo,
    Gt,
    GtSd,
    Hier,
};

template <LockContext Ctx, HboVariant V>
class HboFamilyLock
{
    /** Figure 1's emphasized lines: the per-node gates. */
    static constexpr bool kGate = V != HboVariant::Hbo;
    /** Figure 2: starvation detection. */
    static constexpr bool kAnger = V == HboVariant::GtSd;
    /** Chip tokens and a third set of constants. */
    static constexpr bool kHier = V == HboVariant::Hier;

  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = V == HboVariant::Hbo    ? "HBO"
                                         : V == HboVariant::Gt   ? "HBO_GT"
                                         : V == HboVariant::GtSd ? "HBO_GT_SD"
                                                                 : "HBO_HIER";
    static constexpr int kMaxNodes = 64;

    /** The paper's "dummy value": the gate is open. */
    static constexpr std::uint64_t kGateDummyValue = 0;

    explicit HboFamilyLock(Machine& machine,
                           const LockParams& params = LockParams{},
                           int home_node = 0)
        : word_(machine.alloc(kHboFree, home_node)), params_(params)
    {
        if constexpr (kGate) {
            const int nodes = machine.topology().num_nodes();
            if constexpr (kAnger)
                NUCA_ASSERT(nodes <= kMaxNodes);
            gates_.reserve(static_cast<std::size_t>(nodes));
            for (int n = 0; n < nodes; ++n)
                gates_.push_back(machine.node_gate(n));
        }
    }

    void acquire(Ctx& ctx) { acquire_until<false>(ctx, kNoDeadline); }

    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        if constexpr (kGate) {
            if (ctx.load(my_gate(ctx)) == word_.token()) {
                obs::probe(ctx, obs::LockEvent::GateBlocked, word_.token());
                return false;
            }
        }
        if (ctx.cas(word_, kHboFree, token(ctx)) != kHboFree)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    /**
     * Timed acquisition: the acquire path with every wait ending at the
     * deadline. Overshoot is bounded by one backoff period (the remote
     * cap at worst) plus one poll. HBO has none: without gates it has
     * nothing to undo, and acquire_for's generic loop serves it.
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
        requires kGate
    {
        return acquire_until<true>(ctx, detail::deadline_after(ctx, timeout_ns));
    }

    /** Host-side abandonment accounting (see locks/timed.hpp). */
    AbandonStats
    abandon_stats() const
        requires kGate
    {
        return counters_.snapshot();
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, word_.token());
        ctx.store(word_, kHboFree);
    }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. It
     *  is also what a closed gate holds. */
    std::uint64_t lock_id() const { return word_.token(); }

  private:
    /** How far the holder is. HBO_HIER tells Chip from Node; the others
     *  call a same-node holder Node. */
    enum class Level
    {
        Chip,
        Node,
        Remote,
    };

    /** How remote_spin() ended. */
    enum class Spin
    {
        Acquired,
        Closer,
        TimedOut,
    };

    /** This thread's lock-word token: its node, or HBO_HIER's chip. */
    static std::uint64_t
    token(Ctx& ctx)
    {
        return hbo_node_token(kHier ? ctx.chip() : ctx.node());
    }

    static Level
    level_of(Ctx& ctx, std::uint64_t tmp, std::uint64_t mine)
    {
        if (tmp == mine)
            return kHier ? Level::Chip : Level::Node;
        if constexpr (kHier) {
            const int holder_chip = static_cast<int>(tmp) - 1;
            if (ctx.machine().topology().node_of_chip(holder_chip) == ctx.node())
                return Level::Node;
        }
        return Level::Remote;
    }

    Ref
    my_gate(Ctx& ctx) const
    {
        return gates_[static_cast<std::size_t>(ctx.node())];
    }

    template <bool kTimed>
    bool
    acquire_until(Ctx& ctx, std::uint64_t deadline)
    {
        const std::uint64_t timed = kTimed ? 1 : 0;
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), timed);
        if constexpr (kGate) {
            if (!gate_wait<kTimed>(ctx, deadline))
                return abandon(ctx);
        }
        // Figure 1 lines 6-9: the uncontested path is one cas.
        const std::uint64_t tmp = ctx.cas(word_, kHboFree, token(ctx));
        if (tmp != kHboFree && !acquire_path<kTimed>(ctx, tmp, deadline))
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), timed);
        return true;
    }

    /**
     * Everything after a first cas that read @p tmp. Out of line, so that
     * the uncontested path stays one cas between two probes.
     * @return true once acquired; false when the deadline passed, with
     *         every gate this thread closed open again.
     */
    template <bool kTimed>
    [[gnu::noinline]] bool
    acquire_path(Ctx& ctx, std::uint64_t tmp, std::uint64_t deadline)
    {
        if constexpr (!kTimed)
            deadline = kNoDeadline; // the polls' deadline checks fold away
        const std::uint64_t mine = token(ctx);
        // Held in a register across the polls, for their claiming cas.
        const Ref word = word_;
        while (true) {
            const Level level = level_of(ctx, tmp, mine);
            if (level != Level::Remote) {
                // Close holder: small backoff, gate untouched (Figure 1
                // lines 23-35). Poll while it stays this close.
                const BackoffParams& bp =
                    level == Level::Chip ? params_.hier_chip : params_.hbo_local;
                std::uint32_t b = bp.base;
                do {
                    const PollResult poll =
                        backoff_poll(ctx, word, tmp, &b, bp.factor, bp.cap,
                                     params_.jitter, obs::BackoffClass::Local,
                                     kUnlimitedPolls, deadline);
                    if (poll.timed_out)
                        return abandon(ctx);
                    tmp = hbo_claim(ctx, word, poll.value, mine);
                    if (tmp == kHboFree)
                        return true;
                } while (level_of(ctx, tmp, mine) == level);
                // The lock moved away: Figure 1 backs off once more. The
                // timed path and HBO_HIER skip it (see the file comment).
                if constexpr (!kTimed && !kHier)
                    backoff(ctx, &b, bp.factor, bp.cap, params_.jitter,
                            obs::BackoffClass::Local);
            } else {
                const Spin spin = remote_spin<kTimed>(ctx, tmp, mine, deadline);
                if (spin == Spin::TimedOut)
                    return abandoned(ctx);
                if (spin == Spin::Acquired)
                    return true;
            }
            if constexpr (kGate) {
                // Figure 1 lines 55-60 ("restart"): re-gate, retry,
                // re-dispatch.
                if (!gate_wait<kTimed>(ctx, deadline))
                    return abandon(ctx);
                tmp = hbo_poll(ctx, word, mine);
                if (tmp == kHboFree)
                    return true;
            }
        }
    }

    /**
     * Remote holder @p tmp (Figure 1 lines 37-52, Figure 2): publish our
     * gate and back off hard while a remote node holds the lock, then
     * re-open every gate this closed on every exit. Leaves in @p tmp the
     * value that ended the spin. The timeout exit starts the abandonment
     * before the gate stores, so the abandon-latency metric covers them.
     */
    template <bool kTimed>
    Spin
    remote_spin(Ctx& ctx, std::uint64_t& tmp, std::uint64_t mine,
                std::uint64_t deadline)
    {
        if constexpr (!kTimed)
            deadline = kNoDeadline;
        const Ref word = word_;
        std::uint32_t b = params_.hbo_remote_base;
        std::uint32_t fast = params_.hbo_local.base;
        std::uint32_t get_angry = 0;
        bool angry = false;
        std::array<bool, kMaxNodes> stopped{};
        int stopped_count = 0;
        if constexpr (kGate) {
            obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                       static_cast<std::uint64_t>(ctx.node()));
            ctx.store(my_gate(ctx), word_.token());
        }
        Spin spin = Spin::Acquired;
        while (true) {
            // Poll while the same remote holder has the lock. HBO_GT_SD's
            // polls stop at the one reaching get_angry_limit, so the anger
            // transition and its gate store happen below; angry, they run
            // at the constant local base: measure (1), spin more
            // frequently.
            const PollResult poll =
                angry ? backoff_poll(ctx, word, tmp, &fast, 1, fast,
                                     params_.jitter, obs::BackoffClass::Local,
                                     kUnlimitedPolls, deadline)
                      : backoff_poll(ctx, word, tmp, &b, 2,
                                     params_.hbo_remote_cap, params_.jitter,
                                     obs::BackoffClass::Remote,
                                     kAnger ? params_.get_angry_limit - get_angry
                                            : kUnlimitedPolls,
                                     deadline);
            if (poll.timed_out) {
                obs::probe(ctx, obs::LockEvent::AbandonStart, word_.token());
                spin = Spin::TimedOut;
                break;
            }
            tmp = hbo_claim(ctx, word, poll.value, mine);
            if (tmp == kHboFree || level_of(ctx, tmp, mine) != Level::Remote) {
                spin = tmp == kHboFree ? Spin::Acquired : Spin::Closer;
                break;
            }
            if constexpr (kAnger) {
                // Every poll read a remote holder.
                get_angry += static_cast<std::uint32_t>(poll.polls);
                if (get_angry >= params_.get_angry_limit) {
                    if (!angry)
                        obs::probe(ctx, obs::LockEvent::AngryEnter,
                                   word_.token(), tmp - 1);
                    angry = true;
                    // Measure (2): stop the holding node's threads.
                    const auto holder = static_cast<std::size_t>(tmp - 1);
                    if (holder < gates_.size() && !stopped[holder]) {
                        stopped[holder] = true;
                        ++stopped_count;
                        obs::probe(ctx, obs::LockEvent::GatePublish,
                                   word_.token(), holder, 1);
                        ctx.store(gates_[holder], word_.token());
                    }
                }
            }
        }
        if constexpr (kGate) {
            if (angry)
                obs::probe(ctx, obs::LockEvent::AngryExit, word_.token());
            obs::probe(ctx, obs::LockEvent::GateOpen, word_.token(),
                       static_cast<std::uint64_t>(stopped_count) + 1);
            ctx.store(my_gate(ctx), kGateDummyValue);
            for (std::size_t n = 0; stopped_count > 0 && n < gates_.size(); ++n)
                if (stopped[n])
                    ctx.store(gates_[n], kGateDummyValue);
        }
        return spin;
    }

    /** Figure 1 line 5: wait while our node's gate names this lock
     *  (wait_while_equal: the timed wait polls, the untimed one parks). */
    template <bool kTimed>
    bool
    gate_wait(Ctx& ctx, std::uint64_t deadline)
    {
        obs::probe_gate(ctx, my_gate(ctx), word_.token(), word_.token());
        return wait_while_equal<kTimed>(ctx, my_gate(ctx), word_.token(),
                                        deadline);
    }

    /** Timed out with no gate of ours closed: nothing to undo. */
    [[gnu::cold]] bool
    abandon(Ctx& ctx)
    {
        return abandon_clean(ctx, &counters_, word_.token());
    }

    /** Finish an abandonment whose AbandonStart is out. */
    [[gnu::cold]] bool
    abandoned(Ctx& ctx)
    {
        counters_.on_abandon();
        obs::probe(ctx, obs::LockEvent::AbandonDone, word_.token(),
                   static_cast<std::uint64_t>(obs::AbandonOutcome::Clean));
        return false;
    }

    Ref word_;
    std::vector<Ref> gates_; // one per node; empty for HBO
    LockParams params_;
    AbandonCounters counters_;
};

template <LockContext Ctx>
using HboLock = HboFamilyLock<Ctx, HboVariant::Hbo>;
template <LockContext Ctx>
using HboGtLock = HboFamilyLock<Ctx, HboVariant::Gt>;
template <LockContext Ctx>
using HboGtSdLock = HboFamilyLock<Ctx, HboVariant::GtSd>;
template <LockContext Ctx>
using HboHierLock = HboFamilyLock<Ctx, HboVariant::Hier>;

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_HBO_HPP
