/**
 * @file
 * HBO_GT_SD: HBO_GT with node-centric starvation detection (paper section
 * 4.3, Figure 2).
 *
 * A node winner that keeps losing remote handovers "gets angry" after
 * GET_ANGRY_LIMIT failures: it (1) spins more frequently (drops back to the
 * local backoff constants) and (2) writes the lock's identity into the
 * *winning* nodes' is_spinning gates, stopping new threads there from even
 * attempting the lock. Once the angry winner finally acquires (or the lock
 * migrates home), it re-opens every gate it closed.
 *
 * Figure 2 stops the single node observed at the limit; we generalize
 * slightly: past the limit, any newly observed holding node is stopped too
 * (the lock may migrate between third-party nodes on >2-node machines).
 */
#ifndef NUCALOCK_LOCKS_HBO_GT_SD_HPP
#define NUCALOCK_LOCKS_HBO_GT_SD_HPP

#include <array>
#include <vector>

#include "common/logging.hpp"
#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/hbo.hpp"
#include "locks/hbo_gt.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class HboGtSdLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "HBO_GT_SD";
    static constexpr int kMaxNodes = 64;

    explicit HboGtSdLock(Machine& machine, const LockParams& params = LockParams{},
                         int home_node = 0)
        : word_(machine.alloc(kHboFree, home_node)), params_(params)
    {
        const int nodes = machine.topology().num_nodes();
        NUCA_ASSERT(nodes <= kMaxNodes);
        gates_.reserve(static_cast<std::size_t>(nodes));
        for (int n = 0; n < nodes; ++n)
            gates_.push_back(machine.node_gate(n));
        gate_token_ = word_.token();
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token());
        obs::probe_gate(ctx, my_gate(ctx), gate_token_, word_.token());
        ctx.spin_while_equal(gates_[static_cast<std::size_t>(ctx.node())],
                             gate_token_);
        const std::uint64_t tmp =
            ctx.cas(word_, kHboFree, hbo_node_token(ctx.node()));
        if (tmp != kHboFree)
            acquire_slowpath(ctx, tmp);
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token());
    }

    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        if (ctx.load(gates_[static_cast<std::size_t>(ctx.node())]) == gate_token_) {
            obs::probe(ctx, obs::LockEvent::GateBlocked, word_.token());
            return false;
        }
        if (ctx.cas(word_, kHboFree, hbo_node_token(ctx.node())) != kHboFree)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    /**
     * Timed acquisition. Same gate obligations as HboGtLock plus the
     * anger set: a timed-out angry waiter has closed up to kMaxNodes
     * *other* nodes' gates and must re-open every one of them (via the
     * same open_gates path the success exits use) or those nodes wedge.
     * Overshoot is bounded by one backoff period plus one poll.
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        const std::uint64_t deadline = detail::deadline_after(ctx, timeout_ns);
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        const std::uint64_t mine = hbo_node_token(ctx.node());
        if (!gate_wait_until(ctx, deadline))
            return abandon_clean(ctx);
        std::uint64_t tmp = ctx.cas(word_, kHboFree, mine);
        while (tmp != kHboFree) {
            if (tmp == mine) {
                std::uint32_t b = params_.hbo_local.base;
                bool migrated = false;
                while (!migrated && tmp != kHboFree) {
                    if (detail::lock_clock_ns(ctx) >= deadline)
                        return abandon_clean(ctx);
                    backoff(ctx, &b, params_.hbo_local.factor,
                            params_.hbo_local.cap, params_.jitter,
                            obs::BackoffClass::Local);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp != kHboFree && tmp != mine)
                        migrated = true;
                }
            } else {
                const RemoteSpinOutcome outcome =
                    remote_spin_until(ctx, mine, deadline);
                if (outcome == RemoteSpinOutcome::TimedOut) {
                    counters_.on_abandon();
                    obs::probe(ctx, obs::LockEvent::AbandonDone, word_.token(),
                               static_cast<std::uint64_t>(
                                   obs::AbandonOutcome::Clean));
                    return false;
                }
                tmp = outcome == RemoteSpinOutcome::Acquired ? kHboFree
                                                             : mine;
            }
            if (tmp == kHboFree)
                break;
            if (!gate_wait_until(ctx, deadline))
                return abandon_clean(ctx);
            tmp = hbo_poll(ctx, word_, mine);
        }
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    /** Host-side abandonment accounting (see locks/timed.hpp). */
    AbandonStats abandon_stats() const { return counters_.snapshot(); }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, word_.token());
        ctx.store(word_, kHboFree);
    }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return word_.token(); }

  private:
    enum class RemoteSpinOutcome
    {
        Acquired,
        MigratedHome,
        TimedOut,
    };

    Ref
    my_gate(Ctx& ctx) const
    {
        return gates_[static_cast<std::size_t>(ctx.node())];
    }

    /** Deadline-bounded version of the entry/restart gate wait. */
    bool
    gate_wait_until(Ctx& ctx, std::uint64_t deadline)
    {
        obs::probe_gate(ctx, my_gate(ctx), gate_token_, word_.token());
        while (ctx.load(my_gate(ctx)) == gate_token_) {
            if (detail::lock_clock_ns(ctx) >= deadline)
                return false;
            ctx.delay(kTimedPollQuantum);
        }
        return true;
    }

    /** Timed-out with no gate closed by us: nothing to undo. */
    bool
    abandon_clean(Ctx& ctx)
    {
        counters_.on_abandon();
        obs::probe(ctx, obs::LockEvent::AbandonStart, word_.token());
        obs::probe(ctx, obs::LockEvent::AbandonDone, word_.token(),
                   static_cast<std::uint64_t>(obs::AbandonOutcome::Clean));
        return false;
    }

    void
    acquire_slowpath(Ctx& ctx, std::uint64_t tmp)
    {
        const std::uint64_t mine = hbo_node_token(ctx.node());
        // Held in a register across the polls, for their claiming cas.
        const Ref word = word_;
        while (true) {
            if (tmp == mine) {
                std::uint32_t b = params_.hbo_local.base;
                bool migrated = false;
                while (!migrated) {
                    tmp = backoff_poll(ctx, word, mine, &b,
                                       params_.hbo_local.factor,
                                       params_.hbo_local.cap, params_.jitter,
                                       obs::BackoffClass::Local)
                              .value;
                    tmp = hbo_claim(ctx, word, tmp, mine);
                    if (tmp == kHboFree)
                        return;
                    if (tmp != mine) {
                        backoff(ctx, &b, params_.hbo_local.factor,
                                params_.hbo_local.cap, params_.jitter,
                                obs::BackoffClass::Local);
                        migrated = true;
                    }
                }
            } else {
                if (remote_spin(ctx, mine, tmp))
                    return;
            }
            obs::probe_gate(ctx, my_gate(ctx), gate_token_, word_.token());
            ctx.spin_while_equal(my_gate(ctx), gate_token_);
            tmp = hbo_poll(ctx, word_, mine);
            if (tmp == kHboFree)
                return;
        }
    }

    /**
     * Remote spinning with starvation detection (Figure 2), entered with
     * @p tmp, the remote holder's token.
     * @return true when the lock was acquired; false when it migrated to
     *         our node (caller re-dispatches through "restart").
     */
    bool
    remote_spin(Ctx& ctx, std::uint64_t mine, std::uint64_t tmp)
    {
        std::uint32_t b = params_.hbo_remote_base;
        std::uint32_t get_angry = 0;
        bool angry = false;
        std::array<bool, kMaxNodes> stopped{};
        int stopped_count = 0;
        // Held in a register across the polls, for their claiming cas.
        const Ref word = word_;

        obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                   static_cast<std::uint64_t>(ctx.node()));
        ctx.store(my_gate(ctx), gate_token_);
        while (true) {
            // Poll while the same remote node holds the lock. Every round
            // but the last reads that holder, and only counts towards
            // anger: the polls stop at the one reaching get_angry_limit,
            // so the anger transition and its gate store happen below.
            PollResult poll;
            if (angry) {
                // Measure (1): spin more frequently, at the constant local
                // base.
                std::uint32_t fast = params_.hbo_local.base;
                poll = backoff_poll(ctx, word, tmp, &fast, 1, fast,
                                    params_.jitter, obs::BackoffClass::Local);
            } else {
                poll = backoff_poll(ctx, word, tmp, &b, 2,
                                    params_.hbo_remote_cap, params_.jitter,
                                    obs::BackoffClass::Remote,
                                    params_.get_angry_limit - get_angry);
            }
            get_angry += static_cast<std::uint32_t>(poll.polls - 1);

            tmp = hbo_claim(ctx, word, poll.value, mine);
            if (tmp == kHboFree) {
                if (angry)
                    obs::probe(ctx, obs::LockEvent::AngryExit, word_.token());
                open_gates(ctx, stopped, stopped_count);
                return true;
            }
            if (tmp == mine) {
                if (angry)
                    obs::probe(ctx, obs::LockEvent::AngryExit, word_.token());
                open_gates(ctx, stopped, stopped_count);
                return false;
            }

            // The lock is still in some remote node.
            ++get_angry;
            if (get_angry >= params_.get_angry_limit) {
                if (!angry)
                    obs::probe(ctx, obs::LockEvent::AngryEnter, word_.token(),
                               tmp - 1);
                angry = true;
                // Measure (2): stop the holding node's threads.
                const int holder = static_cast<int>(tmp) - 1;
                if (holder >= 0 && holder < static_cast<int>(gates_.size()) &&
                    !stopped[static_cast<std::size_t>(holder)]) {
                    stopped[static_cast<std::size_t>(holder)] = true;
                    ++stopped_count;
                    obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                               static_cast<std::uint64_t>(holder), 1);
                    ctx.store(gates_[static_cast<std::size_t>(holder)],
                              gate_token_);
                }
            }
        }
    }

    /**
     * Deadline-bounded remote_spin. Anger works exactly as in the
     * untimed path; every exit — acquired, migrated home, or timed out —
     * re-opens our gate and the whole anger set. The timeout exit emits
     * AbandonStart before the gate stores so the abandon-latency metric
     * covers the re-open work.
     */
    RemoteSpinOutcome
    remote_spin_until(Ctx& ctx, std::uint64_t mine, std::uint64_t deadline)
    {
        std::uint32_t b = params_.hbo_remote_base;
        std::uint32_t get_angry = 0;
        bool angry = false;
        std::array<bool, kMaxNodes> stopped{};
        int stopped_count = 0;

        obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                   static_cast<std::uint64_t>(ctx.node()));
        ctx.store(my_gate(ctx), gate_token_);
        while (true) {
            if (detail::lock_clock_ns(ctx) >= deadline) {
                obs::probe(ctx, obs::LockEvent::AbandonStart, word_.token());
                if (angry)
                    obs::probe(ctx, obs::LockEvent::AngryExit, word_.token());
                open_gates(ctx, stopped, stopped_count);
                return RemoteSpinOutcome::TimedOut;
            }
            if (angry) {
                // Measure (1): spin more frequently.
                std::uint32_t fast = params_.hbo_local.base;
                backoff(ctx, &fast, params_.hbo_local.factor,
                        params_.hbo_local.cap, params_.jitter,
                        obs::BackoffClass::Local);
            } else {
                backoff(ctx, &b, 2, params_.hbo_remote_cap, params_.jitter,
                        obs::BackoffClass::Remote);
            }

            const std::uint64_t tmp = hbo_poll(ctx, word_, mine);
            if (tmp == kHboFree || tmp == mine) {
                if (angry)
                    obs::probe(ctx, obs::LockEvent::AngryExit, word_.token());
                open_gates(ctx, stopped, stopped_count);
                return tmp == kHboFree ? RemoteSpinOutcome::Acquired
                                       : RemoteSpinOutcome::MigratedHome;
            }

            // The lock is still in some remote node.
            ++get_angry;
            if (get_angry >= params_.get_angry_limit) {
                if (!angry)
                    obs::probe(ctx, obs::LockEvent::AngryEnter, word_.token(),
                               tmp - 1);
                angry = true;
                // Measure (2): stop the holding node's threads.
                const int holder = static_cast<int>(tmp) - 1;
                if (holder >= 0 && holder < static_cast<int>(gates_.size()) &&
                    !stopped[static_cast<std::size_t>(holder)]) {
                    stopped[static_cast<std::size_t>(holder)] = true;
                    ++stopped_count;
                    obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                               static_cast<std::uint64_t>(holder), 1);
                    ctx.store(gates_[static_cast<std::size_t>(holder)],
                              gate_token_);
                }
            }
        }
    }

    /** Release our own node's gate and every gate we closed in anger. */
    void
    open_gates(Ctx& ctx, const std::array<bool, kMaxNodes>& stopped,
               int stopped_count)
    {
        obs::probe(ctx, obs::LockEvent::GateOpen, word_.token(),
                   static_cast<std::uint64_t>(stopped_count) + 1);
        ctx.store(my_gate(ctx), HboGtLock<Ctx>::kGateDummyValue);
        if (stopped_count == 0)
            return;
        for (std::size_t n = 0; n < gates_.size(); ++n)
            if (stopped[n])
                ctx.store(gates_[n], HboGtLock<Ctx>::kGateDummyValue);
    }

    Ref word_;
    std::vector<Ref> gates_;
    std::uint64_t gate_token_ = 0;
    LockParams params_;
    AbandonCounters counters_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_HBO_GT_SD_HPP
