/**
 * @file
 * HBO_GT: HBO with global traffic throttling (paper section 4.2, the
 * emphasized lines of Figure 1).
 *
 * Each node has one `is_spinning` gate word. A thread that must spin on a
 * lock held in a *remote* node first publishes the lock's identity in its
 * own node's gate; other threads in that node poll the gate before even
 * attempting a cas, so normally only one thread per node generates
 * cross-node lock traffic. The winner clears the gate (the paper's "dummy
 * value") as soon as the lock arrives.
 */
#ifndef NUCALOCK_LOCKS_HBO_GT_HPP
#define NUCALOCK_LOCKS_HBO_GT_HPP

#include <vector>

#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/hbo.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class HboGtLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "HBO_GT";

    explicit HboGtLock(Machine& machine, const LockParams& params = LockParams{},
                       int home_node = 0)
        : word_(machine.alloc(kHboFree, home_node)), params_(params)
    {
        const int nodes = machine.topology().num_nodes();
        gates_.reserve(static_cast<std::size_t>(nodes));
        for (int n = 0; n < nodes; ++n)
            gates_.push_back(machine.node_gate(n));
        gate_token_ = word_.token();
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token());
        // Figure 1 line 5: wait while our node's gate names this lock.
        obs::probe_gate(ctx, my_gate(ctx), gate_token_, word_.token());
        ctx.spin_while_equal(my_gate(ctx), gate_token_);
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
        if (ctx.load(my_gate(ctx)) == gate_token_) {
            obs::probe(ctx, obs::LockEvent::GateBlocked, word_.token());
            return false;
        }
        if (ctx.cas(word_, kHboFree, hbo_node_token(ctx.node())) != kHboFree)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    /**
     * Timed acquisition (the HMCS-T discipline applied to gates): every
     * wait — the entry gate, both slowpath backoff loops, the restart
     * gate — is deadline-bounded, and a thread that times out after
     * *closing* its node's gate must re-open it before leaving or the
     * node wedges behind a gate nobody will clear (exactly the window
     * the `spinner` fault preset targets). Timeouts in the local branch
     * or while gate-blocked have nothing to undo: a blocked gate was
     * closed by some other, still-active waiter of this node.
     * Overshoot is bounded by one backoff period (remote cap at worst)
     * plus one poll.
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
                // Local holder: small backoff, gate untouched.
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
                // Remote holder: close the gate — and own the obligation
                // to re-open it on every exit from this loop.
                std::uint32_t b = params_.hbo_remote_base;
                obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                           static_cast<std::uint64_t>(ctx.node()));
                ctx.store(my_gate(ctx), gate_token_);
                while (true) {
                    if (detail::lock_clock_ns(ctx) >= deadline)
                        return abandon_reopening_gate(ctx);
                    backoff(ctx, &b, 2, params_.hbo_remote_cap, params_.jitter,
                            obs::BackoffClass::Remote);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp == kHboFree || tmp == mine) {
                        obs::probe(ctx, obs::LockEvent::GateOpen,
                                   word_.token(), 1);
                        ctx.store(my_gate(ctx), kGateDummyValue);
                        break;
                    }
                }
            }
            if (tmp == kHboFree)
                break;
            // Restart: re-gate (bounded), retry, re-dispatch.
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

    /** Timed-out while our gate closure is published: re-open it. */
    bool
    abandon_reopening_gate(Ctx& ctx)
    {
        counters_.on_abandon();
        obs::probe(ctx, obs::LockEvent::AbandonStart, word_.token());
        obs::probe(ctx, obs::LockEvent::GateOpen, word_.token(), 1);
        ctx.store(my_gate(ctx), kGateDummyValue);
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
                // Local holder: small backoff (Figure 1 lines 23-35).
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
                // Remote holder: publish the gate and back off hard
                // (Figure 1 lines 37-52).
                std::uint32_t b = params_.hbo_remote_base;
                obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                           static_cast<std::uint64_t>(ctx.node()));
                ctx.store(my_gate(ctx), gate_token_);
                while (true) {
                    tmp = backoff_poll(ctx, word, tmp, &b, 2,
                                       params_.hbo_remote_cap, params_.jitter,
                                       obs::BackoffClass::Remote)
                              .value;
                    tmp = hbo_claim(ctx, word, tmp, mine);
                    if (tmp == kHboFree) {
                        obs::probe(ctx, obs::LockEvent::GateOpen, word_.token(), 1);
                        ctx.store(my_gate(ctx), kGateDummyValue);
                        return;
                    }
                    if (tmp == mine) {
                        obs::probe(ctx, obs::LockEvent::GateOpen, word_.token(), 1);
                        ctx.store(my_gate(ctx), kGateDummyValue);
                        break;
                    }
                }
            }
            // Figure 1 lines 55-60 ("restart"): re-gate, retry, re-dispatch.
            obs::probe_gate(ctx, my_gate(ctx), gate_token_, word_.token());
            ctx.spin_while_equal(my_gate(ctx), gate_token_);
            tmp = hbo_poll(ctx, word_, mine);
            if (tmp == kHboFree)
                return;
        }
    }

    Ref word_;
    std::vector<Ref> gates_;
    std::uint64_t gate_token_ = 0;
    LockParams params_;
    AbandonCounters counters_;

  public:
    /** The paper's "dummy value": the gate is open. */
    static constexpr std::uint64_t kGateDummyValue = 0;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_HBO_GT_HPP
