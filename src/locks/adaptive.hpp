/**
 * @file
 * ADAPTIVE: an online-adaptive lock that morphs between three gears —
 * TATAS_EXP (low contention), HBO_GT arrival shaping (NUCA-contended,
 * link-saturated) and a timed MCS queue (fairness / degraded mode) —
 * driven by the contention observatory's signals (locks/adaptive_policy.hpp).
 *
 * Composition is the always-safe pattern from reactive.hpp, generalized:
 * mutual exclusion is *always* provided by the one lock word (kHboFree
 * when free, otherwise hbo_node_token(node), so every gear can classify
 * local vs remote holders). The gear word merely routes arrivals — through
 * bare TATAS, through the node gates, or through the MCS queue — so a
 * stale gear sample costs throughput, never safety. Gear switches are a
 * single CAS on the gear word: racing proposals are harmless (one wins,
 * losers drop their order), and any thread may demote — required, because
 * the timeout storms that demand degradation are exactly the runs in which
 * there may be no live holder to run policy (FaultKind::HolderDeath).
 *
 * Graceful degradation ladder (docs/adaptive.md):
 *   any gear --timeout storm--> Queue (bounded FIFO handoff; timed waiters
 *   abandon cleanly and releasers hand over past parked nodes), then
 *   --quiet_epochs quiet epochs--> Tatas/Hbo per the traffic shape.
 *
 * Every switch emits obs::LockEvent::AdaptSwitch{from,to,reason}; the
 * policy never reads probe state, so the probe-independence invariant
 * (bit-identical runs with and without sinks) holds.
 */
#ifndef NUCALOCK_LOCKS_ADAPTIVE_HPP
#define NUCALOCK_LOCKS_ADAPTIVE_HPP

#include <algorithm>
#include <vector>

#include "locks/adaptive_policy.hpp"
#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/hbo.hpp"
#include "locks/mcs.hpp"
#include "locks/params.hpp"
#include "locks/timed.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class AdaptiveLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "ADAPTIVE";

    explicit AdaptiveLock(Machine& machine,
                          const LockParams& params = LockParams{},
                          int home_node = 0)
        : word_(machine.alloc(kHboFree, home_node)),
          gear_(machine.alloc(gear_word(AdaptGear::Tatas), home_node)),
          queue_(machine, params, home_node), params_(params),
          policy_(params.adaptive)
    {
        const int nodes = machine.topology().num_nodes();
        gates_.reserve(static_cast<std::size_t>(nodes));
        for (int n = 0; n < nodes; ++n)
            gates_.push_back(machine.node_gate(n));
        gate_token_ = word_.token();
    }

    void acquire(Ctx& ctx) { acquire_until<false>(ctx, kNoDeadline); }

    bool
    try_acquire(Ctx& ctx)
    {
        // One probe arrival regardless of gear; gears shape waiting, and a
        // try never waits. No policy sample either — adaptation is driven
        // by the paths that can actually observe contention cost.
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        if (ctx.cas(word_, kHboFree, hbo_node_token(ctx.node())) != kHboFree)
            return false;
        queued_ = false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

    /**
     * Timed acquisition: the acquire path with every gear's wait ending
     * at the deadline. The abandonment paths feed
     * AdaptivePolicy::on_abandon, so a storm of timeouts demotes the lock
     * to the queue gear (bounded handoff) even when the holder is dead and
     * no acquisition will ever run policy again. Overshoot is bounded by
     * one capped backoff plus one poll in the word-take loops; the queue
     * wait inherits McsLock's bound.
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        return acquire_until<true>(ctx, detail::deadline_after(ctx, timeout_ns));
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, word_.token());
        const bool was_queued = queued_;
        ctx.store(word_, kHboFree);
        if (was_queued)
            queue_.release(ctx);
    }

    /** Host-side abandonment accounting: this lock's own timeouts plus the
     *  embedded queue's (see locks/timed.hpp). */
    AbandonStats
    abandon_stats() const
    {
        AbandonStats s = counters_.snapshot();
        s += queue_.abandon_stats();
        return s;
    }

    /** The gear arrivals are currently routed through (a real load). */
    AdaptGear
    current_gear(Ctx& ctx)
    {
        const std::uint64_t g = ctx.load(gear_);
        return g >= static_cast<std::uint64_t>(kAdaptGearCount)
                   ? AdaptGear::Queue
                   : static_cast<AdaptGear>(g);
    }

    const AdaptivePolicy& policy() const { return policy_; }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return word_.token(); }

  private:
    using Queue = McsLock<Ctx>;

    static std::uint64_t
    gear_word(AdaptGear gear)
    {
        return static_cast<std::uint64_t>(gear);
    }

    Ref
    my_gate(Ctx& ctx) const
    {
        return gates_[static_cast<std::size_t>(ctx.node())];
    }

    /**
     * The one acquire path: acquire() runs it without a deadline and
     * try_acquire_for() with one (@p kTimed). A timed acquire in the HBO
     * or queue gear reports itself contended to the policy.
     */
    template <bool kTimed>
    bool
    acquire_until(Ctx& ctx, std::uint64_t deadline)
    {
        const std::uint64_t timed = kTimed ? 1 : 0;
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), timed);
        const AdaptGear gear = current_gear(ctx);
        std::uint64_t rounds = 0;
        bool contended = false;
        switch (gear) {
          case AdaptGear::Tatas:
            if (!take_word(ctx, deadline, &rounds))
                return abandon_own(ctx, gear);
            contended = rounds > 1;
            break;
          case AdaptGear::Hbo:
            if (!hbo_acquire<kTimed>(ctx, deadline, gear, &rounds))
                return false; // abandonment handled inside (gate re-open)
            contended = kTimed || rounds > 1;
            break;
          case AdaptGear::Queue: {
            // Wait in the MCS queue, then take the word with an eager spin
            // (only the queue head and stale-gear stragglers compete).
            const auto queued =
                queue_.template acquire_until<kTimed>(ctx, deadline);
            if (queued == Queue::Outcome::TimedOut) {
                // The queue accounted its own abandonment (its counters,
                // its lock id); close this lock's attempt and run the
                // storm check, but do not double-count.
                abandon_clean(ctx, nullptr, word_.token());
                storm_check(ctx, gear);
                return false;
            }
            if (!take_word(ctx, deadline, &rounds)) {
                // Queue headship obtained but the word never freed (e.g.
                // the holder died): hand the grant to our successor so the
                // queue keeps draining — bounded handoff, no wedge.
                queue_.release(ctx);
                return abandon_own(ctx, gear);
            }
            contended = kTimed || queued == Queue::Outcome::Waited;
            break;
          }
        }
        queued_ = gear == AdaptGear::Queue;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), timed);
        holder_policy(ctx, gear, contended);
        return true;
    }

    /** TATAS_EXP on the word until @p deadline (node token in, so every
     *  gear can classify the holder). Adds the backoff rounds paid to
     *  *@p rounds — the policy's contention-cost proxy. One round is the
     *  cheap, common case of colliding with a short holder; only waits
     *  that keep escalating the backoff (>1 round) should read as
     *  contention worth a gear. */
    bool
    take_word(Ctx& ctx, std::uint64_t deadline, std::uint64_t* rounds)
    {
        const std::uint64_t mine = hbo_node_token(ctx.node());
        std::uint32_t b = params_.tatas.base;
        std::uint64_t v = ctx.cas(word_, kHboFree, mine);
        while (v != kHboFree) {
            // Poll while the same holder's token stays in the word.
            const PollResult poll =
                backoff_poll(ctx, word_, v, &b, params_.tatas.factor,
                             params_.tatas.cap, params_.jitter,
                             obs::BackoffClass::Generic, kUnlimitedPolls,
                             deadline);
            *rounds += poll.polls;
            if (poll.timed_out)
                return false;
            v = hbo_claim(ctx, word_, poll.value, mine);
        }
        return true;
    }

    /**
     * HBO_GT arrival shaping (locks/hbo.hpp, inlined so the gears share
     * one word), adding its backoff rounds to *@p rounds like take_word.
     * A single cheap round is what a *working* gear looks like under light
     * load; reading it as contention would pin the lock in this gear long
     * after the load that justified it has drained. Unlike HBO_GT it skips
     * Figure 1's backoff after the lock leaves the node. A thread that
     * times out after closing its node's gate re-opens it before leaving
     * (the HMCS-T gate discipline), or the node wedges.
     * @return false when the deadline passed, with the abandonment done.
     */
    template <bool kTimed>
    bool
    hbo_acquire(Ctx& ctx, std::uint64_t deadline, AdaptGear gear,
                std::uint64_t* rounds)
    {
        if constexpr (!kTimed)
            deadline = kNoDeadline; // the polls' deadline checks fold away
        const std::uint64_t mine = hbo_node_token(ctx.node());
        if (!gate_wait<kTimed>(ctx, deadline))
            return abandon_own(ctx, gear);
        std::uint64_t tmp = ctx.cas(word_, kHboFree, mine);
        while (tmp != kHboFree) {
            if (tmp == mine) {
                // Local holder: small backoff, gate untouched.
                std::uint32_t b = params_.hbo_local.base;
                do {
                    const PollResult poll = backoff_poll(
                        ctx, word_, mine, &b, params_.hbo_local.factor,
                        params_.hbo_local.cap, params_.jitter,
                        obs::BackoffClass::Local, kUnlimitedPolls, deadline);
                    *rounds += poll.polls;
                    if (poll.timed_out)
                        return abandon_own(ctx, gear);
                    tmp = hbo_claim(ctx, word_, poll.value, mine);
                } while (tmp == mine);
            } else {
                // Remote holder: close our node's gate, back off hard.
                std::uint32_t b = params_.hbo_remote_base;
                obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                           static_cast<std::uint64_t>(ctx.node()));
                ctx.store(my_gate(ctx), gate_token_);
                do {
                    const PollResult poll = backoff_poll(
                        ctx, word_, tmp, &b, 2, params_.hbo_remote_cap,
                        params_.jitter, obs::BackoffClass::Remote,
                        kUnlimitedPolls, deadline);
                    *rounds += poll.polls;
                    if (poll.timed_out)
                        return abandon_own(ctx, gear, [&] { open_gate(ctx); });
                    tmp = hbo_claim(ctx, word_, poll.value, mine);
                } while (tmp != kHboFree && tmp != mine);
                open_gate(ctx);
            }
            if (tmp == kHboFree)
                break;
            // Restart: re-gate, retry, re-dispatch.
            if (!gate_wait<kTimed>(ctx, deadline))
                return abandon_own(ctx, gear);
            tmp = hbo_poll(ctx, word_, mine);
        }
        return true;
    }

    /** Figure 1 line 5 (HBO gear): wait while our node's gate is closed. */
    template <bool kTimed>
    bool
    gate_wait(Ctx& ctx, std::uint64_t deadline)
    {
        obs::probe_gate(ctx, my_gate(ctx), gate_token_, word_.token());
        return wait_while_equal<kTimed>(ctx, my_gate(ctx), gate_token_,
                                        deadline);
    }

    /** Re-open our node's gate (HBO gear). */
    void
    open_gate(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::GateOpen, word_.token(), 1);
        ctx.store(my_gate(ctx), kGateDummyValue);
    }

    /** Timed out with nothing left behind once @p undo has run: account,
     *  probe, storm-check. */
    template <typename Undo = void (*)()>
    bool
    abandon_own(Ctx& ctx, AdaptGear gear, Undo undo = [] {})
    {
        abandon_clean(ctx, &counters_, word_.token(), undo);
        storm_check(ctx, gear);
        return false;
    }

    /** Feed the policy's storm detector; demote on its order. Runs on the
     *  abandoning (non-holder) thread by design — see file comment. */
    void
    storm_check(Ctx& ctx, AdaptGear gear)
    {
        if (const auto decision = policy_.on_abandon(gear))
            apply_switch(ctx, gear, *decision);
    }

    /** Holder-side policy sample; runs while still holding the lock, so
     *  the plain host fields it touches are ordered by the lock itself. */
    void
    holder_policy(Ctx& ctx, AdaptGear gear, bool contended)
    {
        const int node = ctx.node();
        const bool remote = last_holder_node_ >= 0 &&
                            last_holder_node_ != node;
        last_holder_node_ = node;
        const auto decision =
            policy_.on_acquire(gear, contended, remote, link_util_pct(ctx));
        if (decision)
            apply_switch(ctx, gear, *decision);
    }

    /** One CAS applies a switch; losers drop their order (the winner's
     *  sample was just as fresh). The winner reports back to the policy
     *  and emits the AdaptSwitch probe. */
    void
    apply_switch(Ctx& ctx, AdaptGear from, const AdaptDecision& decision)
    {
        if (ctx.cas(gear_, gear_word(from), gear_word(decision.to)) !=
            gear_word(from))
            return;
        policy_.on_switch(decision.to, decision.reason);
        obs::probe(ctx, obs::LockEvent::AdaptSwitch, word_.token(),
                   gear_word(from) |
                       (gear_word(decision.to) << 8),
                   static_cast<std::uint64_t>(decision.reason));
    }

    /**
     * Global-link utilisation percent over the window since the previous
     * holder sampled, or -1 when the backend cannot say (native). The sim
     * accessor is O(1) pure accounting (sim/resource.hpp) and reads no
     * probe state, so sampling is deterministic and probe-independent.
     * Host fields only — holder-serialized like the rest of the policy.
     */
    int
    link_util_pct(Ctx& ctx)
    {
        if constexpr (requires {
                          ctx.machine().memory().global_link().busy_time();
                          ctx.now();
                      }) {
            const auto busy = static_cast<std::uint64_t>(
                ctx.machine().memory().global_link().busy_time());
            const auto now = static_cast<std::uint64_t>(ctx.now());
            const std::uint64_t dbusy = busy - link_busy_last_;
            const std::uint64_t dt = now - link_now_last_;
            link_busy_last_ = busy;
            link_now_last_ = now;
            if (dt == 0)
                return -1;
            return static_cast<int>(
                std::min<std::uint64_t>(100, dbusy * 100 / dt));
        } else {
            (void)ctx;
            return -1;
        }
    }

    Ref word_;
    Ref gear_;
    std::vector<Ref> gates_;
    std::uint64_t gate_token_ = 0;
    Queue queue_;
    LockParams params_;
    AdaptivePolicy policy_;
    AbandonCounters counters_;
    // Holder-only state, protected by the lock itself (reactive.hpp's
    // convention): which path release() must unwind, handover locality,
    // and the link-utilisation sampling window.
    bool queued_ = false;
    int last_holder_node_ = -1;
    std::uint64_t link_busy_last_ = 0;
    std::uint64_t link_now_last_ = 0;

  public:
    /** The paper's "dummy value": the gate is open (HBO gear). */
    static constexpr std::uint64_t kGateDummyValue = 0;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_ADAPTIVE_HPP
