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

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token());
        const AdaptGear gear = current_gear(ctx);
        bool contended = false;
        switch (gear) {
          case AdaptGear::Tatas:
            contended = tatas_take_word(ctx) > 1;
            queued_ = false;
            break;
          case AdaptGear::Hbo:
            contended = hbo_acquire(ctx);
            queued_ = false;
            break;
          case AdaptGear::Queue:
            // Wait in the MCS queue, then take the word with an eager spin
            // (only the queue head and stale-gear stragglers compete).
            contended = queue_.acquire_reporting(ctx);
            (void)tatas_take_word(ctx);
            queued_ = true;
            break;
        }
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token());
        holder_policy(ctx, gear, contended);
    }

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
     * Timed acquisition: every gear's wait is deadline-bounded. The
     * abandonment paths feed AdaptivePolicy::on_abandon, so a storm of
     * timeouts demotes the lock to the queue gear (bounded handoff) even
     * when the holder is dead and no acquisition will ever run policy
     * again. Overshoot is bounded by one capped backoff plus one poll in
     * the word-take loops; the queue wait inherits McsLock's bound.
     */
    bool
    try_acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        const std::uint64_t deadline = detail::deadline_after(ctx, timeout_ns);
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        const AdaptGear gear = current_gear(ctx);
        switch (gear) {
          case AdaptGear::Tatas: {
            std::uint64_t rounds = 0;
            if (!timed_take_word(ctx, deadline, &rounds))
                return abandon_own(ctx, gear);
            queued_ = false;
            obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
            holder_policy(ctx, gear, rounds > 1);
            return true;
          }
          case AdaptGear::Hbo:
            if (!hbo_timed_acquire(ctx, deadline, gear))
                return false; // abandonment handled inside (gate re-open)
            queued_ = false;
            obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
            holder_policy(ctx, gear, true);
            return true;
          case AdaptGear::Queue: {
            const std::uint64_t now = detail::lock_clock_ns(ctx);
            const std::uint64_t budget = deadline > now ? deadline - now : 0;
            if (!queue_.try_acquire_for(ctx, budget)) {
                // The queue accounted its own abandonment (its counters,
                // its lock id); close this lock's attempt and run the
                // storm check, but do not double-count.
                obs::probe(ctx, obs::LockEvent::AbandonStart, word_.token());
                obs::probe(ctx, obs::LockEvent::AbandonDone, word_.token(),
                           static_cast<std::uint64_t>(
                               obs::AbandonOutcome::Clean));
                storm_check(ctx, gear);
                return false;
            }
            std::uint64_t rounds = 0;
            if (!timed_take_word(ctx, deadline, &rounds)) {
                // Queue headship obtained but the word never freed (e.g.
                // the holder died): hand the grant to our successor so the
                // queue keeps draining — bounded handoff, no wedge.
                queue_.release(ctx);
                return abandon_own(ctx, gear);
            }
            queued_ = true;
            obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
            holder_policy(ctx, gear, true);
            return true;
          }
        }
        return false; // unreachable
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
        const AbandonStats q = queue_.abandon_stats();
        s.abandons += q.abandons;
        s.parked += q.parked;
        s.grant_races += q.grant_races;
        s.reclaims += q.reclaims;
        s.rejoins += q.rejoins;
        s.unparks += q.unparks;
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

    /** TATAS_EXP on the word (node token in, so every gear can classify
     *  the holder). Returns the number of backoff rounds paid — the
     *  policy's contention-cost proxy. One round is the cheap, common case
     *  of colliding with a short holder; only waits that keep escalating
     *  the backoff (>1 round) should read as contention worth a gear. */
    std::uint64_t
    tatas_take_word(Ctx& ctx)
    {
        const std::uint64_t mine = hbo_node_token(ctx.node());
        std::uint64_t rounds = 0;
        if (ctx.cas(word_, kHboFree, mine) == kHboFree)
            return rounds;
        std::uint32_t b = params_.tatas.base;
        while (true) {
            ++rounds;
            backoff(ctx, &b, params_.tatas.factor, params_.tatas.cap,
                    params_.jitter, obs::BackoffClass::Generic);
            if (ctx.load(word_) != kHboFree)
                continue;
            if (ctx.cas(word_, kHboFree, mine) == kHboFree)
                return rounds;
        }
    }

    /** Deadline-bounded TATAS_EXP word take; reports backoff rounds like
     *  tatas_take_word. */
    bool
    timed_take_word(Ctx& ctx, std::uint64_t deadline, std::uint64_t* rounds)
    {
        const std::uint64_t mine = hbo_node_token(ctx.node());
        *rounds = 0;
        if (ctx.cas(word_, kHboFree, mine) == kHboFree)
            return true;
        std::uint32_t b = params_.tatas.base;
        while (true) {
            if (detail::lock_clock_ns(ctx) >= deadline)
                return false;
            ++*rounds;
            backoff(ctx, &b, params_.tatas.factor, params_.tatas.cap,
                    params_.jitter, obs::BackoffClass::Generic);
            if (ctx.load(word_) != kHboFree)
                continue;
            if (ctx.cas(word_, kHboFree, mine) == kHboFree)
                return true;
        }
    }

    /** HBO_GT arrival shaping (locks/hbo.hpp, inlined so the gears
     *  share one word). Returns whether the acquire was contended, using
     *  the same cost proxy as tatas_take_word: more than one backoff
     *  round. A single cheap round is what a *working* gear looks like
     *  under light load; reading it as contention would pin the lock in
     *  this gear long after the load that justified it has drained. */
    bool
    hbo_acquire(Ctx& ctx)
    {
        obs::probe_gate(ctx, my_gate(ctx), gate_token_, word_.token());
        ctx.spin_while_equal(my_gate(ctx), gate_token_);
        const std::uint64_t mine = hbo_node_token(ctx.node());
        std::uint64_t tmp = ctx.cas(word_, kHboFree, mine);
        if (tmp == kHboFree)
            return false;
        std::uint64_t rounds = 0;
        while (true) {
            if (tmp == mine) {
                // Local holder: small backoff, gate untouched.
                std::uint32_t b = params_.hbo_local.base;
                bool migrated = false;
                while (!migrated) {
                    ++rounds;
                    backoff(ctx, &b, params_.hbo_local.factor,
                            params_.hbo_local.cap, params_.jitter,
                            obs::BackoffClass::Local);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp == kHboFree)
                        return rounds > 1;
                    if (tmp != mine)
                        migrated = true;
                }
            } else {
                // Remote holder: close our node's gate, back off hard.
                std::uint32_t b = params_.hbo_remote_base;
                obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                           static_cast<std::uint64_t>(ctx.node()));
                ctx.store(my_gate(ctx), gate_token_);
                while (true) {
                    ++rounds;
                    backoff(ctx, &b, 2, params_.hbo_remote_cap, params_.jitter,
                            obs::BackoffClass::Remote);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp == kHboFree || tmp == mine) {
                        obs::probe(ctx, obs::LockEvent::GateOpen,
                                   word_.token(), 1);
                        ctx.store(my_gate(ctx), kGateDummyValue);
                        if (tmp == kHboFree)
                            return rounds > 1;
                        break;
                    }
                }
            }
            // Restart: re-gate, retry, re-dispatch.
            obs::probe_gate(ctx, my_gate(ctx), gate_token_, word_.token());
            ctx.spin_while_equal(my_gate(ctx), gate_token_);
            tmp = hbo_poll(ctx, word_, mine);
            if (tmp == kHboFree)
                return rounds > 1;
        }
    }

    /** Deadline-bounded HBO gear (the HMCS-T gate discipline of
     *  hbo.hpp): a thread that times out after closing its node's gate
     *  re-opens it before leaving, or the node wedges. */
    bool
    hbo_timed_acquire(Ctx& ctx, std::uint64_t deadline, AdaptGear gear)
    {
        const std::uint64_t mine = hbo_node_token(ctx.node());
        if (!gate_wait_until(ctx, deadline))
            return abandon_own(ctx, gear);
        std::uint64_t tmp = ctx.cas(word_, kHboFree, mine);
        while (tmp != kHboFree) {
            if (tmp == mine) {
                std::uint32_t b = params_.hbo_local.base;
                bool migrated = false;
                while (!migrated && tmp != kHboFree) {
                    if (detail::lock_clock_ns(ctx) >= deadline)
                        return abandon_own(ctx, gear);
                    backoff(ctx, &b, params_.hbo_local.factor,
                            params_.hbo_local.cap, params_.jitter,
                            obs::BackoffClass::Local);
                    tmp = hbo_poll(ctx, word_, mine);
                    if (tmp != kHboFree && tmp != mine)
                        migrated = true;
                }
            } else {
                std::uint32_t b = params_.hbo_remote_base;
                obs::probe(ctx, obs::LockEvent::GatePublish, word_.token(),
                           static_cast<std::uint64_t>(ctx.node()));
                ctx.store(my_gate(ctx), gate_token_);
                while (true) {
                    if (detail::lock_clock_ns(ctx) >= deadline)
                        return abandon_reopening_gate(ctx, gear);
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
            if (!gate_wait_until(ctx, deadline))
                return abandon_own(ctx, gear);
            tmp = hbo_poll(ctx, word_, mine);
        }
        return true;
    }

    /** Deadline-bounded entry/restart gate wait (HBO gear). */
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

    /** Timed out with nothing left behind: account, probe, storm-check. */
    bool
    abandon_own(Ctx& ctx, AdaptGear gear)
    {
        counters_.on_abandon();
        obs::probe(ctx, obs::LockEvent::AbandonStart, word_.token());
        obs::probe(ctx, obs::LockEvent::AbandonDone, word_.token(),
                   static_cast<std::uint64_t>(obs::AbandonOutcome::Clean));
        storm_check(ctx, gear);
        return false;
    }

    /** Timed out while our gate closure is published: re-open it first. */
    bool
    abandon_reopening_gate(Ctx& ctx, AdaptGear gear)
    {
        counters_.on_abandon();
        obs::probe(ctx, obs::LockEvent::AbandonStart, word_.token());
        obs::probe(ctx, obs::LockEvent::GateOpen, word_.token(), 1);
        ctx.store(my_gate(ctx), kGateDummyValue);
        obs::probe(ctx, obs::LockEvent::AbandonDone, word_.token(),
                   static_cast<std::uint64_t>(obs::AbandonOutcome::Clean));
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
    McsLock<Ctx> queue_;
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
