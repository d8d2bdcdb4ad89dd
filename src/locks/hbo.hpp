/**
 * @file
 * HBO: the paper's hierarchical backoff lock (section 4.1, Figure 1 with
 * the emphasized HBO_GT lines omitted).
 *
 * One cas on one word acquires a free lock; the winning thread's *node id*
 * is what gets cas-ed in, so a failed cas tells the loser where the lock
 * lives: same node => small backoff, remote node => large backoff. That
 * asymmetry is the entire mechanism — threads in the holder's node win the
 * next handover with high probability, keeping the lock word and the
 * critical-section data in the node.
 *
 * Values: kFree (0) when free, otherwise node id + 1.
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

#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"

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

template <LockContext Ctx>
class HboLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "HBO";

    explicit HboLock(Machine& machine, const LockParams& params = LockParams{},
                     int home_node = 0)
        : word_(machine.alloc(kHboFree, home_node)), params_(params)
    {
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token());
        // Figure 1 lines 6-9: the uncontested path is one cas.
        const std::uint64_t tmp = ctx.cas(word_, kHboFree, hbo_node_token(ctx.node()));
        if (tmp != kHboFree)
            acquire_slowpath(ctx, tmp);
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token());
    }

    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, word_.token(), 1);
        if (ctx.cas(word_, kHboFree, hbo_node_token(ctx.node())) != kHboFree)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, word_.token(), 1);
        return true;
    }

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
    void
    acquire_slowpath(Ctx& ctx, std::uint64_t tmp)
    {
        const std::uint64_t mine = hbo_node_token(ctx.node());
        // Held in a register across the polls, for their claiming cas.
        const Ref word = word_;
        while (true) {
            if (tmp == mine) {
                // Lock is in our node: spin politely with the small backoff.
                std::uint32_t b = params_.hbo_local.base;
                while (true) {
                    // Poll while it stays here; cas once it reads free.
                    tmp = backoff_poll(ctx, word, mine, &b,
                                       params_.hbo_local.factor,
                                       params_.hbo_local.cap, params_.jitter,
                                       obs::BackoffClass::Local)
                              .value;
                    tmp = hbo_claim(ctx, word, tmp, mine);
                    if (tmp == kHboFree)
                        return;
                    if (tmp != mine) {
                        // The lock migrated away; re-dispatch.
                        backoff(ctx, &b, params_.hbo_local.factor,
                                params_.hbo_local.cap, params_.jitter,
                                obs::BackoffClass::Local);
                        break;
                    }
                }
            } else {
                // Lock is in a remote node: back off hard.
                std::uint32_t b = params_.hbo_remote_base;
                while (true) {
                    // Poll while the same node holds it.
                    tmp = backoff_poll(ctx, word, tmp, &b, 2,
                                       params_.hbo_remote_cap, params_.jitter,
                                       obs::BackoffClass::Remote)
                              .value;
                    tmp = hbo_claim(ctx, word, tmp, mine);
                    if (tmp == kHboFree)
                        return;
                    if (tmp == mine)
                        break; // it came to us; spin locally now
                }
            }
        }
    }

    Ref word_;
    LockParams params_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_HBO_HPP
