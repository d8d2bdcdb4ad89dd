/**
 * @file
 * RH lock: the authors' earlier proof-of-concept NUCA-aware lock for two
 * nodes (Radović & Hagersten, SC 2002), reconstructed from this paper's
 * section 3 description — see DESIGN.md section 4 for the reconstruction
 * notes and the invariant it maintains.
 *
 * Each node holds one copy of the lock word (homed in that node). Word
 * values: FREE (globally free), L_FREE (freed with local preference),
 * REMOTE (the lock currently lives in the other node), or a thread id.
 * Invariant: exactly one of the two words differs from REMOTE.
 *
 * The lock is deliberately starvation-vulnerable (as the paper notes);
 * a periodic global release (FREE every Nth) is the only relief valve.
 */
#ifndef NUCALOCK_LOCKS_RH_HPP
#define NUCALOCK_LOCKS_RH_HPP

#include <array>

#include "common/logging.hpp"
#include "locks/backoff.hpp"
#include "locks/context.hpp"
#include "locks/params.hpp"
#include "obs/probe.hpp"

namespace nucalock::locks {

template <LockContext Ctx>
class RhLock
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    static constexpr const char* kName = "RH";

    explicit RhLock(Machine& machine, const LockParams& params = LockParams{},
                    int home_node = 0)
        : params_(params)
    {
        const int nodes = machine.topology().num_nodes();
        NUCA_ASSERT(nodes <= 2, "the RH lock supports at most two nodes, got ",
                    nodes);
        two_nodes_ = nodes == 2;
        flag_[0] = machine.alloc(kFreeValue, home_node);
        if (two_nodes_)
            flag_[1] = machine.alloc(kRemote, 1);
    }

    void
    acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, flag_[0].token());
        const int n = my_word(ctx);
        const Ref word = flag_[static_cast<std::size_t>(n)];
        const std::uint64_t me = tid_value(ctx);
        std::uint32_t b = params_.hbo_local.base;

        std::uint64_t v = ctx.load(word);
        while (true) {
            if (v == kFreeValue || v == kLocalFree) {
                if (ctx.cas(word, v, me) == v) {
                    obs::probe(ctx, obs::LockEvent::Acquired, flag_[0].token());
                    return; // lock obtained through the local word
                }
                v = ctx.load(word); // raced; re-read immediately
                continue;
            }
            if (v == kRemote && two_nodes_) {
                if (ctx.cas(word, kRemote, me) == kRemote) {
                    remote_spin(ctx, 1 - n); // we are the node winner
                    obs::probe(ctx, obs::LockEvent::Acquired, flag_[0].token());
                    return;
                }
                v = ctx.load(word);
                continue;
            }
            // Held by (or promised to) a local thread: poll with backoff.
            v = backoff_poll(ctx, word, v, &b, params_.hbo_local.factor,
                             params_.hbo_local.cap, params_.jitter,
                             obs::BackoffClass::Local)
                    .value;
        }
    }

    /**
     * Non-blocking try through the local word only: succeed when it reads
     * FREE or L_FREE and the cas wins. A REMOTE word means the lock lives
     * in the other node; claiming it requires the blocking node-winner
     * migration (remote_spin), so the try fails instead — the try path is
     * deliberately asymmetric, it never starts a cross-node migration.
     */
    bool
    try_acquire(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::AcquireAttempt, flag_[0].token(), 1);
        const int n = my_word(ctx);
        const std::uint64_t v = ctx.load(flag_[static_cast<std::size_t>(n)]);
        if (v != kFreeValue && v != kLocalFree)
            return false;
        if (ctx.cas(flag_[static_cast<std::size_t>(n)], v, tid_value(ctx)) != v)
            return false;
        obs::probe(ctx, obs::LockEvent::Acquired, flag_[0].token(), 1);
        return true;
    }

    void
    release(Ctx& ctx)
    {
        obs::probe(ctx, obs::LockEvent::Released, flag_[0].token());
        const int n = my_word(ctx);
        ++release_count_;
        const bool global =
            !two_nodes_ ||
            (params_.rh_global_release_period != 0 &&
             release_count_ % params_.rh_global_release_period == 0);
        ctx.store(flag_[static_cast<std::size_t>(n)],
                  global ? kFreeValue : kLocalFree);
    }

    /** Identity for probes and traffic attribution: the primary word's
     *  token, the id sim/traffic.hpp keys this lock's transactions by. */
    std::uint64_t lock_id() const { return flag_[0].token(); }

  private:
    static constexpr std::uint64_t kFreeValue = 0;
    static constexpr std::uint64_t kLocalFree = 1;
    static constexpr std::uint64_t kRemote = 2;

    static std::uint64_t
    tid_value(Ctx& ctx)
    {
        return static_cast<std::uint64_t>(ctx.thread_id()) + 3;
    }

    int
    my_word(Ctx& ctx) const
    {
        return two_nodes_ ? ctx.node() : 0;
    }

    /**
     * Node-winner loop: our own word already carries our id; spin on the
     * other node's word with a large backoff until we can move the lock
     * over (marking the other word REMOTE). A holder's id is polled until
     * it changes; each L_FREE poll is one round, so that every L_FREE
     * read counts toward the patience.
     */
    void
    remote_spin(Ctx& ctx, int other)
    {
        const Ref word = flag_[static_cast<std::size_t>(other)];
        std::uint32_t b = params_.rh_remote_base;
        std::uint32_t lfree_seen = 0;
        // Read first so a hopeless cas does not bounce the line.
        std::uint64_t w = ctx.load(word);
        while (true) {
            if (w == kFreeValue) {
                if (ctx.cas(word, kFreeValue, kRemote) == kFreeValue)
                    return; // global release claimed
                w = ctx.load(word);
                continue;
            }
            const bool lfree = w == kLocalFree;
            if (lfree) {
                // The other node prefers a neighbor; steal only after
                // showing some patience (this is where RH trades fairness
                // for locality).
                if (++lfree_seen > params_.rh_patience &&
                    ctx.cas(word, kLocalFree, kRemote) == kLocalFree)
                    return;
            } else {
                lfree_seen = 0;
            }
            w = backoff_poll(ctx, word, w, &b, 2, params_.rh_remote_cap,
                             params_.jitter, obs::BackoffClass::Remote,
                             lfree ? 1 : kUnlimitedPolls)
                    .value;
        }
    }

    std::array<Ref, 2> flag_{};
    LockParams params_;
    bool two_nodes_ = false;
    // Guarded by the lock itself (only the holder releases).
    std::uint64_t release_count_ = 0;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_RH_HPP
