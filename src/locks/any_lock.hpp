/**
 * @file
 * Runtime-selectable locks: a LockKind enumeration covering every algorithm
 * in the library, and a type-erased AnyLock wrapper so the benchmark
 * harness can iterate over lock implementations.
 */
#ifndef NUCALOCK_LOCKS_ANY_LOCK_HPP
#define NUCALOCK_LOCKS_ANY_LOCK_HPP

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hpp"
#include "locks/adaptive.hpp"
#include "locks/anderson.hpp"
#include "locks/clh.hpp"
#include "locks/clh_try.hpp"
#include "locks/cohort.hpp"
#include "locks/context.hpp"
#include "locks/hbo.hpp"
#include "locks/mcs.hpp"
#include "locks/params.hpp"
#include "locks/reactive.hpp"
#include "locks/rh.hpp"
#include "locks/tatas.hpp"
#include "locks/tatas_exp.hpp"
#include "locks/ticket.hpp"
#include "locks/timed.hpp"

namespace nucalock::locks {

/** Every lock algorithm in the library. */
enum class LockKind
{
    Tatas,
    TatasExp,
    Ticket,
    Mcs,
    Clh,
    Rh,
    Hbo,
    HboGt,
    HboGtSd,
    HboHier,
    Reactive,
    Anderson,
    Cohort,
    ClhTry,
    Adaptive,
};

/** Display name matching the paper's tables (e.g. "HBO_GT_SD"). */
inline const char*
lock_name(LockKind kind)
{
    switch (kind) {
      case LockKind::Tatas: return "TATAS";
      case LockKind::TatasExp: return "TATAS_EXP";
      case LockKind::Ticket: return "TICKET";
      case LockKind::Mcs: return "MCS";
      case LockKind::Clh: return "CLH";
      case LockKind::Rh: return "RH";
      case LockKind::Hbo: return "HBO";
      case LockKind::HboGt: return "HBO_GT";
      case LockKind::HboGtSd: return "HBO_GT_SD";
      case LockKind::HboHier: return "HBO_HIER";
      case LockKind::Reactive: return "REACTIVE";
      case LockKind::Anderson: return "ANDERSON";
      case LockKind::Cohort: return "COHORT";
      case LockKind::ClhTry: return "CLH_TRY";
      case LockKind::Adaptive: return "ADAPTIVE";
    }
    NUCA_PANIC("unknown LockKind");
}

/** Parse a lock name (as printed by lock_name); case-sensitive. */
inline std::optional<LockKind>
parse_lock_name(std::string_view name)
{
    for (LockKind kind :
         {LockKind::Tatas, LockKind::TatasExp, LockKind::Ticket, LockKind::Mcs,
          LockKind::Clh, LockKind::Rh, LockKind::Hbo, LockKind::HboGt,
          LockKind::HboGtSd, LockKind::HboHier, LockKind::Reactive,
          LockKind::Anderson, LockKind::Cohort, LockKind::ClhTry,
          LockKind::Adaptive}) {
        if (name == lock_name(kind))
            return kind;
    }
    return std::nullopt;
}

/** The paper's eight algorithms, in its table order. */
inline std::vector<LockKind>
paper_lock_kinds()
{
    return {LockKind::Tatas, LockKind::TatasExp, LockKind::Mcs, LockKind::Clh,
            LockKind::Rh,    LockKind::Hbo,      LockKind::HboGt,
            LockKind::HboGtSd};
}

/** All algorithms, including the extra baselines and extensions. */
inline std::vector<LockKind>
all_lock_kinds()
{
    return {LockKind::Tatas,    LockKind::TatasExp, LockKind::Ticket,
            LockKind::Anderson, LockKind::Mcs,      LockKind::Clh,
            LockKind::Rh,       LockKind::Hbo,      LockKind::HboGt,
            LockKind::HboGtSd,  LockKind::HboHier,  LockKind::Reactive,
            LockKind::Cohort,   LockKind::ClhTry,   LockKind::Adaptive};
}

/** True for the NUCA-aware algorithms (RH and the HBO family). */
inline bool
is_nuca_aware(LockKind kind)
{
    return kind == LockKind::Rh || kind == LockKind::Hbo ||
           kind == LockKind::HboGt || kind == LockKind::HboGtSd ||
           kind == LockKind::HboHier || kind == LockKind::Cohort ||
           kind == LockKind::Adaptive;
}

/**
 * True when the algorithm implements native timed abandonment
 * (try_acquire_for) rather than relying on the generic try/backoff
 * fallback of locks::acquire_for. See docs/robustness.md for what each
 * family's abandonment leaves behind and who cleans it up.
 */
inline bool
lock_supports_native_timeout(LockKind kind)
{
    switch (kind) {
      case LockKind::Mcs:
      case LockKind::HboGt:
      case LockKind::HboGtSd:
      case LockKind::HboHier:
      case LockKind::Cohort:
      case LockKind::ClhTry:
      case LockKind::Reactive:
      case LockKind::Adaptive:
        return true;
      case LockKind::Tatas:
      case LockKind::TatasExp:
      case LockKind::Ticket:
      case LockKind::Clh:
      case LockKind::Rh:
      case LockKind::Hbo:
      case LockKind::Anderson:
        return false;
    }
    NUCA_PANIC("unknown LockKind");
}

/**
 * Type-erased lock over a given context type. Virtual dispatch per
 * operation — fine for the harness; performance-sensitive users
 * instantiate the concrete templates directly.
 */
template <LockContext Ctx>
class AnyLock
{
  public:
    using Machine = typename Ctx::Machine;

    AnyLock(Machine& machine, LockKind kind,
            const LockParams& params = LockParams{}, int home_node = 0)
        : kind_(kind), impl_(make_impl(machine, kind, params, home_node))
    {
    }

    void acquire(Ctx& ctx) { impl_->acquire(ctx); }
    void release(Ctx& ctx) { impl_->release(ctx); }

    /**
     * Non-blocking (for the queue locks: bounded-abort, see each header's
     * try_acquire notes) attempt. Every LockKind supports it.
     */
    bool try_acquire(Ctx& ctx) { return impl_->try_acquire(ctx); }

    /**
     * Bounded-wait acquisition: native try_acquire_for when the algorithm
     * has one (lock_supports_native_timeout), otherwise the generic
     * try/backoff loop of locks::acquire_for.
     */
    bool
    acquire_for(Ctx& ctx, std::uint64_t timeout_ns)
    {
        return impl_->acquire_for(ctx, timeout_ns);
    }

    /**
     * Host-side abandonment accounting for locks with native timeout;
     * all-zero for the rest (and for CLH_TRY's pre-counter redirect
     * protocol, which tracks nothing beyond its probes).
     */
    AbandonStats abandon_stats() const { return impl_->abandon_stats(); }

    /**
     * The lock's probe identity: the token of its primary word, which is
     * the id sim/traffic.hpp attribution and the metrics registry key its
     * transactions by. Stable for the lock's lifetime. Lets multi-lock
     * structures (src/structs/) label attribution rows — stripe k of a
     * striped map is the row whose lock_id matches stripe k's lock.
     */
    std::uint64_t lock_id() const { return impl_->lock_id(); }

    LockKind kind() const { return kind_; }
    const char* name() const { return lock_name(kind_); }

  private:
    struct Base
    {
        virtual ~Base() = default;
        virtual void acquire(Ctx&) = 0;
        virtual void release(Ctx&) = 0;
        virtual bool try_acquire(Ctx&) = 0;
        virtual bool acquire_for(Ctx&, std::uint64_t timeout_ns) = 0;
        virtual AbandonStats abandon_stats() const = 0;
        virtual std::uint64_t lock_id() const = 0;
    };

    template <typename L>
    struct Impl final : Base
    {
        Impl(Machine& machine, const LockParams& params, int home_node)
            : lock(machine, params, home_node)
        {
        }

        void acquire(Ctx& ctx) override { lock.acquire(ctx); }
        void release(Ctx& ctx) override { lock.release(ctx); }
        bool try_acquire(Ctx& ctx) override { return lock.try_acquire(ctx); }

        bool
        acquire_for(Ctx& ctx, std::uint64_t timeout_ns) override
        {
            if constexpr (requires { lock.try_acquire_for(ctx, timeout_ns); })
                return lock.try_acquire_for(ctx, timeout_ns);
            else
                return locks::acquire_for(lock, ctx, timeout_ns);
        }

        AbandonStats
        abandon_stats() const override
        {
            if constexpr (requires { lock.abandon_stats(); })
                return lock.abandon_stats();
            else
                return AbandonStats{};
        }

        std::uint64_t lock_id() const override { return lock.lock_id(); }

        L lock;
    };

    static std::unique_ptr<Base>
    make_impl(Machine& machine, LockKind kind, const LockParams& params,
              int home_node)
    {
        switch (kind) {
          case LockKind::Tatas:
            return std::make_unique<Impl<TatasLock<Ctx>>>(machine, params,
                                                          home_node);
          case LockKind::TatasExp:
            return std::make_unique<Impl<TatasExpLock<Ctx>>>(machine, params,
                                                             home_node);
          case LockKind::Ticket:
            return std::make_unique<Impl<TicketLock<Ctx>>>(machine, params,
                                                           home_node);
          case LockKind::Mcs:
            return std::make_unique<Impl<McsLock<Ctx>>>(machine, params,
                                                        home_node);
          case LockKind::Clh:
            return std::make_unique<Impl<ClhLock<Ctx>>>(machine, params,
                                                        home_node);
          case LockKind::Rh:
            return std::make_unique<Impl<RhLock<Ctx>>>(machine, params,
                                                       home_node);
          case LockKind::Hbo:
            return std::make_unique<Impl<HboLock<Ctx>>>(machine, params,
                                                        home_node);
          case LockKind::HboGt:
            return std::make_unique<Impl<HboGtLock<Ctx>>>(machine, params,
                                                          home_node);
          case LockKind::HboGtSd:
            return std::make_unique<Impl<HboGtSdLock<Ctx>>>(machine, params,
                                                            home_node);
          case LockKind::HboHier:
            return std::make_unique<Impl<HboHierLock<Ctx>>>(machine, params,
                                                            home_node);
          case LockKind::Reactive:
            return std::make_unique<Impl<ReactiveLock<Ctx>>>(machine, params,
                                                             home_node);
          case LockKind::Anderson:
            return std::make_unique<Impl<AndersonLock<Ctx>>>(machine, params,
                                                             home_node);
          case LockKind::Cohort:
            return std::make_unique<Impl<CohortLock<Ctx>>>(machine, params,
                                                           home_node);
          case LockKind::ClhTry:
            return std::make_unique<Impl<ClhTryLock<Ctx>>>(machine, params,
                                                           home_node);
          case LockKind::Adaptive:
            return std::make_unique<Impl<AdaptiveLock<Ctx>>>(machine, params,
                                                             home_node);
        }
        NUCA_PANIC("unknown LockKind");
    }

    LockKind kind_;
    std::unique_ptr<Base> impl_;
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_ANY_LOCK_HPP
