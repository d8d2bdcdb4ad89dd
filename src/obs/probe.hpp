/**
 * @file
 * Lock-event probe API: the zero-cost-when-disabled hook through which the
 * templated lock algorithms emit observability events on both backends.
 *
 * Design constraints (see docs/observability.md):
 *  - No sink installed (the default): one pointer null-check per probe
 *    site, no allocation, no time read. Compiling with
 *    -DNUCALOCK_NO_PROBES removes even that.
 *  - A sink must never perturb the run it observes: probes read the
 *    context's clock and identity only — no simulated memory operations,
 *    no RNG draws — so per-seed lock behaviour is bit-identical with
 *    probes on or off (pinned by tests/obs_test.cpp).
 *  - Both backends emit the same events: time is simulated ns under sim
 *    and steady-clock ns natively (same convention as InstrumentedLock).
 *
 * Contexts advertise a sink via `probe_sink()`; contexts without that
 * method (e.g. test doubles) simply never emit.
 */
#ifndef NUCALOCK_OBS_PROBE_HPP
#define NUCALOCK_OBS_PROBE_HPP

#include <chrono>
#include <concepts>
#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/traffic.hpp"

namespace nucalock::obs {

/** Everything a lock can tell the observability layer. */
enum class LockEvent : std::uint8_t
{
    AcquireAttempt, ///< entering acquire()/try_acquire(); a0=1 for a try
    Acquired,       ///< the lock is now held; a0=1 when via try_acquire
    Released,       ///< about to release (still holding)
    BackoffBegin,   ///< a0 = delay iterations, a1 = BackoffClass
    BackoffEnd,     ///< matches the preceding BackoffBegin of this thread
    GateBlocked,    ///< GT throttle: our node's gate names this lock
    GatePassed,     ///< GT throttle: the gate was open
    GatePublish,    ///< a gate was closed; a0 = node, a1 = 1 when in anger
    GateOpen,       ///< gates re-opened; a0 = number of gates opened
    AngryEnter,     ///< SD starvation detection tripped; a0 = holder node
    AngryExit,      ///< the angry episode ended (acquired or migrated home)
    AbandonStart,   ///< deadline hit inside a timed acquire; cleanup begins
    AbandonDone,    ///< abandonment finished; a0 = AbandonOutcome
    QueueReclaim,   ///< an abandoned queue node was recovered; a0 =
                    ///< ReclaimKind, a1 = node owner's thread id
    AdaptSwitch,    ///< ADAPTIVE changed gear; a0 = from | (to << 8)
                    ///< (locks/adaptive_policy.hpp AdaptGear values),
                    ///< a1 = AdaptReason
};

/** AbandonDone payload (a0): what the timed-out thread left behind. */
enum class AbandonOutcome : std::uint8_t
{
    Parked = 0,    ///< node stays in the queue marked abandoned (MCS)
    Clean = 1,     ///< nothing left behind (cohort local tier, HBO gates)
    GrantRaced = 2 ///< the grant won the abandon race; lock was accepted
};

/** QueueReclaim payload (a0): who recovered the abandoned node. */
enum class ReclaimKind : std::uint8_t
{
    Unlinked = 0, ///< a releaser unlinked the node from the queue
    Rejoined = 1, ///< the owner came back and resumed its old position
    Unparked = 2  ///< the owner found its node already reclaimed and reused it
};

/** Printable event mnemonic (stable — used in traces and tests). */
inline const char*
lock_event_name(LockEvent event)
{
    switch (event) {
      case LockEvent::AcquireAttempt: return "acquire_attempt";
      case LockEvent::Acquired: return "acquired";
      case LockEvent::Released: return "released";
      case LockEvent::BackoffBegin: return "backoff_begin";
      case LockEvent::BackoffEnd: return "backoff_end";
      case LockEvent::GateBlocked: return "gate_blocked";
      case LockEvent::GatePassed: return "gate_passed";
      case LockEvent::GatePublish: return "gate_publish";
      case LockEvent::GateOpen: return "gate_open";
      case LockEvent::AngryEnter: return "angry_enter";
      case LockEvent::AngryExit: return "angry_exit";
      case LockEvent::AbandonStart: return "abandon_start";
      case LockEvent::AbandonDone: return "abandon_done";
      case LockEvent::QueueReclaim: return "queue_reclaim";
      case LockEvent::AdaptSwitch: return "adapt_switch";
    }
    return "?";
}

/** Which backoff constants a BackoffBegin/End episode used. */
enum class BackoffClass : std::uint8_t
{
    Generic = 0, ///< no locality information (TATAS_EXP, timed retries)
    Local = 1,   ///< holder in our node (or chip): small constants
    Remote = 2,  ///< holder in a remote node: throttled constants
};

inline constexpr int kNumBackoffClasses = 3;

inline const char*
backoff_class_name(BackoffClass cls)
{
    switch (cls) {
      case BackoffClass::Generic: return "generic";
      case BackoffClass::Local: return "local";
      case BackoffClass::Remote: return "remote";
    }
    return "?";
}

/** One emitted lock event. */
struct ProbeRecord
{
    LockEvent event = LockEvent::AcquireAttempt;
    /** Simulated ns (sim backend) or steady-clock ns (native backend). */
    std::uint64_t time_ns = 0;
    /** Identity of the emitting lock (its primary word's Ref token). */
    std::uint64_t lock_id = 0;
    int thread = -1;
    int cpu = -1;
    int node = -1;
    /** Event-specific payload (see LockEvent comments). */
    std::uint64_t a0 = 0;
    std::uint64_t a1 = 0;
};

/**
 * Consumer interface. Implementations must not issue simulated memory
 * operations or otherwise feed back into the run. On the native backend
 * on_event is called concurrently from real threads — wrap any
 * single-threaded sink in ThreadSafeSink there.
 */
class ProbeSink
{
  public:
    virtual ~ProbeSink() = default;
    virtual void on_event(const ProbeRecord& record) = 0;
};

namespace detail {

/** Event timestamp: ctx.now() under sim, steady clock natively. */
template <typename Ctx>
inline std::uint64_t
probe_clock_ns(Ctx& ctx)
{
    if constexpr (requires { ctx.now(); }) {
        return static_cast<std::uint64_t>(ctx.now());
    } else {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }
}

/**
 * Update the context's traffic-attribution op-context from a probe site.
 * On contexts that expose set_op_phase() (the sim backend), the lock-event
 * stream doubles as the source of truth for which lock and operation phase
 * subsequent coherence transactions belong to (sim/traffic.hpp). This runs
 * whether or not a sink is installed, so attribution is identical with
 * probes observed or merely compiled in; it writes two plain fields on the
 * per-thread context — never simulated memory — so it cannot perturb the
 * run. -DNUCALOCK_NO_PROBES removes it along with the probe sites.
 */
template <typename Ctx>
inline void
note_op_phase(Ctx& ctx, LockEvent event, std::uint64_t lock_id)
{
    if constexpr (requires { ctx.set_op_phase(lock_id, sim::TxPhase::None); }) {
        switch (event) {
          case LockEvent::AcquireAttempt:
            ctx.set_op_phase(lock_id, sim::TxPhase::AcquireSpin);
            break;
          case LockEvent::Acquired:
            ctx.set_op_phase(lock_id, sim::TxPhase::Critical);
            break;
          case LockEvent::Released:
            ctx.set_op_phase(lock_id, sim::TxPhase::Release);
            break;
          case LockEvent::GatePublish:
          case LockEvent::GateOpen:
            // Both probes sit immediately before exactly one gate store
            // (locks/hbo.hpp); tag just that access.
            ctx.set_transient_phase(sim::TxPhase::GatePublish);
            break;
          default:
            break;
        }
    } else {
        (void)ctx;
        (void)event;
        (void)lock_id;
    }
}

} // namespace detail

/** The installed sink, or nullptr — contexts without probe_sink() (and all
 *  contexts under -DNUCALOCK_NO_PROBES) report none. */
template <typename Ctx>
inline ProbeSink*
probe_sink_of(Ctx& ctx)
{
#ifndef NUCALOCK_NO_PROBES
    if constexpr (requires {
                      { ctx.probe_sink() } -> std::convertible_to<ProbeSink*>;
                  })
        return ctx.probe_sink();
#endif
    (void)ctx;
    return nullptr;
}

/** Emit one event (no-op without an installed sink). */
template <typename Ctx>
inline void
probe(Ctx& ctx, LockEvent event, std::uint64_t lock_id, std::uint64_t a0 = 0,
      std::uint64_t a1 = 0)
{
#ifndef NUCALOCK_NO_PROBES
    detail::note_op_phase(ctx, event, lock_id);
#endif
    ProbeSink* sink = probe_sink_of(ctx);
    if (sink == nullptr) [[likely]]
        return;
    sink->on_event(ProbeRecord{event, detail::probe_clock_ns(ctx), lock_id,
                               ctx.thread_id(), ctx.cpu(), ctx.node(), a0, a1});
}

/**
 * Emit GateBlocked or GatePassed for an imminent wait on a GT throttle
 * gate. Classification uses ctx.peek() — a coherence-free read under sim,
 * a relaxed atomic load natively — so the observed run is not perturbed.
 * Contexts without peek() skip the event rather than risk a real access.
 */
template <typename Ctx>
inline void
probe_gate(Ctx& ctx, typename Ctx::Ref gate, std::uint64_t closed_token,
           std::uint64_t lock_id)
{
    ProbeSink* sink = probe_sink_of(ctx);
    if (sink == nullptr) [[likely]]
        return;
    if constexpr (requires { ctx.peek(gate); }) {
        const bool blocked = ctx.peek(gate) == closed_token;
        sink->on_event(ProbeRecord{blocked ? LockEvent::GateBlocked
                                           : LockEvent::GatePassed,
                                   detail::probe_clock_ns(ctx), lock_id,
                                   ctx.thread_id(), ctx.cpu(), ctx.node(), 0,
                                   0});
    }
}

/** Record-everything sink (tests and ad-hoc tooling). */
class VectorSink final : public ProbeSink
{
  public:
    void on_event(const ProbeRecord& record) override { records_.push_back(record); }

    const std::vector<ProbeRecord>& records() const { return records_; }
    void clear() { records_.clear(); }

  private:
    std::vector<ProbeRecord> records_;
};

/** Fan one event stream out to several sinks (metrics + timeline). */
class MultiSink final : public ProbeSink
{
  public:
    void add(ProbeSink* sink)
    {
        if (sink != nullptr)
            sinks_.push_back(sink);
    }

    void
    on_event(const ProbeRecord& record) override
    {
        for (ProbeSink* sink : sinks_)
            sink->on_event(record);
    }

  private:
    std::vector<ProbeSink*> sinks_;
};

/** Mutex adapter making any sink safe for the native backend's threads. */
class ThreadSafeSink final : public ProbeSink
{
  public:
    explicit ThreadSafeSink(ProbeSink& inner) : inner_(inner) {}

    void
    on_event(const ProbeRecord& record) override
    {
        const std::lock_guard<std::mutex> guard(mutex_);
        inner_.on_event(record);
    }

  private:
    std::mutex mutex_;
    ProbeSink& inner_;
};

} // namespace nucalock::obs

#endif // NUCALOCK_OBS_PROBE_HPP
