/**
 * @file
 * The discrete-event simulation engine: simulated threads on fibers, a
 * deterministic scheduler, and the per-thread SimContext through which lock
 * algorithms issue memory operations.
 */
#ifndef NUCALOCK_SIM_ENGINE_HPP
#define NUCALOCK_SIM_ENGINE_HPP

#include <forward_list>
#include <functional>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "sim/fiber.hpp"
#include "sim/latency.hpp"
#include "sim/memory.hpp"
#include "sim/ready_queue.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "topology/mapping.hpp"
#include "topology/topology.hpp"

namespace nucalock::obs {
class ProbeSink;
}

namespace nucalock::sim {

class SimMachine;
class FaultInjector;
class InvariantChecker;

/**
 * Exit status used by panic_with_diagnosis (deadlock, livelock watchdog,
 * invariant violation with a full diagnosis attached). Distinct from the
 * bare panic() abort (SIGABRT) and from fatal()'s exit(1), so CI can tell
 * "a checked property failed" from "the simulator itself crashed". When the
 * NUCALOCK_DIAG_JSON environment variable names a file, the diagnosis is
 * also written there as a machine-readable JSON report.
 */
inline constexpr int kDiagnosisExitCode = 86;

/** Engine-level configuration. */
struct SimConfig
{
    /** Seed for every per-thread generator; same seed => same run. */
    std::uint64_t seed = 1;

    /**
     * OS-preemption injection (off by default). When enabled, each thread
     * is descheduled for @ref preempt_duration roughly every
     * @ref preempt_mean_interval of its own progress (exponentially
     * distributed). This models the multiprogramming noise behind the
     * paper's Table 4 queue-lock collapse at 30 cpus.
     */
    bool preemption = false;
    SimTime preempt_mean_interval = 40'000'000; // 40 ms
    SimTime preempt_duration = 10'000'000;      // 10 ms

    /** Guard against livelock: run() panics past this simulated time. */
    SimTime max_sim_time = 500ULL * 1000 * 1000 * 1000; // 500 simulated s

    /**
     * Each simulated thread's fiber stack. Up to 4 KiB at each end is
     * cache-color slide, and the 2 KiB above the bottom one is the
     * overflow check's reserve (sim/fiber.cpp). Below the top slide, the
     * deepest simulated thread in the tests, benches and CI tool runs
     * used 5.2 KiB (9.9 KiB under ASan), and tests/engine_test.cpp's
     * headroom fence runs every lock on half this size. 64 KiB is the
     * smallest stack the StackPool carves from its huge-page slabs, so a
     * 28-thread machine's stacks share one 2 MiB page. A fiber that
     * overflows its stack panics at its next switch (sim/fiber.hpp).
     */
    std::size_t fiber_stack_bytes = 64 * 1024;
};

/**
 * Per-thread handle the lock algorithms are written against. Models the
 * LockContext concept (see locks/context.hpp); the native backend provides
 * the same interface over std::atomic.
 */
class SimContext
{
  public:
    using Machine = SimMachine;
    using Ref = MemRef;

    int thread_id() const { return tid_; }
    int cpu() const { return cpu_; }
    int node() const { return node_; }
    int chip() const { return chip_; }
    int num_nodes() const;

    Machine& machine() { return *machine_; }
    Xoshiro256& rng() { return rng_; }
    SimTime now() const;

    std::uint64_t load(Ref ref);
    void store(Ref ref, std::uint64_t value);

    /**
     * Observability-only read: the word's current value without coherence
     * traffic, latency, or any effect on the simulation. Never use from
     * lock algorithms proper — only from probes (obs/probe.hpp), which
     * must not perturb the run they observe.
     */
    std::uint64_t peek(Ref ref) const;

    /** The machine's installed probe sink (nullptr = observability off). */
    obs::ProbeSink* probe_sink() const;
    /** Compare-and-swap; returns the previous value (paper semantics). */
    std::uint64_t cas(Ref ref, std::uint64_t expected, std::uint64_t desired);
    std::uint64_t swap(Ref ref, std::uint64_t value);
    /** test&set: writes nonzero, returns previous value. */
    std::uint64_t tas(Ref ref);

    /**
     * Spin while the word equals @p value; returns the first differing
     * value observed. Equivalent to a polling load loop, but the simulator
     * blocks the thread and wakes it when another cpu writes the line.
     */
    std::uint64_t spin_while_equal(Ref ref, std::uint64_t value);

    /** Busy-wait for @p iterations empty loop iterations (backoff delay). */
    void delay(std::uint64_t iterations);
    /** Busy-wait for @p ns nanoseconds of private work. */
    void delay_ns(SimTime ns);

    /** What lazy_backoff_poll() saw (locks::PollResult's fields). */
    struct PollOutcome
    {
        std::uint64_t value = 0;
        std::uint64_t polls = 0;
        bool timed_out = false;
    };

    /**
     * Whether lazy_backoff_poll() may run: a timed run with no Scheduler,
     * FaultInjector, probe sink or memtrace hook installed and no armed
     * watchdog. Each of those sees every backoff and load of a poll, or
     * every pick's time, so under them locks::backoff_poll() runs its
     * literal loop. Round limits and deadlines do not matter.
     */
    bool can_park_polls() const;

    /**
     * locks::backoff_poll(), run by the engine: repeat { backoff(*b);
     * v = load(word); } while v == @p held, at most @p max_polls rounds
     * (at least one), with no round starting at or past @p deadline, and
     * the jitter drawn from rng(). ~0 means no limit and no deadline. The
     * backoffs and reloads run on this thread's fiber, except that a
     * reload reading @p held parks the thread unless it is the poll's last
     * round: its copy of the line then stays valid until another cpu
     * writes it, so its next backoffs and cache-hit reloads depend on its
     * own state alone. That write rolls them forward and queues the
     * thread where the literal loop would be. A poll with a limit or a
     * deadline is also queued at the end it reaches if no write comes, or
     * at a checkpoint on the way to it (SimMachine::kPollLookahead). Same
     * picks, events, draws and result as the literal loop. Only when
     * can_park_polls().
     */
    PollOutcome lazy_backoff_poll(Ref word, std::uint64_t held,
                                  std::uint32_t* b, std::uint32_t factor,
                                  std::uint32_t cap, bool jitter,
                                  std::uint64_t max_polls,
                                  std::uint64_t deadline);

    /**
     * Read (and, when @p write, also increment) @p count consecutive words
     * starting at @p first — the critical-section data access of the
     * microbenchmarks: a load per word, then a store of the value plus
     * one. Each access is one engine event, as if written out, but the
     * engine may replay a walk's lines in bulk instead of running them
     * (SimMachine::walk): same picks, events, traffic and values.
     */
    void touch_array(Ref first, std::uint32_t count, bool write);

    /**
     * Traffic-attribution op-context (observability only; see
     * sim/traffic.hpp). The probe layer calls set_op_phase() on lock
     * events so every subsequent coherence transaction is attributed to
     * @p lock_id in @p phase; set_transient_phase() overrides the phase
     * for the next single access (a GT gate publish/reopen store).
     * Labelling never changes timing or values — with probes compiled out
     * these are simply never called and traffic stays unattributed.
     */
    void
    set_op_phase(std::uint64_t lock_id, TxPhase phase)
    {
        op_lock_ = lock_id;
        op_phase_ = phase;
    }

    void set_transient_phase(TxPhase phase) { op_transient_ = phase; }

    /**
     * Critical-section markers for the robustness subsystem (all no-ops
     * unless an InvariantChecker or FaultInjector is installed; they never
     * consume simulated time by themselves). Call cs_wait_begin() before
     * starting an acquire, cs_enter() once the lock is held, cs_exit()
     * before releasing. cs_enter() is also the holder-preemption injection
     * point, so an injected holder fault deschedules the thread here.
     */
    void cs_wait_begin();
    /** A bounded wait gave up (acquire_for timeout) without entering. */
    void cs_wait_abort();
    void cs_enter();
    void cs_exit();

  private:
    friend class SimMachine;

    SimMachine* machine_ = nullptr;
    int tid_ = -1;
    int cpu_ = -1;
    int node_ = -1;
    int chip_ = -1;
    Xoshiro256 rng_{0};

    // Traffic-attribution op-context (see set_op_phase above).
    std::uint64_t op_lock_ = 0;
    TxPhase op_phase_ = TxPhase::None;
    TxPhase op_transient_ = TxPhase::None;
};

/**
 * A complete simulated NUCA machine: topology, coherent memory, and
 * simulated threads. Single-host-threaded and fully deterministic.
 */
class SimMachine
{
  public:
    explicit SimMachine(Topology topo,
                        LatencyModel lat = LatencyModel::wildfire(),
                        SimConfig cfg = SimConfig{});
    ~SimMachine();

    SimMachine(const SimMachine&) = delete;
    SimMachine& operator=(const SimMachine&) = delete;

    const Topology& topology() const { return topo_; }
    const LatencyModel& latency() const { return lat_; }
    const SimConfig& config() const { return cfg_; }

    /** Allocate one shared word homed in @p home_node. */
    MemRef alloc(std::uint64_t init, int home_node = 0);
    MemRef alloc_array(std::uint32_t count, std::uint64_t init, int home_node = 0);

    /**
     * Re-initialize a word a lock reuses: SimMemory::recycle, which
     * leaves the line as alloc(@p init, @p home_node) would return a new
     * one, with no simulated access.
     */
    void
    recycle(MemRef ref, std::uint64_t init, int home_node)
    {
        memory_.recycle(ref, init, home_node);
    }

    /**
     * The per-node `is_spinning` gate word of the HBO_GT/SD algorithms
     * (one word per node, homed in that node, initially kGateDummy).
     */
    MemRef node_gate(int node);

    /** Upper bound on thread ids (one thread per cpu). */
    int max_threads() const { return topo_.num_cpus(); }

    /**
     * Rebuild a Ref from a token produced by MemRef::token(). The static
     * assert is exact on the representable range (tokens are line+1, so
     * [1, kInvalid] are the only values a valid() ref can produce); it
     * cannot know how many lines exist — use checked_ref_from_token when a
     * machine is at hand to also reject tokens beyond the allocated lines.
     */
    static MemRef
    ref_from_token(std::uint64_t token)
    {
        NUCA_ASSERT(token != 0 && token <= MemRef::kInvalid, "bad token ", token);
        return MemRef{static_cast<std::uint32_t>(token - 1)};
    }

    /** ref_from_token, additionally rejecting tokens past the last line
     *  actually allocated in this machine. */
    MemRef
    checked_ref_from_token(std::uint64_t token) const
    {
        const MemRef ref = ref_from_token(token);
        NUCA_ASSERT(ref.line < memory_.num_lines(),
                    "token ", token, " beyond ", memory_.num_lines(),
                    " allocated lines");
        return ref;
    }

    /**
     * Add a simulated thread bound to @p cpu (at most one per cpu).
     * @return its thread id (dense, in creation order).
     */
    int add_thread(int cpu, std::function<void(SimContext&)> body);

    /**
     * Convenience: add @p count threads placed per @p policy; @p body
     * receives the context and the thread index. The machine keeps one
     * copy of @p body for all of them.
     */
    void add_threads(int count, Placement policy,
                     std::function<void(SimContext&, int)> body);

    /** Run until every thread finishes. Panics on deadlock. */
    void run();

    SimTime now() const { return now_; }
    /** Simulated time at which thread @p tid finished. */
    SimTime finish_time(int tid) const;

    int num_threads() const { return static_cast<int>(threads_.size()); }

    TrafficStats traffic() const { return memory_.traffic(); }
    /** Per-lock/per-phase and per-node traffic attribution snapshot. */
    TrafficAttribution traffic_attribution() const { return memory_.attribution(); }
    /** Per-resource (node buses + global link) contention snapshot. */
    ContentionStats contention() const { return memory_.contention(now_); }
    SimMemory& memory() { return memory_; }
    const SimMemory& memory() const { return memory_; }

    /**
     * Scheduling picks of the run, as the literal code makes them: one
     * each time the scheduler chooses the thread to run next (timed mode:
     * after every blocking operation, and once per thread finish). A pick
     * is not necessarily a host stack switch: a timed-mode pick that
     * chooses the thread that just blocked lets it run ahead on its own
     * stack, and the lazy and replayed picks are never made at all.
     */
    std::uint64_t fiber_switches() const { return fiber_switches_; }

    /**
     * The timed-mode picks the engine made (lazy and replayed picks
     * excluded) that chose the thread which had just blocked: it runs on
     * with no switch (and, without faults installed, no ready-queue write).
     */
    std::uint64_t run_ahead_picks() const { return run_ahead_picks_; }

    /**
     * The picks among fiber_switches() that parked backoff polls skipped:
     * the ends of the backoffs and cache-hit reloads that the engine
     * rolled forward without picking the poller (see
     * SimContext::lazy_backoff_poll).
     */
    std::uint64_t lazy_picks() const { return lazy_picks_; }

    /**
     * The picks among fiber_switches() that replayed walk lines skipped:
     * the ends of the loads and stores of critical-section walk lines
     * applied in bulk (see walk()).
     */
    std::uint64_t replayed_picks() const { return replayed_picks_; }

    /**
     * Install a fault injector (non-owning; nullptr uninstalls). Must be
     * set before run(). Also routes the injector's link-spike penalty into
     * the memory system's global link.
     */
    void install_faults(FaultInjector* injector);
    FaultInjector* faults() { return injector_; }

    /** Install an invariant checker (non-owning; nullptr uninstalls). */
    void install_invariants(InvariantChecker* checker);
    InvariantChecker* invariants() { return checker_; }

    /**
     * Install a lock-event probe sink (non-owning; nullptr uninstalls).
     * Must be set before run(): with a sink, backoff polls run their
     * literal loops so that every backoff is observed. Probes only read
     * the clock and thread identity, so installing a sink must not change
     * the simulated run (pinned by tests/obs_test.cpp).
     */
    void install_probe(obs::ProbeSink* sink);
    obs::ProbeSink* probe() const { return probe_; }

    /**
     * Install a controlled scheduler (non-owning; nullptr uninstalls). Must
     * be set before run(). With a scheduler installed, run() asks it to
     * pick a runnable thread at every decision point (memory op, delay,
     * cs marker) instead of following wake times, and ends gracefully with
     * a StopReason instead of panicking on deadlock or the time limit —
     * systematic checkers treat those as verdicts, not crashes.
     */
    void install_scheduler(Scheduler* scheduler);
    Scheduler* scheduler() { return scheduler_; }

    /** Why the (controlled) run ended. Completed for timed runs. */
    StopReason stop_reason() const { return stop_; }

    /** Scheduling decisions taken during a controlled run. */
    std::uint64_t sched_steps() const { return sched_steps_; }

    /** Whether @p ref is one of the per-node is_spinning gate words. */
    bool is_node_gate(MemRef ref) const { return memory_.is_node_gate(ref); }

    /**
     * Human-readable end-of-run report: simulated time, traffic totals,
     * and per-resource utilization/queueing (gem5-style stats dump).
     */
    void print_stats(std::ostream& os) const;

  private:
    friend class SimContext;

    enum class ThreadState : std::uint8_t
    {
        Runnable,
        Waiting, // blocked on a line watcher
        Done,
    };

    struct SimThread;

    /**
     * Hot per-thread scheduling state, packed into a dense array indexed by
     * tid. Every event touches (wake, state, fiber); keeping those in a
     * 32-byte record — 2 threads per cache line — instead of scattered
     * heap-allocated SimThread objects is what keeps the scheduler's
     * per-event cost flat as thread counts grow into the hundreds
     * (docs/performance.md, "big-topology engine").
     */
    struct ThreadHot
    {
        SimTime wake = 0;
        Fiber* fiber = nullptr; // owned by the cold SimThread
        /** Where the fiber's stack is suspended (timed mode; mirrors
         *  Fiber::suspended_sp after every switch away from it, see
         *  note_switched_in). Lets the resume-path prefetches below read
         *  this record only, instead of chasing a dependent load through
         *  the cold Fiber object first. */
        const void* resume_sp = nullptr;
        std::uint32_t waiting_line = MemRef::kInvalid; // diagnostics only
        ThreadState state = ThreadState::Runnable;
        /** Set by wake_watchers: the thread's next access is the
         *  post-release re-fetch (attributed Handover when the thread was
         *  in its acquire spin). */
        bool handover_pending = false;
        /** The thread is parked in a lazy backoff poll: Waiting on the
         *  polled line. A write by another cpu rolls the poll forward
         *  (unpark_poll) instead of waking the thread. A poll with no
         *  round limit or deadline is outside the ready queue; a bounded
         *  one is in it, with `wake` its end or a checkpoint (queue_key).
         *  The roll's cursor is PollState::at. */
        bool lazy = false;
    };

    /** Which stage of a lazy poll ends at PollState::at. */
    enum class PollStage : std::uint8_t
    {
        Backoff, // then reload the word
        Reload,  // the reload read `held`: back off again
    };

    /**
     * A lazy backoff poll: its backoff arguments, its bounds, its progress
     * and the stage in flight. Kept by tid in polls_, next to hot_, and
     * live for the length of the call.
     */
    struct PollState
    {
        SimThread* thr = nullptr;
        /** The end of the stage in flight: the roll's cursor. */
        SimTime at = 0;
        std::uint64_t polls = 0;
        std::uint64_t max_polls = 0;
        std::uint64_t deadline = 0;
        std::uint32_t b = 0;
        std::uint32_t factor = 0;
        std::uint32_t cap = 0;
        /** Stages from `at` to the queue key (bounded polls, parked). */
        std::uint32_t key_steps = 0;
        bool jitter = false;
        /** A finite max_polls or deadline: the poll ends by itself. */
        bool bounded = false;
        PollStage stage = PollStage::Backoff;
    };

    /**
     * A poll's progress in registers, for the one stage step
     * (poll_step) that rolls it forward, looks ahead to its end and
     * backs off on its fiber: copies of the poller's generator and
     * next_preempt and of the PollState fields that a stage changes.
     * A roll writes it back once (store_roll); a lookahead drops it.
     */
    struct PollRoll
    {
        Xoshiro256 rng;
        SimTime at;
        SimTime next_preempt;
        std::uint64_t polls;
        std::uint32_t b;
        PollStage stage;
    };

    /**
     * The most stages a bounded poll's lookahead runs when it parks. An
     * end further away is keyed at a checkpoint this many stages on,
     * where the poll rolls forward and looks ahead again.
     */
    static constexpr std::uint32_t kPollLookahead = 64;

    /**
     * Start pulling a suspended thread's host-side resume state into cache
     * ahead of an imminent switch into its fiber. At 1024 simulated threads
     * (big-topology runs) the per-thread state cannot all stay resident,
     * so every switch otherwise begins with serial demand misses on the
     * Fiber object, the thread's SimContext, the saved register frame and
     * the lines the resumed call chain reads right above it; issuing
     * prefetches while the waker's event finishes overlaps those misses.
     * Pure host-side hint — no effect on simulated results.
     */
    void prefetch_resume_state(int tid) const
    {
#ifdef NUCALOCK_FIBER_FAST_SWITCH
        const ThreadHot& hot = hot_[static_cast<std::size_t>(tid)];
        // The Fiber object itself: the switch reads and writes its switch
        // state before touching the stack.
        __builtin_prefetch(hot.fiber);
        // The SimContext the resumed lock code immediately returns into:
        // the member right below the Fiber in the thread's SimThread,
        // reached from the fiber pointer. Indexing threads_ here instead
        // (a bounds check and two dependent loads on every pick) made the
        // Fig 5 cells' run loop about 8% slower.
        __builtin_prefetch(reinterpret_cast<const char*>(hot.fiber) -
                           sizeof(SimContext));
        const char* sp = static_cast<const char*>(hot.resume_sp);
        if (sp == nullptr)
            return; // running, or a platform without fast switches
        // Cover the saved register frame plus the first frames of the
        // suspended call chain (switch -> engine -> lock code) that the
        // switch pops straight through. Eight lines: enough to hide the
        // switch-path misses, few enough not to saturate the core's fill
        // buffers and stall the caller. Prefetches that hit in cache cost
        // ~a cycle, so the small shapes don't pay for this.
        for (int line = 0; line < 8; ++line)
            __builtin_prefetch(sp + line * 64);
#else
        (void)tid;
#endif
    }

    /** Cold per-thread state: identity, diagnostics, and everything the
     *  per-event loop does not read, with the thread's fiber. Kept in a
     *  ChunkArena, so it never moves (a Fiber cannot: its entry and its
     *  stack image point at it, and so do ThreadHot::fiber and
     *  PollState::thr), and a 28-thread machine's threads are one heap
     *  allocation. */
    struct SimThread
    {
        SimThread(SimMachine& machine, std::function<void(SimContext&)> b,
                  std::size_t stack_bytes);

        int tid = -1;
        int cpu = -1;
        SimTime finish = 0;
        SimTime next_preempt = kTimeInfinity;
        PendingOp pending; // controlled mode only
        std::function<void(SimContext&)> body;
        /** Right below fiber: prefetch_resume_state finds it from there. */
        SimContext ctx;
        /** Runs body(ctx). */
        Fiber fiber;
    };

    /** Issue a memory op for the current thread and handle wakeups. */
    AccessOutcome do_access(SimContext& ctx, MemOp op, MemRef ref,
                            std::uint64_t a, std::uint64_t b);

    /**
     * The core of every access, shared by do_access() and a lazy poll's
     * reload: resolve the attribution phase, label the transaction, run
     * it (and the trace hook) at now_, and wake the line's watchers.
     */
    AccessOutcome access_core(SimContext& ctx, ThreadHot& hot, MemOp op,
                              MemRef ref, std::uint64_t a, std::uint64_t b);

    /**
     * The engine side of SimContext::touch_array(). Each line runs
     * literally, as a load and (when @p write) a store of the value plus
     * one, until a line qualifies as a template: replays_walks_, no
     * handover tag or transient phase pending, no watchers on it, and a
     * line after it. SimMemory records the template. When both its
     * accesses ran ahead and every serve found its resource idle, each
     * following line in the template's state whose store (or load)
     * completes a whole number of template periods later, still before
     * the ready queue's root and within max_sim_time, is replayed in bulk
     * (SimMemory::replay_lines): no other thread has an event in between,
     * so those lines take the template's time and effects.
     */
    void walk(SimContext& ctx, MemRef first, std::uint32_t count, bool write);

    /**
     * One access of a walk's template line: do_access() as it runs with no
     * Scheduler or FaultInjector installed. When the thread cannot run
     * ahead, drops the line record, clears @p ahead and dispatches.
     * Returns the word's old value.
     */
    std::uint64_t walk_access(SimContext& ctx, ThreadHot& hot, MemOp op,
                              MemRef ref, std::uint64_t a, bool& ahead);

    /** The engine side of SimContext::lazy_backoff_poll(). */
    SimContext::PollOutcome lazy_poll(SimContext& ctx, MemRef word,
                                      std::uint64_t held, std::uint32_t* b,
                                      std::uint32_t factor, std::uint32_t cap,
                                      bool jitter, std::uint64_t max_polls,
                                      std::uint64_t deadline);

    /** @p p's progress, with its thread's generator and next_preempt. */
    static PollRoll load_roll(const PollState& p);

    /** Write a roll back into @p p and its thread. */
    static void store_roll(PollState& p, const PollRoll& r);

    /**
     * The stage after the one ending at r.at: a reload's end draws the
     * next backoff and grows b (locks::backoff(), jitter first); a
     * backoff's end is a reload that hits in the poller's cache. Then
     * apply_preemption's draw, and r.at is the new stage's end.
     */
    void poll_step(const PollState& p, PollRoll& r) const;

    /** poll_step() at a reload's end: the backoff. */
    void backoff_step(const PollState& p, PollRoll& r) const;

    /** poll_step() at a backoff's end: the reload, a hit. */
    void hit_step(PollRoll& r) const;

    /** Whether the poll is over at r.at: backoff_poll()'s loop
     *  conditions after a reload that read `held`, in its order. */
    static bool
    poll_over(const PollState& p, const PollRoll& r)
    {
        return r.stage == PollStage::Reload &&
               (r.polls >= p.max_polls || r.at >= p.deadline);
    }

    /**
     * Queue @p tid's parked bounded poll at its key: the end of the
     * stage where it is over, when the lookahead reaches it within
     * kPollLookahead stages, or else a checkpoint that many stages on.
     */
    void queue_key(int tid);

    /**
     * A parked bounded poll picked at its key: roll it forward to now_
     * as lazy picks (this pick is counted already). At its end, take it
     * off the line's watcher list and unpark it, and return true; at a
     * checkpoint, run the stage that starts there and return false.
     */
    bool reach_key(int tid, MemRef word);

    /**
     * End @p tid's parked poll: run, as lazy picks, the stages that the
     * (wake, tid) order puts before (@p t, @p by). Leaves `wake` at the
     * end of the first stage after (t, by), for the caller to queue the
     * thread there.
     */
    void unpark_poll(int tid, SimTime t, int by);

    /**
     * pick_next() while polls are parked, when its pick would find no
     * thread or fail the time limit: unpark every parked poll up to
     * (max_sim_time + 1, 0) and queue it, so that the pick fails where
     * the literal loops' pick fails. The pollers stay on their lines'
     * watcher lists; the run ends at that pick.
     */
    void unpark_polls_for_time_limit();

    /** A wake at @p t for @p tid, through disturb_wake when preemption
     *  or faults can move it. */
    SimTime wake_at(int tid, SimTime t);

    /**
     * Timed mode: block the current thread @p tid until @p wake, a time
     * that wake_at() has disturbed already. While it is still the
     * earliest event (ties broken by tid, as in the queue) it runs ahead:
     * the pick is counted, the clock advanced, and true returned.
     * Otherwise it is queued, and the caller must dispatch().
     */
    bool run_ahead_or_queue(int tid, SimTime wake);

    /**
     * Controlled mode: advertise the thread's next operation and yield to
     * the scheduler; returns when the scheduler picks this thread again.
     */
    void decision_point(SimContext& ctx, PendingOp op);

    /**
     * Timed mode (no Scheduler installed): seed the ready queue, enter the
     * first pick, and retire each fiber that finishes. Everything in
     * between runs on the fibers themselves, through dispatch().
     */
    void run_timed();

    /**
     * Timed mode: choose the next thread to run — retire injected deaths,
     * diagnose a deadlock (or, with polls parked, the time limit), then
     * take the ready queue's top out of the queue (the running thread is
     * never queued) and advance_to() its wake time. Returns its tid, or
     * -1 once every thread is done.
     */
    int pick_next();

    /**
     * Timed mode, for every pick: advance the clock to the picked thread's
     * wake time, run the watchdog and time-limit checks, and count the
     * pick.
     */
    void advance_to(SimTime wake);

    /**
     * Timed mode, called on the current thread's fiber when it cannot run
     * ahead: after run_ahead_or_queue() queued it, or wait_on() or a lazy
     * poll parked it. pick_next(), then switch straight into the picked
     * fiber — or keep running when the pick is this thread, a run-ahead.
     * That happens with faults installed, where block_until() always
     * queues it, and when a parked bounded poll's key is the earliest
     * event.
     */
    void dispatch();

    /**
     * Run first on a fiber entered by a direct switch: record where the
     * fiber it replaced is suspended, so that ThreadHot::resume_sp stays
     * exact for the prefetches.
     */
    void note_switched_in()
    {
        if (switched_out_ == nullptr)
            return;
        switched_out_->resume_sp = switched_out_->fiber->suspended_sp();
        switched_out_ = nullptr;
    }

    /** The controlled scheduling loop (Scheduler installed). */
    void run_controlled();

    /**
     * Block the current thread until simulated time @p t. Timed mode, no
     * faults installed: when (t, tid) still precedes the ready queue's top,
     * the thread runs ahead at once, and the queue is left as it is
     * (run_ahead_or_queue).
     */
    void block_until(SimContext& ctx, SimTime t);

    /** Block the current thread on a watcher for @p ref (value @p v). */
    void wait_on(SimContext& ctx, MemRef ref, std::uint64_t v);

    /** Wake the watchers of @p ref at time @p t, and unpark the polls
     *  parked on it at the current pick. */
    void wake_watchers(MemRef ref, SimTime t);

    /** Apply preemption injection to a wake time. */
    SimTime apply_preemption(SimThread& thr, SimTime wake);

    /** apply_preemption() on a thread's generator @p rng and its
     *  @p next_preempt, with preemption on. */
    SimTime preempt(SimTime wake, Xoshiro256& rng,
                    SimTime& next_preempt) const;

    /** Apply configured preemption plus injected stalls to a wake time. */
    SimTime disturb_wake(SimThread& thr, SimTime wake);

    /** Retire threads whose injected death time has arrived. */
    void sweep_deaths(std::size_t& done);

    /**
     * Abort with a full diagnosis: per-thread scheduler state, the invariant
     * checker's report (holder, waits, recent CS events) and the applied
     * fault log — instead of a bare one-line panic.
     */
    [[noreturn]] void panic_with_diagnosis(const std::string& what) const;

    /**
     * panic_with_diagnosis() from a timed-mode pick. On a fiber (a
     * dispatch() pick) the diagnosis is first handed back to run_timed():
     * exiting from a fiber stack would run the host thread's exit-time
     * destructors underneath it, and the stack pool's unmap the very slab
     * that stack was carved from.
     */
    [[noreturn]] void fail(std::string what);

    SimThread& current();

    Topology topo_;
    LatencyModel lat_;
    SimConfig cfg_;
    SimMemory memory_;
    /** The bodies of add_threads() calls, one per call; their threads
     *  call them through a {pointer, index} closure, which fits
     *  std::function's small buffer. A list, so they never move. */
    std::forward_list<std::function<void(SimContext&, int)>> shared_bodies_;
    /** By tid; 32 to a chunk. */
    ChunkArena<SimThread, 5> threads_;
    /** Hot scheduling state by tid (see ThreadHot). */
    std::vector<ThreadHot> hot_;
    /** Lazy backoff polls by tid (see PollState); sized by run_timed()
     *  when polls may park. */
    std::vector<PollState> polls_;
    /** Runnable threads by (wake, tid), apart from the running one;
     *  maintained only in timed mode. */
    ReadyQueue ready_;
    /** Reused by wake_watchers (see SimMemory::take_watchers). */
    std::vector<int> watcher_scratch_;
    /** Reused by wake_watchers for the ReadyQueue::push_bulk batch. */
    std::vector<ReadyQueue::Entry> wake_batch_;
    std::vector<MemRef> node_gates_;
    std::vector<bool> cpu_used_;
    SimTime now_ = 0;
    int current_tid_ = -1;
    /** Threads retired so far (timed mode; finished or died). */
    std::size_t done_ = 0;
    /** Timed mode: the thread a direct switch just left, until the
     *  fiber switched into records its resume_sp (note_switched_in). */
    ThreadHot* switched_out_ = nullptr;
    /** Timed mode: a failure raised on a fiber, for run_timed() (fail). */
    std::string diagnosis_;
    bool running_ = false;
    bool ran_ = false;
    /** Set by run() (SimContext::can_park_polls). */
    bool parks_polls_ = false;
    /** Set by run(): parks_polls_, and neither preemption, which draws at
     *  every wake, nor a contention series, which bins every serve. */
    bool replays_walks_ = false;
    /** Threads parked in lazy polls (ThreadHot::lazy). */
    std::size_t parked_polls_ = 0;
    std::uint64_t fiber_switches_ = 0;
    std::uint64_t run_ahead_picks_ = 0;
    std::uint64_t lazy_picks_ = 0;
    std::uint64_t replayed_picks_ = 0;
    std::uint64_t sched_steps_ = 0;
    StopReason stop_ = StopReason::Completed;
    FaultInjector* injector_ = nullptr;   // non-owning
    InvariantChecker* checker_ = nullptr; // non-owning
    Scheduler* scheduler_ = nullptr;      // non-owning
    obs::ProbeSink* probe_ = nullptr;     // non-owning
};

inline bool
SimContext::can_park_polls() const
{
    return machine_->parks_polls_;
}

/** Value of an idle is_spinning gate (the paper's "dummy value"). */
inline constexpr std::uint64_t kGateDummy = 0;

} // namespace nucalock::sim

#endif // NUCALOCK_SIM_ENGINE_HPP
