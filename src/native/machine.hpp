/**
 * @file
 * Native (real-thread) backend: the same context interface the simulator
 * provides, implemented over std::atomic and OS threads, so every lock
 * algorithm in src/locks/ runs unmodified on real hardware.
 */
#ifndef NUCALOCK_NATIVE_MACHINE_HPP
#define NUCALOCK_NATIVE_MACHINE_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/compiler.hpp"
#include "common/rng.hpp"
#include "native/phase_hooks.hpp"
#include "topology/mapping.hpp"
#include "topology/topology.hpp"

namespace nucalock::obs {
class ProbeSink;
}

namespace nucalock::native {

class NativeMachine;

/** Words per cache line; shared words are spaced one line apart. */
inline constexpr std::uint32_t kWordsPerLine =
    kCacheLineBytes / sizeof(std::uint64_t);

/** Handle to one shared word (cache-line spaced std::atomic). */
struct NativeRef
{
    std::atomic<std::uint64_t>* word = nullptr;

    bool valid() const { return word != nullptr; }

    /** Nonzero identity (the address), used as an is_spinning gate value. */
    std::uint64_t token() const { return reinterpret_cast<std::uintptr_t>(word); }

    /** The @p i-th word of an array allocated with alloc_array(). */
    NativeRef at(std::uint32_t i) const { return NativeRef{word + kWordsPerLine * i}; }

    friend bool operator==(const NativeRef&, const NativeRef&) = default;
};

/** Native machine configuration. */
struct NativeConfig
{
    std::uint64_t seed = 1;
    /** Pin threads to OS cpus (needs os_cpu_of from topology/host.hpp). */
    bool pin = false;
    /** os_cpu_of[dense_cpu] = OS cpu id; required when pin is true. */
    std::vector<int> os_cpu_of;
    /**
     * In spin loops, call std::this_thread::yield() every this many polls —
     * required for forward progress on oversubscribed hosts.
     */
    std::uint32_t yield_every = 64;
};

/** Per-thread execution context over real hardware. */
class NativeContext
{
  public:
    using Machine = NativeMachine;
    using Ref = NativeRef;

    int thread_id() const { return tid_; }
    int cpu() const { return cpu_; }
    int node() const { return node_; }
    int chip() const { return chip_; }
    int num_nodes() const;

    Machine& machine() { return *machine_; }
    Xoshiro256& rng() { return rng_; }

    std::uint64_t
    load(Ref ref)
    {
        return ref.word->load(std::memory_order_acquire);
    }

    void
    store(Ref ref, std::uint64_t value)
    {
        ref.word->store(value, std::memory_order_release);
    }

    std::uint64_t
    cas(Ref ref, std::uint64_t expected, std::uint64_t desired)
    {
        std::uint64_t old = expected;
        ref.word->compare_exchange_strong(old, desired,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
        return old; // previous value on failure, `expected` on success
    }

    std::uint64_t
    swap(Ref ref, std::uint64_t value)
    {
        return ref.word->exchange(value, std::memory_order_acq_rel);
    }

    std::uint64_t
    tas(Ref ref)
    {
        return swap(ref, 1);
    }

    /**
     * Observability-only read (see sim::SimContext::peek): a relaxed load
     * with no ordering obligations. Only for probes, never for locks.
     */
    std::uint64_t
    peek(Ref ref) const
    {
        return ref.word->load(std::memory_order_relaxed);
    }

    /**
     * The machine's installed probe sink (nullptr = observability off).
     * Native probes fire concurrently — install a ThreadSafeSink.
     */
    obs::ProbeSink* probe_sink() const { return probe_; }

    /**
     * Phase-transition hooks (see obs/probe.hpp: note_op_phase routes
     * lock events here). No-ops unless the machine has PhaseHooks
     * installed and bind_thread returned a recorder for this thread —
     * then every transition lands a (lock, phase) boundary on it, which
     * the hardware-counter observatory turns into per-phase deltas.
     */
    void
    set_op_phase(std::uint64_t lock_id, sim::TxPhase phase)
    {
        if (phase_ != nullptr) [[unlikely]]
            phase_->on_phase(lock_id, phase);
    }

    /** One-off phase marker (GT gate publish); see PhaseRecorder. */
    void
    set_transient_phase(sim::TxPhase phase)
    {
        if (phase_ != nullptr) [[unlikely]]
            phase_->on_transient_phase(phase);
    }

    /** Poll until the word differs from @p value; returns what it saw. */
    std::uint64_t spin_while_equal(Ref ref, std::uint64_t value);

    /** Busy-wait @p iterations empty loop iterations (backoff delay). */
    void
    delay(std::uint64_t iterations)
    {
        spin_cycles(iterations);
    }

    /** Busy-wait approximately @p ns nanoseconds. */
    void delay_ns(std::uint64_t ns);

    /** Read (and when @p write, increment) @p count array words. */
    void touch_array(Ref first, std::uint32_t count, bool write);

    /**
     * Critical-section markers (see sim::SimContext): no-ops here — the
     * fault-injection/invariant subsystem is simulator-only, the markers
     * exist so workload code compiles against either backend.
     */
    void cs_wait_begin() {}
    void cs_wait_abort() {}
    void cs_enter() {}
    void cs_exit() {}

  private:
    friend class NativeMachine;

    NativeMachine* machine_ = nullptr;
    int tid_ = -1;
    int cpu_ = -1;
    int node_ = -1;
    int chip_ = -1;
    std::uint32_t yield_every_ = 64;
    obs::ProbeSink* probe_ = nullptr;    // non-owning, copied from the machine
    PhaseRecorder* phase_ = nullptr;     // non-owning, bound in make_context
    Xoshiro256 rng_{0};
};

/**
 * The native machine: a logical NUCA topology laid over the host, shared
 * word allocation, per-node gates, and a thread runner that binds threads
 * to (logical) cpus.
 */
class NativeMachine
{
  public:
    explicit NativeMachine(Topology topo, NativeConfig cfg = NativeConfig{});

    NativeMachine(const NativeMachine&) = delete;
    NativeMachine& operator=(const NativeMachine&) = delete;

    const Topology& topology() const { return topo_; }
    const NativeConfig& config() const { return cfg_; }
    int max_threads() const { return topo_.num_cpus(); }

    /**
     * Allocate one shared word. @p home_node is advisory only: first-touch
     * NUMA placement is left to the OS (documented substitution — the
     * paper's CMR placement needs platform support we cannot assume).
     */
    NativeRef alloc(std::uint64_t init, int home_node = 0);

    /** Allocate @p count words on consecutive cache lines. */
    NativeRef alloc_array(std::uint32_t count, std::uint64_t init,
                          int home_node = 0);

    /**
     * Re-initialize a word a lock reuses to @p init, as alloc() would
     * return it. A relaxed store: the caller read the word's last value
     * with acquire (or took it through a mutex), and the release that
     * publishes the word again orders this store.
     */
    void
    recycle(NativeRef ref, std::uint64_t init, int /*home_node*/)
    {
        ref.word->store(init, std::memory_order_relaxed);
    }

    /** The per-node is_spinning gate word (see HBO_GT). */
    NativeRef node_gate(int node);

    /** Rebuild a Ref from a token produced by NativeRef::token(). */
    static NativeRef
    ref_from_token(std::uint64_t token)
    {
        return NativeRef{reinterpret_cast<std::atomic<std::uint64_t>*>(
            static_cast<std::uintptr_t>(token))};
    }

    /**
     * Run @p count OS threads placed per @p policy; each executes
     * @p body(ctx, index) once all threads have been created. Joins all.
     */
    void run_threads(int count, Placement policy,
                     const std::function<void(NativeContext&, int)>& body);

    /**
     * Make a context for an externally managed thread occupying dense cpu
     * @p cpu (used by examples, tests and single-threaded probes).
     */
    NativeContext make_context(int tid, int cpu);

    /**
     * Install a lock-event probe sink (non-owning; nullptr uninstalls).
     * Must be thread-safe (obs::ThreadSafeSink) — contexts created after
     * this call emit to it from their own OS threads.
     */
    void install_probe(obs::ProbeSink* sink) { probe_ = sink; }
    obs::ProbeSink* probe() const { return probe_; }

    /**
     * Install phase-transition hooks (non-owning; nullptr uninstalls).
     * Contexts created after this call — make_context runs on the
     * context's own OS thread under run_threads — bind a per-thread
     * PhaseRecorder via hooks->bind_thread(tid, cpu), so a perf-counter
     * session opens its counter group on the thread it will count.
     */
    void install_phase_hooks(PhaseHooks* hooks) { phase_hooks_ = hooks; }
    PhaseHooks* phase_hooks() const { return phase_hooks_; }

    /** Chunks allocated so far: one per alloc() and alloc_array() call,
     *  and one per node gate first asked for. Nothing is freed before
     *  the machine, so this is the machine's memory in chunks. */
    std::size_t
    num_chunks() const
    {
        const std::lock_guard<std::mutex> guard(alloc_mutex_);
        return chunks_.size();
    }

  private:
    using Chunk = std::unique_ptr<std::atomic<std::uint64_t>[]>;

    /** Allocate a chunk of @p count line-aligned words set to @p init;
     *  the caller holds alloc_mutex_. */
    NativeRef new_chunk_locked(std::uint32_t count, std::uint64_t init);

    Topology topo_;
    NativeConfig cfg_;
    mutable std::mutex alloc_mutex_;
    std::vector<Chunk> chunks_;
    std::vector<NativeRef> node_gates_;
    obs::ProbeSink* probe_ = nullptr;      // non-owning
    PhaseHooks* phase_hooks_ = nullptr;    // non-owning
};

} // namespace nucalock::native

#endif // NUCALOCK_NATIVE_MACHINE_HPP
