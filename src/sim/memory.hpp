/**
 * @file
 * Simulated cache-coherent memory with a NUCA timing model.
 *
 * Memory is modelled at lock-word granularity: every allocated word is its
 * own cache line with a directory entry (owner cpu + sharer set + home
 * node). Accesses return both the old value and a completion time computed
 * from the latency model plus FIFO queuing on the node buses and the global
 * link. Local and global coherence transactions are counted exactly the way
 * the paper's Tables 2 and 6 count them.
 *
 * Key modelling choices (see DESIGN.md):
 *  - A failed cas still acquires the line exclusively, as on SPARC/x86;
 *    this is what makes remote spinning with cas expensive and what the
 *    HBO_GT throttle exists to avoid.
 *  - Threads spin-waiting on a line register as watchers; any write or
 *    atomic by another cpu wakes them (their cached copy was invalidated),
 *    and the re-fetch they then perform models the refill burst after a
 *    lock release.
 *
 * Big-topology engineering (docs/performance.md, "big-topology engine"):
 * the per-line state is a 32-byte POD in a chunked arena; sharer sets are
 * multi-word bitsets in one slab (kMaxCpus is 1024, not the historical 64)
 * with a per-line node-summary mask so invalidation walks only nodes that
 * hold a copy; watcher lists are intrusive per-thread links (registration
 * and wake are allocation-free); and traffic attribution rows live in an
 * open-addressing flat table instead of a std::map.
 */
#ifndef NUCALOCK_SIM_MEMORY_HPP
#define NUCALOCK_SIM_MEMORY_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.hpp"
#include "sim/arena.hpp"
#include "sim/flat_table.hpp"
#include "sim/latency.hpp"
#include "sim/resource.hpp"
#include "sim/time.hpp"
#include "sim/traffic.hpp"
#include "topology/topology.hpp"

namespace nucalock::sim {

/** Handle to one simulated memory word (== one cache line). */
struct MemRef
{
    static constexpr std::uint32_t kInvalid = 0xffffffffu;

    std::uint32_t line = kInvalid;

    bool valid() const { return line != kInvalid; }

    /** Nonzero identity of this word, used as an is_spinning gate value. */
    std::uint64_t token() const { return static_cast<std::uint64_t>(line) + 1; }

    /** The @p i-th word of an array allocated with alloc_array(). */
    MemRef at(std::uint32_t i) const { return MemRef{line + i}; }

    friend bool operator==(const MemRef&, const MemRef&) = default;
};

/** Memory operation kinds. Cas/Swap/Tas are atomic read-modify-writes. */
enum class MemOp
{
    Load,
    Store,
    Cas,
    Swap,
    Tas,
};

/** Result of one simulated access. */
struct AccessOutcome
{
    /** Value of the word before the operation. */
    std::uint64_t old_value = 0;
    /** Time the operation completes (requester may proceed). */
    SimTime complete = 0;
    /** Whether watchers of the line must be woken (any write by another). */
    bool wakes_watchers = false;
};

/**
 * The simulated coherent memory. Sharer sets are multi-word bitsets sized
 * to the topology, so up to kMaxCpus cpus are supported; the per-line node
 * summary is a single word, capping nodes at kMaxNodes.
 */
class SimMemory
{
  public:
    static constexpr int kMaxCpus = 1024;
    static constexpr int kMaxNodes = 64;

    SimMemory(const Topology& topo, const LatencyModel& lat);

    SimMemory(const SimMemory&) = delete;
    SimMemory& operator=(const SimMemory&) = delete;

    /** Allocate one word, value @p init, homed in @p home_node. */
    MemRef alloc(std::uint64_t init, int home_node);

    /** Allocate @p count contiguous words; returns the first. */
    MemRef alloc_array(std::uint32_t count, std::uint64_t init, int home_node);

    /**
     * Reset line @p ref to exactly what alloc(@p init, @p home_node)
     * returns: the value, no owner, no sharers, the new home node. No
     * access is simulated. Asserts that no thread watches the line and
     * that it is not a node gate, so reusing a line some thread may still
     * read aborts the run.
     */
    void
    recycle(MemRef ref, std::uint64_t init, int home_node)
    {
        Line& line = line_of(ref);
        NUCA_ASSERT(line.watcher_head == -1, "recycling line ", ref.line,
                    " while thread ", line.watcher_head, " watches it");
        NUCA_ASSERT(!line.is_gate, "recycling node gate line ", ref.line);
        NUCA_ASSERT(home_node >= 0 && home_node < topo_.num_nodes(),
                    "home_node=", home_node);
        line = Line{};
        line.value = init;
        line.home_node = static_cast<std::int16_t>(home_node);
        std::fill_n(sharers_of(ref.line), words_per_line_, std::uint64_t{0});
    }

    /**
     * Perform @p op by @p cpu starting at @p now.
     * Cas: @p a = expected, @p b = desired. Store/Swap: @p a = new value.
     */
    AccessOutcome access(MemOp op, int cpu, SimTime now, MemRef ref,
                         std::uint64_t a = 0, std::uint64_t b = 0);

    /** Current value, without traffic or state change (tests/diagnostics). */
    std::uint64_t peek(MemRef ref) const;

    /** Set a value directly, bypassing coherence (setup only). */
    void poke(MemRef ref, std::uint64_t value);

    /**
     * Register @p tid as a spin-waiter on @p ref.
     * @return false if registration is refused because the current value
     *         already differs from @p watched (caller should not block).
     */
    bool watch(MemRef ref, int tid, std::uint64_t watched);

    /**
     * Move the watcher tids of @p ref into @p out (cleared first), in
     * registration order. Watchers are intrusive per-thread links, so both
     * registration and take are allocation-free; @p out is the engine's
     * reusable scratch buffer. (The old vector-returning overload is gone
     * on purpose — it reintroduced a per-wake allocation.)
     */
    void take_watchers(MemRef ref, std::vector<int>& out);

    /**
     * Remove @p tid from @p ref's watchers, keeping the others in
     * registration order: a parked backoff poll that ended by itself
     * (SimMachine). Aborts unless @p tid watches @p ref.
     */
    void unwatch(MemRef ref, int tid);

    /**
     * First watcher tid of @p ref, or -1 when nobody watches it. Pure
     * read, used by the engine to start prefetching the would-be-woken
     * thread's host-side state (ThreadHot, fiber, stack) before the
     * access itself is simulated — by wake time the prefetches have had
     * the whole route/serve/invalidate sequence to land. At 1024
     * simulated threads that state is cold on every lock handover.
     */
    int
    first_watcher(MemRef ref) const
    {
        return ref.valid() && ref.line < lines_.size()
                   ? lines_[ref.line].watcher_head
                   : -1;
    }

    /**
     * Flag @p ref as a per-node is_spinning gate word so the fault
     * injector's gate-store check (SimMachine::is_node_gate) is one flag
     * load instead of a scan over every node's gate ref.
     */
    void mark_node_gate(MemRef ref);

    /** Whether @p ref was flagged by mark_node_gate(). O(1). */
    bool
    is_node_gate(MemRef ref) const
    {
        return ref.valid() && ref.line < lines_.size() &&
               lines_[ref.line].is_gate;
    }

    std::uint32_t num_lines() const { return static_cast<std::uint32_t>(lines_.size()); }
    std::uint64_t num_accesses() const { return accesses_; }

    /**
     * Count @p n loads that hit in the issuing cpu's cache without being
     * run: the reloads of a parked backoff poll (SimMachine). A hit moves
     * no line and counts no transaction, so this counter is all it
     * changes.
     */
    void count_skipped_hits(std::uint64_t n) { accesses_ += n; }

    /**
     * Record one line of a critical-section walk, to replay its accesses
     * on the lines after it (SimMachine::walk). begin_line() snapshots
     * line @p ref's state and records, until end_line(), the traffic and
     * accesses counted and every resource serve made. It refuses a line
     * with watchers, whose write would wake them. drop_line() ends a
     * record that will not be replayed.
     */
    bool begin_line(MemRef ref);
    void drop_line() { rec_.active = false; }

    /**
     * End the record of line @p ref. Whether it can be replayed: every
     * serve found its resource idle. The same accesses to a line in the
     * same state, by the same cpu in the same op context, then take the
     * same time and have the same effects when issued a whole number of
     * periods later with no other transaction in between.
     */
    bool end_line(MemRef ref);

    /** Whether line @p ref's state, all but its value, is the recorded
     *  line's state before its accesses. */
    bool matches_line(MemRef ref) const;

    /**
     * Apply the ended record to the @p n lines from @p first, as if the
     * k-th of them had been accessed k * @p period after the recorded
     * line: each gets the recorded line's state after its accesses (and
     * its value 1 more when @p write), and the traffic, accesses and
     * resource serves are counted n times over.
     */
    void replay_lines(MemRef first, std::uint32_t n, bool write,
                      SimTime period);

    /**
     * Install a per-access trace hook (see sim/trace.hpp). Pass an empty
     * function to disable. The hook runs synchronously inside access().
     */
    void
    set_trace_hook(std::function<void(const struct TraceEvent&)> hook)
    {
        trace_hook_ = std::move(hook);
    }

    /** Whether a trace hook is installed, which must see every access. */
    bool has_trace_hook() const { return static_cast<bool>(trace_hook_); }

    /**
     * Install a global-link latency hook (fault injection): called with the
     * transaction start time, returns extra service time (ns) added to that
     * global-link crossing. Pass an empty function to disable.
     */
    void
    set_link_hook(std::function<SimTime(SimTime)> hook)
    {
        link_hook_ = std::move(hook);
    }

    const TrafficStats& traffic() const { return traffic_; }

    /**
     * Label the transactions of subsequent access() calls with the lock and
     * operation phase they belong to (set by the engine from the per-thread
     * op-context before every access). lock_id 0 / TxPhase::None leaves
     * them unattributed. Labelling is accounting only: it never changes
     * values, timing, or the TrafficStats totals.
     */
    void set_tx_context(std::uint64_t lock_id, TxPhase phase);

    /** Attribution snapshot: per-lock/per-phase and per-node tables. */
    TrafficAttribution attribution() const;

    /**
     * Record time-binned busy/transaction series on every node bus and the
     * global link (Resource::enable_series). Call before the run.
     */
    void enable_contention_series(SimTime bin_ns);

    /** Per-resource contention snapshot (buses in node order, then link). */
    ContentionStats contention(SimTime now) const;

    Resource& node_bus(int node);
    const Resource& node_bus(int node) const;
    Resource& global_link() { return global_link_; }
    const Resource& global_link() const { return global_link_; }

    /** Home node of a line (diagnostics). */
    int home_node(MemRef ref) const;
    /** Owner cpu of a line, or -1 when memory owns it (diagnostics). */
    int owner_cpu(MemRef ref) const;
    /** Whether @p cpu holds a valid copy of the line (diagnostics). */
    bool caches(MemRef ref, int cpu) const;

  private:
    /**
     * Per-line directory entry: a 32-byte trivially-copyable record. The
     * variable-size parts live outside the line — sharer bits in the
     * sharer_words_ slab, watcher links in watcher_next_ — so lines pack
     * densely in the arena and copying/growing never allocates per line.
     */
    struct Line
    {
        std::uint64_t value = 0;
        /** Bit per node holding a copy (owner included): the invalidation
         *  walk visits only these nodes instead of scanning all cpus. */
        std::uint64_t sharer_nodes = 0;
        std::int32_t watcher_head = -1; ///< first watcher tid, -1 = none
        std::int32_t watcher_tail = -1; ///< last watcher tid (FIFO append)
        std::int16_t owner_cpu = -1;
        std::int16_t home_node = 0;
        bool is_gate = false; // a node_gate() word (fault-injection check)
    };

    /** Bit range of one node's cpus inside a line's sharer words. */
    struct NodeSpan
    {
        std::int32_t first_word = 0;
        std::int32_t last_word = 0;
        std::uint64_t first_mask = 0; ///< valid bits in first_word
        std::uint64_t last_mask = 0;  ///< valid bits in last_word
    };

    Line& line_of(MemRef ref);
    const Line& line_of(MemRef ref) const;

    /** The sharer bitset of line @p line (words_per_line_ words). */
    std::uint64_t*
    sharers_of(std::uint32_t line)
    {
        return &sharer_words_[static_cast<std::size_t>(line) *
                              words_per_line_];
    }

    const std::uint64_t*
    sharers_of(std::uint32_t line) const
    {
        return &sharer_words_[static_cast<std::size_t>(line) *
                              words_per_line_];
    }

    /** Whether node @p node has a sharer bit besides @p cpu's in @p sw. */
    bool node_has_sharer_other_than(const std::uint64_t* sw, int node,
                                    int cpu) const;

    /**
     * One line of a walk, between begin_line() and end_line(): its state
     * before and after, the traffic and accesses it counted, and its
     * serves while each found its resource idle.
     */
    struct LineRecord
    {
        struct Serve
        {
            Resource* resource = nullptr;
            SimTime arrival = 0;
            SimTime occupancy = 0;
        };
        /** A remote fetch and a remote invalidation use six. */
        static constexpr std::size_t kMaxServes = 8;

        bool active = false;
        bool idle = true;
        Line pre;
        Line post;
        std::vector<std::uint64_t> pre_sharers;
        std::vector<std::uint64_t> post_sharers;
        /** The totals at begin_line(), the line's own after end_line(). */
        TrafficStats traffic;
        std::uint64_t accesses = 0;
        std::array<Serve, kMaxServes> serves{};
        std::size_t num_serves = 0;
    };

    /** Resource::serve(), noted in the line record while one is taken. */
    SimTime serve(Resource& r, SimTime arrival, SimTime occupancy);

    /** Queue one transaction from @p from_node to @p to_node at @p t. */
    SimTime route(SimTime t, int from_node, int to_node);

    /**
     * Count one transaction (local or global) of the given kind, also
     * crediting the current per-node and per-lock/per-phase attribution
     * rows (requester_node_ and the tx context).
     */
    void count_tx(bool global, std::uint64_t TrafficStats::* kind);

    /**
     * Fetch latency+queuing for @p cpu reading the line; counts one
     * transaction of @p kind (data_fetch_tx for plain loads/stores,
     * atomic_tx when the fetch serves an atomic read-modify-write).
     */
    SimTime fetch(const Line& line, int cpu, SimTime t,
                  std::uint64_t TrafficStats::* kind);

    /** Invalidate all other holders; returns completion; counts traffic. */
    SimTime invalidate_others(Line& line, const std::uint64_t* sw, int cpu,
                              SimTime t);

    const Topology& topo_;
    LatencyModel lat_;
    /** Per-line directory entries; chunked so mid-run allocation (structs
     *  resize) never copies or moves existing lines. */
    ChunkArena<Line> lines_;
    /** Sharer bitsets, words_per_line_ words per line, one slab. */
    std::vector<std::uint64_t> sharer_words_;
    std::uint32_t words_per_line_ = 1;
    /** Intrusive watcher links: watcher_next_[tid] chains the FIFO list of
     *  the line tid watches; watcher_line_[tid] is that line (kInvalid when
     *  not watching — also the double-watch assert). */
    std::vector<std::int32_t> watcher_next_;
    std::vector<std::uint32_t> watcher_line_;
    /** Dense cpu -> node/chip lookups (Topology's are binary searches). */
    std::vector<std::int16_t> cpu_node_;
    std::vector<std::int16_t> cpu_chip_;
    /** Per-node bit ranges inside a sharer bitset. */
    std::vector<NodeSpan> node_spans_;
    std::vector<Resource> node_buses_;
    Resource global_link_;
    TrafficStats traffic_;
    std::uint64_t accesses_ = 0;
    std::function<void(const struct TraceEvent&)> trace_hook_;
    std::function<SimTime(SimTime)> link_hook_;
    LineRecord rec_;

    // ----- traffic attribution (accounting only, never affects timing) ----
    /** Initiating node of the access in flight (set by access()). */
    int requester_node_ = 0;
    /** Per-initiating-node counts; indexed by node. */
    std::vector<TxCount> node_tx_;
    /** Per-lock/per-phase rows, keyed by probe lock id (open addressing;
     *  row indices are stable so the hot path caches one). */
    FlatTrafficTable lock_tx_;
    /** The op-context of the access in flight (set_tx_context). */
    std::uint64_t tx_lock_ = 0;
    TxPhase tx_phase_ = TxPhase::None;
    /** Cached row index for tx_lock_ (kNoRow when unattributed). */
    static constexpr std::uint32_t kNoRow = 0xffffffffu;
    std::uint32_t tx_lock_row_ = kNoRow;
};

} // namespace nucalock::sim

#endif // NUCALOCK_SIM_MEMORY_HPP
