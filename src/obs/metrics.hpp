/**
 * @file
 * Metrics registry: a ProbeSink that folds the lock-event stream into the
 * quantities the paper argues about — local vs remote handover ratios,
 * node-ownership batch lengths, backoff time breakdown, GT gate traffic
 * avoidance, SD anger episodes — aggregated per lock, per node, and per
 * CPU. Reuses stats::LogHistogram for latency spreads and stats::Summary
 * for batch lengths.
 *
 * Single-threaded (fine under the simulator, which serializes all probes
 * on the host thread); wrap in obs::ThreadSafeSink on the native backend.
 */
#ifndef NUCALOCK_OBS_METRICS_HPP
#define NUCALOCK_OBS_METRICS_HPP

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "obs/probe.hpp"
#include "sim/resource.hpp"
#include "sim/traffic.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace nucalock::obs {

/** ADAPTIVE's gear names, indexed like LockMetrics::gear_residency_ns:
 *  the strings of locks::adapt_gear_name(), which obs cannot call (locks
 *  depends on obs). adaptive_test pins the match. */
inline constexpr std::array<const char*, 3> kAdaptGearNames = {
    "tatas", "hbo", "queue"};

/** ADAPTIVE's switch reasons, indexed like LockMetrics::adapt_reasons:
 *  the strings of locks::adapt_reason_name(), pinned the same way. */
inline constexpr std::array<const char*, 5> kAdaptReasonNames = {
    "contention", "nuca_traffic", "quiet", "timeout_storm", "recovery"};

/** Counters for one BackoffClass within one lock. */
struct BackoffMetrics
{
    std::uint64_t episodes = 0;
    std::uint64_t total_ns = 0;
};

/** Per-node aggregation within one lock. */
struct NodeMetrics
{
    std::uint64_t acquisitions = 0;
    /** Acquisitions whose previous holder lived in another node. */
    std::uint64_t handovers_in = 0;
    /** Lengths of consecutive-acquisition batches this node enjoyed. */
    stats::Summary batch_lengths;
    std::uint64_t gate_blocked = 0;
    std::uint64_t gate_passed = 0;
};

/** Per-CPU aggregation (across all locks — CPUs are machine-global). */
struct CpuMetrics
{
    std::uint64_t acquisitions = 0;
    std::uint64_t backoff_episodes = 0;
    std::uint64_t backoff_ns = 0;
    stats::LogHistogram wait_ns;
    std::uint64_t cs_ns = 0;
};

/** Everything known about one lock (keyed by its probe lock_id). */
struct LockMetrics
{
    std::uint64_t lock_id = 0;
    std::uint64_t attempts = 0;
    std::uint64_t try_attempts = 0;
    std::uint64_t acquisitions = 0;
    std::uint64_t releases = 0;

    /** Handover: the previous holder was a different thread. */
    std::uint64_t handovers_local = 0;  ///< same node, different thread
    std::uint64_t handovers_remote = 0; ///< different node
    std::uint64_t repeats = 0;          ///< same thread re-acquired

    stats::LogHistogram wait_ns;
    stats::LogHistogram hold_ns;
    /** Same-node acquisition streak lengths (the paper's "node batches"). */
    stats::Summary node_batch_lengths;

    /** Indexed by BackoffClass (generic, local, remote). */
    BackoffMetrics backoff[kNumBackoffClasses];

    std::uint64_t gate_blocked = 0;
    std::uint64_t gate_passed = 0;
    std::uint64_t gate_publishes = 0;
    std::uint64_t gate_opens = 0;
    std::uint64_t angry_transitions = 0;
    std::uint64_t gates_closed_in_anger = 0;

    // ----- timed abandonment (locks with native try_acquire_for) ---------
    /** Timed acquisitions that returned false at their deadline. */
    std::uint64_t abandons = 0;
    /** Of those, abandonments that parked a node in the queue. */
    std::uint64_t abandons_parked = 0;
    /** Deadline hit but the handover won the race; lock accepted. */
    std::uint64_t abandon_grant_races = 0;
    /** Abandoned queue nodes unlinked by a releaser. */
    std::uint64_t reclaims = 0;
    /** Abandoned queue nodes resumed in place by their owner. */
    std::uint64_t rejoins = 0;
    /** Reclaimed nodes found and reused by their returning owner. */
    std::uint64_t unparks = 0;
    /** AbandonStart -> AbandonDone: the cost of leaving (recovery latency
     *  of the abandonment path itself, gate re-opens included). */
    stats::LogHistogram abandon_latency_ns;

    // ----- adaptive gear tracking (LockEvent::AdaptSwitch) ----------------
    /** At least one AdaptSwitch was seen (gates report emission). */
    bool adapt_seen = false;
    /** Gear switches, total and by AdaptReason (adaptive_policy.hpp). */
    std::uint64_t adapt_switches = 0;
    std::uint64_t adapt_reasons[kAdaptReasonNames.size()] = {};
    /** Event-time residency per gear (tatas, hbo, queue), measured from
     *  the lock's first event to its last. */
    std::uint64_t gear_residency_ns[kAdaptGearNames.size()] = {};
    /** First storm abandonment -> the TimeoutStorm demotion that answered
     *  it: how long degradation took to engage. */
    stats::LogHistogram demote_latency_ns;

    std::vector<NodeMetrics> per_node;

    /** Remote handovers / all handovers (0 when no handover happened). */
    double
    remote_handover_fraction() const
    {
        const std::uint64_t h = handovers_local + handovers_remote;
        return h == 0 ? 0.0
                      : static_cast<double>(handovers_remote) /
                            static_cast<double>(h);
    }

    /** Local handovers / all handovers — the paper's locality headline. */
    double
    local_handover_fraction() const
    {
        const std::uint64_t h = handovers_local + handovers_remote;
        return h == 0 ? 0.0
                      : static_cast<double>(handovers_local) /
                            static_cast<double>(h);
    }

    std::uint64_t
    backoff_ns_total() const
    {
        return backoff[0].total_ns + backoff[1].total_ns + backoff[2].total_ns;
    }

    /** Gate checks that found the gate closed, as a fraction. */
    double
    gate_block_fraction() const
    {
        const std::uint64_t checks = gate_blocked + gate_passed;
        return checks == 0 ? 0.0
                           : static_cast<double>(gate_blocked) /
                                 static_cast<double>(checks);
    }
};

/**
 * The registry itself. Feed it a probe stream; call finalize() (idempotent)
 * before reading so trailing node batches and open episodes are flushed.
 */
class MetricsRegistry final : public ProbeSink
{
  public:
    void on_event(const ProbeRecord& record) override;

    /** Flush trailing state (open node batches). Safe to call repeatedly. */
    void finalize();

    /**
     * The benchmark's top-level lock: the lock_id of the first event ever
     * emitted (outer acquires always probe before any nested tier), or 0
     * when nothing was recorded.
     */
    std::uint64_t primary_lock_id() const { return primary_lock_id_; }

    /** Metrics for @p lock_id; creates an empty record if absent. */
    const LockMetrics& lock(std::uint64_t lock_id) const;
    const LockMetrics* primary() const;

    const std::map<std::uint64_t, LockMetrics>& locks() const { return locks_; }
    const std::vector<CpuMetrics>& cpus() const { return cpus_; }

    std::uint64_t events_seen() const { return events_seen_; }

  private:
    struct ThreadState
    {
        /** Open acquire attempts, innermost last: (lock_id, start_ns). */
        std::vector<std::pair<std::uint64_t, std::uint64_t>> attempt_stack;
        /** Currently held locks: lock_id -> acquired time. */
        std::map<std::uint64_t, std::uint64_t> held_since;
        /** Open backoff episode start (BackoffBegin seen, End pending). */
        std::uint64_t backoff_start_ns = 0;
        BackoffClass backoff_class = BackoffClass::Generic;
        bool backoff_open = false;
        /** Open abandonment (AbandonStart seen, Done pending). */
        std::uint64_t abandon_start_ns = 0;
        bool abandon_open = false;
    };

    struct HolderState
    {
        int last_holder_thread = -1;
        int last_holder_node = -1;
        int batch_node = -1;
        std::uint64_t batch_length = 0;
    };

    /** Per-lock gear tracking for the adaptive metrics. */
    struct GearState
    {
        int gear = 0; ///< AdaptGear value; locks start in Tatas (0)
        std::uint64_t since_ns = 0;
        std::uint64_t last_ns = 0;
        bool started = false;
        /** First abandonment since the last switch (demotion latency). */
        std::uint64_t first_abandon_ns = 0;
        bool abandon_pending = false;
    };

    LockMetrics& lock_mut(std::uint64_t lock_id);
    NodeMetrics& node_of(LockMetrics& lm, int node);
    CpuMetrics& cpu_of(int cpu);
    ThreadState& thread_of(int tid);

    void close_batch(LockMetrics& lm, HolderState& hs);

    std::map<std::uint64_t, LockMetrics> locks_;
    std::map<std::uint64_t, HolderState> holders_;
    std::map<std::uint64_t, GearState> gears_;
    std::vector<CpuMetrics> cpus_;
    std::map<int, ThreadState> threads_;
    std::uint64_t primary_lock_id_ = 0;
    std::uint64_t events_seen_ = 0;
    bool finalized_ = false;
};

// ---------------------------------------------------------------------------
// Traffic metrics: attribution + contention folded to per-acquisition rates
// ---------------------------------------------------------------------------

/** One lock's traffic, normalised by its acquisition count. */
struct LockTrafficView
{
    std::uint64_t lock_id = 0;
    /** From the MetricsRegistry; 0 when no registry was supplied. */
    std::uint64_t acquisitions = 0;
    sim::LockTrafficStats tx;

    double
    local_per_acquisition() const
    {
        return acquisitions == 0 ? 0.0
                                 : static_cast<double>(tx.totals().local_tx) /
                                       static_cast<double>(acquisitions);
    }

    double
    global_per_acquisition() const
    {
        return acquisitions == 0 ? 0.0
                                 : static_cast<double>(tx.totals().global_tx) /
                                       static_cast<double>(acquisitions);
    }
};

/**
 * The traffic story of one run, in the shape the paper's Tables 2/6 and
 * Figure 7 report it: totals per acquisition, a per-lock/per-phase split,
 * the unattributed remainder (critical-section data, harness bookkeeping,
 * or everything when probes are compiled out), and the global-link
 * contention headline numbers.
 */
struct TrafficMetrics
{
    sim::TrafficStats totals;
    /** The harness's critical-section entry count (BenchResult). */
    std::uint64_t acquisitions = 0;
    /** Locks in attribution order (sorted by lock_id). */
    std::vector<LockTrafficView> locks;
    /** Sum over every attributed (lock, phase) cell. */
    sim::TxCount attributed;
    /** totals minus attributed (never negative by construction). */
    sim::TxCount unattributed;

    /** Global-link contention (zeroed when the run had no link entry). */
    bool has_link = false;
    double link_utilization = 0.0; ///< busy_ns / sim_time_ns
    stats::LogHistogram link_queue_delay_ns;

    double
    local_tx_per_acquisition() const
    {
        return acquisitions == 0 ? 0.0
                                 : static_cast<double>(totals.local_tx) /
                                       static_cast<double>(acquisitions);
    }

    double
    global_tx_per_acquisition() const
    {
        return acquisitions == 0 ? 0.0
                                 : static_cast<double>(totals.global_tx) /
                                       static_cast<double>(acquisitions);
    }
};

/**
 * Fold a run's traffic totals, attribution tables and contention snapshot
 * into per-acquisition rates. @p registry (optional) supplies per-lock
 * acquisition counts so nested tiers normalise by their own acquisitions
 * rather than the harness total.
 */
TrafficMetrics fold_traffic(const sim::TrafficStats& totals,
                            const sim::TrafficAttribution& attribution,
                            const sim::ContentionStats& contention,
                            std::uint64_t acquisitions,
                            const MetricsRegistry* registry = nullptr);

} // namespace nucalock::obs

#endif // NUCALOCK_OBS_METRICS_HPP
