/**
 * @file
 * FIFO-queued shared resources (node buses, the global interconnect link).
 *
 * Every coherence transaction occupies the resources it traverses for a
 * fixed occupancy. Under contention, transactions queue, which is the
 * mechanism that makes TATAS handover time grow with the number of spinners
 * and is the core of the paper's traffic argument.
 *
 * Beyond the aggregate busy/queue totals, each resource keeps a queue-delay
 * histogram (always on — it is pure accounting and never affects timing)
 * and, when enable_series() is called before the run, a time-binned
 * busy/transaction series for utilisation timelines (Perfetto counter
 * tracks, obs/timeline.hpp).
 */
#ifndef NUCALOCK_SIM_RESOURCE_HPP
#define NUCALOCK_SIM_RESOURCE_HPP

#include <string>
#include <vector>

#include "common/logging.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace nucalock::sim {

/**
 * Copyable usage snapshot of one resource (harness results carry these out
 * of the machine, see ContentionStats).
 */
struct ResourceUsage
{
    std::string name;
    /** Initiating-side node for a node bus; -1 for the global link. */
    int node = -1;
    std::uint64_t transactions = 0;
    SimTime busy_ns = 0;
    SimTime queue_ns = 0;
    /** Per-transaction time spent waiting before service. */
    stats::LogHistogram queue_delay_ns;
    /** Bin width of the series below; 0 = series disabled. */
    SimTime series_bin_ns = 0;
    /** Busy ns per time bin (bin i covers [i*bin, (i+1)*bin)). */
    std::vector<std::uint64_t> busy_ns_bins;
    /** Transactions served per time bin. */
    std::vector<std::uint64_t> tx_bins;
};

/**
 * Per-resource contention snapshot of a whole run: every node bus (in node
 * order) followed by the global link. Deterministic for a given seed and
 * bit-identical across --jobs levels and probes on/off.
 */
struct ContentionStats
{
    /** Simulated end time the snapshot was taken at. */
    SimTime sim_time_ns = 0;
    /** Bin width of any recorded series; 0 = series disabled. */
    SimTime series_bin_ns = 0;
    std::vector<ResourceUsage> resources;

    /** The global-link entry, or nullptr when the snapshot is empty. */
    const ResourceUsage*
    global_link() const
    {
        for (const ResourceUsage& r : resources)
            if (r.node < 0)
                return &r;
        return nullptr;
    }
};

/** A single-server FIFO queue with deterministic service. */
class Resource
{
  public:
    explicit Resource(std::string name);

    /**
     * Serve a transaction arriving at @p arrival that holds the resource
     * for @p occupancy ns.
     * @return the time service completes (>= arrival + occupancy).
     *
     * Defined inline: a global access crosses three resources (two buses
     * and the link), so this runs up to three times per simulated memory
     * event and the call overhead is measurable at big topologies.
     */
    SimTime
    serve(SimTime arrival, SimTime occupancy)
    {
        const SimTime start = arrival > next_free_ ? arrival : next_free_;
        queued_ += start - arrival;
        queue_delay_.add(start - arrival);
        next_free_ = start + occupancy;
        busy_ += occupancy;
        ++transactions_;
        if (series_bin_ns_ != 0)
            record_series_bin(start, occupancy);
        return next_free_;
    }

    /**
     * What @p n serve() calls of @p occupancy ns record when each arrives
     * with the resource idle, the last at @p last_arrival: the replay of a
     * critical-section walk (SimMemory::replay_lines). Series recording
     * must be off.
     */
    void
    serve_idle(std::uint64_t n, SimTime last_arrival, SimTime occupancy)
    {
        NUCA_ASSERT(series_bin_ns_ == 0, "bulk serve with a series recorded");
        transactions_ += n;
        busy_ += n * occupancy;
        queue_delay_.add_zeros(n);
        next_free_ = last_arrival + occupancy;
    }

    const std::string& name() const { return name_; }
    std::uint64_t transactions() const { return transactions_; }
    SimTime busy_time() const { return busy_; }
    /** Total time transactions spent waiting before service. */
    SimTime queue_time() const { return queued_; }
    SimTime next_free() const { return next_free_; }

    /** Distribution of per-transaction queue delays (always recorded). */
    const stats::LogHistogram& queue_delay() const { return queue_delay_; }

    /**
     * Start recording a busy-time / transaction series in bins of
     * @p bin_ns (0 disables). Call before the run; recording mid-run
     * leaves earlier bins empty.
     */
    void enable_series(SimTime bin_ns);
    SimTime series_bin_ns() const { return series_bin_ns_; }
    const std::vector<std::uint64_t>& busy_ns_bins() const { return busy_bins_; }
    const std::vector<std::uint64_t>& tx_bins() const { return tx_bins_; }

    /** Copyable snapshot for results/reports. @p node as in ResourceUsage. */
    ResourceUsage usage(int node) const;

  private:
    /** Series bookkeeping, kept out of line so serve()'s inline body stays
     *  small (the series is off in benchmark runs). */
    void record_series_bin(SimTime start, SimTime occupancy);

    std::string name_;
    SimTime next_free_ = 0;
    SimTime busy_ = 0;
    SimTime queued_ = 0;
    std::uint64_t transactions_ = 0;
    stats::LogHistogram queue_delay_;
    SimTime series_bin_ns_ = 0;
    std::vector<std::uint64_t> busy_bins_;
    std::vector<std::uint64_t> tx_bins_;
};

} // namespace nucalock::sim

#endif // NUCALOCK_SIM_RESOURCE_HPP
