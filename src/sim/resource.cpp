#include "sim/resource.hpp"

#include "common/logging.hpp"

namespace nucalock::sim {

Resource::Resource(std::string name) : name_(std::move(name))
{
    NUCA_ASSERT(!name_.empty());
}

void
Resource::record_series_bin(SimTime start, SimTime occupancy)
{
    // The whole occupancy is attributed to the bin service starts in;
    // occupancies are tens of ns against bins of tens of µs, so the
    // spill error is negligible for a utilisation timeline.
    const std::size_t bin = static_cast<std::size_t>(start / series_bin_ns_);
    if (bin >= busy_bins_.size()) {
        busy_bins_.resize(bin + 1, 0);
        tx_bins_.resize(bin + 1, 0);
    }
    busy_bins_[bin] += occupancy;
    ++tx_bins_[bin];
}

void
Resource::enable_series(SimTime bin_ns)
{
    series_bin_ns_ = bin_ns;
    if (bin_ns == 0) {
        busy_bins_.clear();
        tx_bins_.clear();
    }
}

ResourceUsage
Resource::usage(int node) const
{
    ResourceUsage u;
    u.name = name_;
    u.node = node;
    u.transactions = transactions_;
    u.busy_ns = busy_;
    u.queue_ns = queued_;
    u.queue_delay_ns = queue_delay_;
    u.series_bin_ns = series_bin_ns_;
    u.busy_ns_bins = busy_bins_;
    u.tx_bins = tx_bins_;
    return u;
}

} // namespace nucalock::sim
