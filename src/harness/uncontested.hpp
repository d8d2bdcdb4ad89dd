/**
 * @file
 * Uncontested-latency microbenchmark (paper section 5.1, Table 1).
 *
 * Measures one acquire-release pair when the previous owner is (a) the same
 * processor, (b) another processor in the same node, (c) a processor in a
 * remote node — with no concurrent contention (ownership alternates through
 * an out-of-band turn variable that is not part of the measured interval).
 */
#ifndef NUCALOCK_HARNESS_UNCONTESTED_HPP
#define NUCALOCK_HARNESS_UNCONTESTED_HPP

#include <cstdint>

#include "locks/any_lock.hpp"
#include "locks/params.hpp"
#include "sim/engine.hpp"

namespace nucalock::harness {

/** Average acquire+release latency (ns) for the three Table 1 scenarios. */
struct UncontestedResult
{
    double same_processor_ns = 0.0;
    double same_node_ns = 0.0;
    double remote_node_ns = 0.0;
};

/** Each scenario places its own one or two threads, so the config has no
 *  thread count or placement. */
struct UncontestedConfig
{
    Topology topology = Topology::wildfire();
    sim::LatencyModel latency = sim::LatencyModel::wildfire();
    locks::LockParams params;
    /** Measured pairs per scenario. */
    std::uint32_t iterations = 1000;
    std::uint64_t seed = 1;
};

/** Run all three scenarios for @p kind. */
UncontestedResult run_uncontested(locks::LockKind kind,
                                  const UncontestedConfig& config);

/**
 * Measure the average acquire+release pair latency when ownership
 * alternates between @p cpu_a and @p cpu_b (equal cpus = same-processor
 * scenario).
 */
double measure_handover_ns(locks::LockKind kind, const UncontestedConfig& config,
                           int cpu_a, int cpu_b);

} // namespace nucalock::harness

#endif // NUCALOCK_HARNESS_UNCONTESTED_HPP
