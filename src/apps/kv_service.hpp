/**
 * @file
 * KV lock-service workload: the app-model tier over src/structs/. A sharded
 * key-value store (structs::StripedMap) is driven by service threads
 * issuing a Zipf-skewed read/write/scan mix — the ROADMAP's "millions of
 * users" workload, reduced to the parameters that drive lock behaviour:
 * key-popularity skew (hot keys concentrate stripes), the op mix (reads
 * and writes are short critical sections, scans are long ones), and
 * resize storms (bursts of fresh-key inserts that trigger the map's
 * cooperative epoch migration — a fault-adjacent phase, since every op
 * after a storm may stall to migrate its stripe).
 *
 * Runs on the simulator backend and fills a harness::BenchResult, so the
 * whole report pipeline (traffic attribution, contention, order hash,
 * schema v5) applies unchanged; the structs-level telemetry rides along in
 * KvOutcome::structs and lands in the v5 per-run "structs" object.
 * Deterministic per seed: the op stream derives from each simulated
 * thread's engine-seeded rng, never from host state.
 */
#ifndef NUCALOCK_APPS_KV_SERVICE_HPP
#define NUCALOCK_APPS_KV_SERVICE_HPP

#include <cstdint>

#include "harness/results.hpp"
#include "harness/sim_run.hpp"
#include "locks/any_lock.hpp"
#include "structs/stats.hpp"

namespace nucalock::apps {

struct KvServiceConfig : harness::SimRunConfig
{
    /** Preloaded key population; Zipf rank r is key id r. */
    std::uint64_t keys = 4096;
    /** Map shards, each with its own lock (homed round-robin). */
    std::uint64_t stripes = 16;
    /** Initial buckets per stripe (doubles per resize epoch). */
    std::uint64_t buckets_per_stripe = 64;
    /** Zipf exponent for key popularity (0 = uniform, >1 = few hot keys). */
    double zipf_skew = 0.9;
    /** Op mix in percent; scans take the remainder. */
    int read_pct = 80;
    int write_pct = 15;
    /** Items visited per scan (one stripe lock held throughout). */
    std::uint32_t scan_len = 16;
    /** Value payload lines touched per op. */
    std::uint32_t value_lines = 2;
    /** Measured service ops per thread (excludes preload and storms). */
    std::uint64_t ops_per_thread = 1000;
    /** Mean think-time delay iterations between ops (+/-50%). */
    std::uint32_t think_iters = 400;
    /** Fresh-key insert bursts splitting the run into storm+mix phases. */
    int resize_storms = 1;
    /** Fresh keys each thread inserts per storm burst. */
    std::uint64_t storm_inserts_per_thread = 64;
};

/** One KV-service run: the harness-shaped result plus structs telemetry. */
struct KvOutcome
{
    harness::BenchResult bench;
    structs::KvStructsStats structs;
};

/**
 * Run the KV service under @p kind. total_acquires counts *service ops*
 * (preload inserts + reads + writes + scans + storm inserts), and
 * avg_iteration_ns is simulated ns per service op — the "which lock should
 * a sharded KV store use" headline bench_table_kv tabulates.
 */
KvOutcome run_kv_service(locks::LockKind kind, const KvServiceConfig& config);

} // namespace nucalock::apps

#endif // NUCALOCK_APPS_KV_SERVICE_HPP
