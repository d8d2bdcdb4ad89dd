/**
 * @file
 * Runnable simulated threads keyed (wake, tid), as a tid-indexed winner
 * (tournament) tree.
 *
 * run_timed() used to pick the next thread with a linear scan over every
 * thread per event. Here each thread owns one leaf holding its packed key
 * `(wake << kTidBits) | tid`, or kAbsent while it is not queued; every
 * internal node holds the smaller key of its two children, so the root is
 * the pick. An update writes the leaf and climbs to the root carrying the
 * running minimum, reading only siblings: log2(leaves) steps with no
 * data-dependent branch (5 at 28 threads, 10 at 1024). The whole tree is
 * 16 bytes per leaf.
 *
 * The ordering is exactly the scan's: earliest wake first, ties broken by
 * lowest tid. That tie-break is part of the determinism contract — changing
 * it changes acquisition order hashes (pinned in tests/harness_test.cpp and
 * tests/exec_test.cpp). Packing the tid below the wake makes it one integer
 * compare.
 *
 * Wakes above kMaxWake saturate to it. SimMachine keeps max_sim_time below
 * kMaxWake, so a saturated key can only reorder picks that already fail the
 * time limit.
 */
#ifndef NUCALOCK_SIM_READY_QUEUE_HPP
#define NUCALOCK_SIM_READY_QUEUE_HPP

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"
#include "sim/time.hpp"

namespace nucalock::sim {

class ReadyQueue
{
  public:
    /** One (wake, tid) key, exposed for push_bulk() batches. */
    struct Entry
    {
        SimTime wake;
        int tid;
    };

    /** Bits of a key that hold the tid. */
    static constexpr int kTidBits = 10;
    /** Thread ids must be below this. */
    static constexpr std::size_t kMaxThreads = std::size_t{1} << kTidBits;
    /** Largest wake a key holds exactly; larger wakes saturate to it. */
    static constexpr SimTime kMaxWake = (~SimTime{0} >> kTidBits) - 1;

    /** Empty the queue and size it for tids below @p num_threads. */
    void
    reset(std::size_t num_threads)
    {
        NUCA_ASSERT(num_threads <= kMaxThreads, "ReadyQueue holds at most ",
                    kMaxThreads, " threads, asked for ", num_threads);
        leaves_ = std::bit_ceil(std::max<std::size_t>(num_threads, 1));
        tree_.assign(2 * leaves_, kAbsent);
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    bool contains(int tid) const { return leaf(tid) != kAbsent; }

    /** Thread id with the smallest (wake, tid). Queue must be non-empty. */
    int
    top_tid() const
    {
        NUCA_ASSERT(!empty(), "top of empty ReadyQueue");
        return static_cast<int>(tree_[1] & (kMaxThreads - 1));
    }

    /** Wake time of top_tid() (saturated). Queue must be non-empty. */
    SimTime
    top_wake() const
    {
        NUCA_ASSERT(!empty(), "top of empty ReadyQueue");
        return tree_[1] >> kTidBits;
    }

    /**
     * Whether @p tid at @p wake would be picked before the current top;
     * true on an empty queue. Reads the root only — the engine's run-ahead
     * test for the running thread, which is not queued.
     */
    bool
    before_top(int tid, SimTime wake) const
    {
        return key(wake, tid) < tree_[1];
    }

    /** Insert @p tid with key @p wake, or re-key it if already present. */
    void
    push_or_update(int tid, SimTime wake)
    {
        size_ += leaf(tid) == kAbsent;
        climb(tid, key(wake, tid));
    }

    /**
     * Insert (or re-key) a whole batch — the watcher-wake-storm path,
     * where a single release readies every spinner of a line. Each entry
     * costs one climb; the picks equal those of the same push_or_update()
     * calls.
     */
    void
    push_bulk(const Entry* entries, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            push_or_update(entries[i].tid, entries[i].wake);
    }

    /** Remove @p tid if present; no-op otherwise. */
    void
    remove(int tid)
    {
        size_ -= leaf(tid) != kAbsent;
        climb(tid, kAbsent);
    }

  private:
    /** Key of an absent thread; above every real key (see kMaxWake). */
    static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

    static std::uint64_t
    key(SimTime wake, int tid)
    {
        return std::min(wake, kMaxWake) << kTidBits |
               static_cast<std::uint64_t>(tid);
    }

    std::uint64_t
    leaf(int tid) const
    {
        return tree_[leaves_ + static_cast<std::size_t>(tid)];
    }

    /** Write @p k into @p tid's leaf and recompute every ancestor. */
    void
    climb(int tid, std::uint64_t k)
    {
        std::uint64_t* const t = tree_.data();
        std::size_t i = leaves_ + static_cast<std::size_t>(tid);
        t[i] = k;
        for (; i > 1; i >>= 1) {
            k = std::min(k, t[i ^ 1]);
            t[i >> 1] = k;
        }
    }

    std::vector<std::uint64_t> tree_; // [1] = root, [leaves_ + tid] = leaf
    std::size_t leaves_ = 0;          // a power of two
    std::size_t size_ = 0;
};

} // namespace nucalock::sim

#endif // NUCALOCK_SIM_READY_QUEUE_HPP
