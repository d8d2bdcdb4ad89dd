/**
 * @file
 * Striped hash map templated over any LockContext: the first consumer-side
 * data structure of the lock library (ROADMAP "lock-backed data-structure
 * service layer"). N stripes, each guarded by its own AnyLock homed
 * round-robin across the machine's nodes, so per-stripe lock ids flow into
 * sim/traffic.hpp attribution as N distinct rows (AnyLock::lock_id maps
 * stripe index -> attribution row).
 *
 * Resizing is *cooperative*: a global epoch word names the current table
 * generation; a thread entering any stripe first migrates that stripe to
 * the current epoch (rehash into twice the buckets per epoch step) before
 * doing its own op. Growth work is therefore spread across whichever
 * threads happen to touch each stripe — nobody stops the world — and the
 * stall each op pays is recorded (KvStructsStats::resize_stall_ns). An
 * insert that pushes its stripe past the load factor CASes the epoch up;
 * losing the race is benign (someone else advanced it).
 *
 * Memory modeling: the authoritative per-stripe item count lives in a
 * simulated word (meta), read and written through the stripe's critical
 * section — under a broken lock two concurrent puts both read n and both
 * store n+1, so a lost update is *observable* as meta < host size, which
 * is what check/structs_check.hpp audits. Bucket/value payload is modeled
 * by touch_array over a per-stripe line array, giving the critical-section
 * data traffic the paper's Table 6 attributes.
 *
 * Works on both backends. The checker-only `plant_skip_lock` knob (skip
 * stripe locking on writes) exists to validate the audit oracle under
 * --expect-fail; it is only meaningful on the simulator, where host-side
 * code between decision points is serialized.
 */
#ifndef NUCALOCK_STRUCTS_STRIPED_MAP_HPP
#define NUCALOCK_STRUCTS_STRIPED_MAP_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/compiler.hpp"
#include "common/logging.hpp"
#include "locks/any_lock.hpp"
#include "locks/context.hpp"
#include "locks/instrumented.hpp" // detail::lock_clock_ns
#include "structs/stats.hpp"

namespace nucalock::structs {

/** SplitMix64: deterministic key hash (std::hash is implementation-defined
 *  and would break cross-platform report byte-identity). */
inline std::uint64_t
hash_key(std::uint64_t key)
{
    std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

template <locks::LockContext Ctx>
class StripedMap
{
  public:
    using Machine = typename Ctx::Machine;
    using Ref = typename Ctx::Ref;

    struct Config
    {
        std::size_t stripes = 8;
        /** Buckets per stripe at epoch 0; doubles every epoch. */
        std::size_t initial_buckets = 8;
        /** Mean chain length that triggers an epoch bump. */
        double max_load_factor = 4.0;
        /** Growth cap: epoch never exceeds this (buckets << epoch). */
        std::uint64_t max_epochs = 16;
        /** Payload lines touched per op beyond the bucket line. */
        std::uint32_t value_lines = 1;
        /** Simulated lines modeling each stripe's bucket directory. */
        std::uint32_t data_lines = 8;
        locks::LockParams params;
        /** Checker plant: skip stripe locking on writes (sim-only; makes
         *  the lost-update audit fire). Never set outside the checker. */
        bool plant_skip_lock = false;
    };

    StripedMap(Machine& machine, locks::LockKind kind, const Config& cfg = {})
        : cfg_(cfg), epoch_word_(machine.alloc(0, 0))
    {
        NUCA_ASSERT(cfg_.stripes > 0 && cfg_.initial_buckets > 0);
        const int nodes = machine.topology().num_nodes();
        stripes_.reserve(cfg_.stripes);
        for (std::size_t s = 0; s < cfg_.stripes; ++s) {
            const int home = static_cast<int>(s) % nodes;
            stripes_.push_back(std::make_unique<Stripe>(
                machine, kind, cfg_.params, home, cfg_.initial_buckets,
                cfg_.data_lines));
        }
    }

    /** Insert or overwrite; returns true when the key was new. */
    bool
    put(Ctx& ctx, std::uint64_t key, std::uint64_t value)
    {
        const std::uint64_t h = hash_key(key);
        Stripe& st = stripe_of(h);
        const bool locked = enter(ctx, st);
        catch_up(ctx, st);
        const std::uint64_t n = ctx.load(st.meta);
        auto& chain = st.buckets[bucket_of(st, h)];
        bool fresh = true;
        for (auto& kv : chain)
            if (kv.first == key) {
                kv.second = value;
                fresh = false;
                break;
            }
        if (fresh)
            chain.emplace_back(key, value);
        ctx.touch_array(st.data, 1 + cfg_.value_lines, true);
        if (fresh) {
            ctx.store(st.meta, n + 1);
            maybe_grow(ctx, st, n + 1);
        }
        leave(ctx, st, locked);
        return fresh;
    }

    std::optional<std::uint64_t>
    get(Ctx& ctx, std::uint64_t key)
    {
        const std::uint64_t h = hash_key(key);
        Stripe& st = stripe_of(h);
        const bool locked = enter(ctx, st);
        catch_up(ctx, st);
        (void)ctx.load(st.meta); // directory line read
        std::optional<std::uint64_t> found;
        for (const auto& kv : st.buckets[bucket_of(st, h)])
            if (kv.first == key) {
                found = kv.second;
                break;
            }
        ctx.touch_array(st.data, 1 + cfg_.value_lines, false);
        leave(ctx, st, locked);
        return found;
    }

    /** Returns true when the key existed. */
    bool
    erase(Ctx& ctx, std::uint64_t key)
    {
        const std::uint64_t h = hash_key(key);
        Stripe& st = stripe_of(h);
        const bool locked = enter(ctx, st);
        catch_up(ctx, st);
        const std::uint64_t n = ctx.load(st.meta);
        auto& chain = st.buckets[bucket_of(st, h)];
        bool existed = false;
        for (std::size_t i = 0; i < chain.size(); ++i)
            if (chain[i].first == key) {
                chain[i] = chain.back();
                chain.pop_back();
                existed = true;
                break;
            }
        ctx.touch_array(st.data, 1 + cfg_.value_lines, true);
        if (existed)
            ctx.store(st.meta, n - 1);
        leave(ctx, st, locked);
        return existed;
    }

    /**
     * Range scan within start_key's stripe: walk buckets forward from the
     * key's bucket, visiting up to @p limit items. Returns the number
     * visited; @p sum (optional) accumulates their values. Holding one
     * stripe lock for the whole walk is the long-critical-section op class
     * of the KV mix.
     */
    std::size_t
    scan(Ctx& ctx, std::uint64_t start_key, std::uint32_t limit,
         std::uint64_t* sum = nullptr)
    {
        const std::uint64_t h = hash_key(start_key);
        Stripe& st = stripe_of(h);
        const bool locked = enter(ctx, st);
        catch_up(ctx, st);
        (void)ctx.load(st.meta);
        const std::size_t buckets = st.buckets.size();
        std::size_t visited = 0;
        for (std::size_t i = 0; i < buckets && visited < limit; ++i) {
            const auto& chain = st.buckets[(bucket_of(st, h) + i) % buckets];
            for (const auto& kv : chain) {
                if (visited >= limit)
                    break;
                ++visited;
                if (sum != nullptr)
                    *sum += kv.second;
            }
        }
        const auto lines = static_cast<std::uint32_t>(
            std::min<std::size_t>(1 + visited / 4, cfg_.data_lines));
        ctx.touch_array(st.data, lines, false);
        leave(ctx, st, locked);
        return visited;
    }

    std::size_t num_stripes() const { return stripes_.size(); }

    /** Quiesced-only: total items as the host side sees them. */
    std::uint64_t
    host_size() const
    {
        std::uint64_t total = 0;
        for (const auto& st : stripes_)
            for (const auto& chain : st->buckets)
                total += chain.size();
        return total;
    }

    /** Stripe s's authoritative simulated count word (audit / peek). */
    const Ref&
    stripe_meta(std::size_t s) const
    {
        return stripes_[s]->meta;
    }

    /** Stripe s's lock id: labels its sim/traffic.hpp attribution row. */
    std::uint64_t
    stripe_lock_id(std::size_t s) const
    {
        return stripes_[s]->lock.lock_id();
    }

    const StripeStats&
    stripe_stats(std::size_t s) const
    {
        return stripes_[s]->stats;
    }

    std::uint64_t resize_epochs() const { return resize_epochs_; }
    std::uint64_t resize_migrated_keys() const { return migrated_keys_; }
    std::uint64_t resize_stalls() const { return resize_stalls_; }
    const stats::LogHistogram& resize_stall_ns() const { return stall_ns_; }

    /** Fill the structure-owned slice of a KvStructsStats record. */
    void
    collect(KvStructsStats& out) const
    {
        out.per_stripe.clear();
        out.per_stripe.reserve(stripes_.size());
        for (const auto& st : stripes_)
            out.per_stripe.push_back(st->stats);
        out.resize_epochs = resize_epochs_;
        out.resize_migrated_keys = migrated_keys_;
        out.resize_stalls = resize_stalls_;
        out.resize_stall_ns = stall_ns_;
    }

  private:
    /** Cache-line aligned: on real threads, the holders of different
     *  stripes' locks write their own stripe's stats and last_holder_*
     *  fields, and neighbouring heap objects shared lines. Host layout only;
     *  simulated runs cannot see it. */
    struct alignas(kCacheLineBytes) Stripe
    {
        Stripe(Machine& machine, locks::LockKind kind,
               const locks::LockParams& params, int home,
               std::size_t initial_buckets, std::uint32_t data_lines)
            : lock(machine, kind, params, home),
              meta(machine.alloc(0, home)),
              data(machine.alloc_array(data_lines, 0, home)),
              buckets(initial_buckets)
        {
            stats.lock_id = lock.lock_id();
        }

        locks::AnyLock<Ctx> lock;
        Ref meta;
        Ref data;
        std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
            buckets;
        std::uint64_t epoch = 0;
        StripeStats stats;
        int last_holder_tid = -1;
        int last_holder_node = -1;
    };

    Stripe&
    stripe_of(std::uint64_t h)
    {
        return *stripes_[(h >> 32) % stripes_.size()];
    }

    std::size_t
    bucket_of(const Stripe& st, std::uint64_t h) const
    {
        return (h & 0xffffffffULL) % st.buckets.size();
    }

    /** Acquire the stripe lock (unless planted out) and track custody. */
    bool
    enter(Ctx& ctx, Stripe& st)
    {
        if (cfg_.plant_skip_lock)
            return false;
        st.lock.acquire(ctx);
        const int tid = ctx.thread_id();
        const int node = ctx.node();
        ++st.stats.acquisitions;
        if (st.last_holder_tid >= 0 && st.last_holder_tid != tid) {
            if (st.last_holder_node == node)
                ++st.stats.handovers_local;
            else
                ++st.stats.handovers_remote;
        }
        st.last_holder_tid = tid;
        st.last_holder_node = node;
        return true;
    }

    void
    leave(Ctx& ctx, Stripe& st, bool locked)
    {
        if (locked)
            st.lock.release(ctx);
    }

    /** Cooperative resize: migrate this stripe to the global epoch. */
    void
    catch_up(Ctx& ctx, Stripe& st)
    {
        const std::uint64_t target = ctx.load(epoch_word_);
        if (st.epoch >= target)
            return;
        const std::uint64_t t0 = locks::detail::lock_clock_ns(ctx);
        std::uint64_t moved = 0;
        while (st.epoch < target) {
            std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
                grown(st.buckets.size() * 2);
            for (auto& chain : st.buckets)
                for (auto& kv : chain) {
                    const std::uint64_t h = hash_key(kv.first);
                    grown[(h & 0xffffffffULL) % grown.size()].push_back(kv);
                    ++moved;
                }
            st.buckets.swap(grown);
            ++st.epoch;
        }
        // The rehash sweeps the whole directory: touch it wholesale.
        ctx.touch_array(st.data, cfg_.data_lines, true);
        st.stats.migrations += moved;
        migrated_keys_ += moved;
        ++resize_stalls_;
        stall_ns_.add(locks::detail::lock_clock_ns(ctx) - t0);
    }

    /** Insert-side growth trigger: CAS the global epoch up (race benign). */
    void
    maybe_grow(Ctx& ctx, Stripe& st, std::uint64_t items)
    {
        if (static_cast<double>(items) <=
            cfg_.max_load_factor * static_cast<double>(st.buckets.size()))
            return;
        if (st.epoch >= cfg_.max_epochs)
            return;
        if (ctx.cas(epoch_word_, st.epoch, st.epoch + 1) == st.epoch)
            ++resize_epochs_;
    }

    Config cfg_;
    Ref epoch_word_;
    std::vector<std::unique_ptr<Stripe>> stripes_;
    std::uint64_t resize_epochs_ = 0;
    std::uint64_t migrated_keys_ = 0;
    std::uint64_t resize_stalls_ = 0;
    stats::LogHistogram stall_ns_;
};

} // namespace nucalock::structs

#endif // NUCALOCK_STRUCTS_STRIPED_MAP_HPP
