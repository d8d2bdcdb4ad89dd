/**
 * @file
 * The LockContext concept: the single API all lock algorithms are written
 * against, satisfied by both sim::SimContext (simulated NUCA) and
 * native::NativeContext (std::atomic on real threads).
 *
 * Operations mirror the paper's primitives: tas, swap, cas (returning the
 * previous value), plain load/store, a backoff delay measured in empty loop
 * iterations, and the thread's node_id (plus chip for hierarchical NUCAs).
 */
#ifndef NUCALOCK_LOCKS_CONTEXT_HPP
#define NUCALOCK_LOCKS_CONTEXT_HPP

#include <concepts>
#include <cstdint>

namespace nucalock::locks {

template <typename Ctx>
concept LockContext = requires(Ctx ctx, typename Ctx::Ref ref, std::uint64_t v) {
    typename Ctx::Machine;
    typename Ctx::Ref;
    { ctx.load(ref) } -> std::convertible_to<std::uint64_t>;
    { ctx.store(ref, v) };
    { ctx.cas(ref, v, v) } -> std::convertible_to<std::uint64_t>;
    { ctx.swap(ref, v) } -> std::convertible_to<std::uint64_t>;
    { ctx.tas(ref) } -> std::convertible_to<std::uint64_t>;
    { ctx.spin_while_equal(ref, v) } -> std::convertible_to<std::uint64_t>;
    { ctx.delay(v) };
    { ctx.thread_id() } -> std::convertible_to<int>;
    { ctx.cpu() } -> std::convertible_to<int>;
    { ctx.node() } -> std::convertible_to<int>;
    { ctx.chip() } -> std::convertible_to<int>;
    { ctx.num_nodes() } -> std::convertible_to<int>;
    { ctx.machine() } -> std::convertible_to<typename Ctx::Machine&>;
    { ctx.rng().next() } -> std::convertible_to<std::uint64_t>;
};

/**
 * Machine-side requirements: word allocation (with a home-node hint),
 * re-initialization of a word a lock reuses (recycle leaves it as alloc
 * returns a new one), the per-node is_spinning gates, topology access, and
 * token round-tripping for queue locks that store node references inside
 * lock words.
 */
template <typename M>
concept LockMachine = requires(M m, std::uint64_t v, int node, std::uint32_t n) {
    { m.alloc(v, node) };
    { m.alloc_array(n, v, node) };
    { m.recycle(M::ref_from_token(v), v, node) };
    { m.node_gate(node) };
    { m.max_threads() } -> std::convertible_to<int>;
    { m.topology() };
    { M::ref_from_token(v) };
};

} // namespace nucalock::locks

#endif // NUCALOCK_LOCKS_CONTEXT_HPP
