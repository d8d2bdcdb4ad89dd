/**
 * @file
 * Per-host-thread pool of fiber stacks.
 *
 * A benchmark sweep constructs thousands of SimMachines, each of which
 * allocates one fiber stack per simulated thread
 * (SimConfig::fiber_stack_bytes). Allocated afresh, the stacks' pages
 * fault in again for every machine: with 256 KiB stacks, which the
 * allocator served with mmap/munmap, the page faults + TLB shootdowns took
 * ~1/3 of the fig5 bench's wall time before pooling. The pool keeps released
 * stacks on a thread-local free list and hands them back to the next Fiber
 * of the same size, so a sweep touches the kernel once per (host thread,
 * stack slot) instead of once per simulated thread.
 *
 * Thread-local on purpose: Executor workers each run whole SimMachines, so
 * stacks never migrate between host threads and the pool needs no locks.
 * The list is freed when the host thread exits.
 *
 * On Linux, big stacks are carved from 16 MiB huge-page-aligned slabs
 * (madvise(MADV_HUGEPAGE)) rather than allocated individually — a
 * big-topology run holds 1024 stacks, whose 4 KiB dTLB entries would
 * otherwise outnumber the TLB and turn every fiber handover into a page
 * walk. See the comment in stack_pool.cpp.
 */
#ifndef NUCALOCK_SIM_STACK_POOL_HPP
#define NUCALOCK_SIM_STACK_POOL_HPP

#include <cstddef>

namespace nucalock::sim {

class StackPool
{
  public:
    /** Get a stack of exactly @p bytes (pooled if available, else new). */
    static char* acquire(std::size_t bytes);

    /** Return a stack obtained from acquire(). Never throws. */
    static void release(char* stack, std::size_t bytes) noexcept;

    /** Stacks currently pooled on this host thread (tests). */
    static std::size_t pooled_count();

    /** Free every pooled stack on this host thread (tests). */
    static void trim() noexcept;
};

} // namespace nucalock::sim

#endif // NUCALOCK_SIM_STACK_POOL_HPP
