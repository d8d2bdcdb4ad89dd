#include "sim/stack_pool.hpp"

#include <cstdint>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace nucalock::sim {

namespace {

/**
 * Big stacks are carved out of large mmap'd slabs instead of individual
 * allocations. Motivation is the TLB, not the allocator: a big-topology
 * run holds 1024 x 64 KiB fiber stacks, and as separate allocations each
 * stack top needs its own 4 KiB dTLB entry — more entries than the TLB
 * has, so every fiber handover started with a page walk (which also
 * silently drops the stack prefetches the engine issues ahead of each
 * resume — see SimMachine::prefetch_resume_state).
 * Slabs are 2 MiB-aligned and madvise(MADV_HUGEPAGE)'d, so under THP a
 * single TLB entry covers 32 stacks and the whole 64 MiB of stacks fits
 * comfortably in the second-level TLB. Carved stacks sit side by side with
 * no guard page between them (mprotect would split the huge page); the
 * fibers check their own stacks instead (sim/fiber.hpp).
 */
constexpr std::size_t kSlabBytes = 16 * 1024 * 1024;
constexpr std::size_t kHugePage = 2 * 1024 * 1024;
/** Stacks below this come from new[]: their TLB footprint is small and
 *  slab-carving them would fragment the slabs across odd sizes. The
 *  simulator's default stack (SimConfig::fiber_stack_bytes) is exactly
 *  this size, so it stays on the huge pages. */
constexpr std::size_t kMinSlabCarve = 64 * 1024;

struct Block
{
    char* stack;
    std::size_t bytes;
    bool from_slab;
};

struct Slab
{
    char* map_base;        // what mmap returned (munmap target)
    std::size_t map_bytes; // full mapped length
    char* base;            // 2 MiB-aligned carve region
    std::size_t used;      // bump offset into base
};

/**
 * Free list, most-recently-released last so acquire() reuses warm stacks.
 * Bounded for new[]-backed blocks: SimMemory::kMaxCpus caps simulated
 * threads per machine at 1024 and a host thread runs one machine at a
 * time, so the pool holds one big-topology machine's worth of stacks;
 * anything past that is a leak-shaped workload we'd rather give back.
 * Slab-backed blocks stay listed regardless — their memory is committed
 * for the slab's lifetime either way, and dropping the entry would only
 * make it unreachable.
 */
struct Cache
{
    static constexpr std::size_t kMaxPooled = 1024;

    std::vector<Block> free;
    std::vector<Slab> slabs;

    ~Cache()
    {
        for (const Block& b : free)
            if (!b.from_slab)
                delete[] b.stack;
#ifdef __linux__
        for (const Slab& s : slabs)
            ::munmap(s.map_base, s.map_bytes);
#endif
    }
};

Cache&
cache()
{
    thread_local Cache c;
    return c;
}

/** Carve @p bytes from the slabs (mapping a new one if needed), or return
 *  nullptr to fall back to new[]. */
char*
carve_from_slab(std::size_t bytes)
{
#ifdef __linux__
    std::vector<Slab>& slabs = cache().slabs;
    if (slabs.empty() || slabs.back().used + bytes > kSlabBytes) {
        // Over-map by one huge page so the carve region can be aligned to
        // a huge-page boundary without a separate aligned allocator.
        const std::size_t map_bytes = kSlabBytes + kHugePage;
        void* map = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (map == MAP_FAILED)
            return nullptr;
        const auto addr = reinterpret_cast<std::uintptr_t>(map);
        const std::uintptr_t aligned =
            (addr + kHugePage - 1) & ~(std::uintptr_t{kHugePage} - 1);
        Slab slab;
        slab.map_base = static_cast<char*>(map);
        slab.map_bytes = map_bytes;
        slab.base = reinterpret_cast<char*>(aligned);
        slab.used = 0;
        ::madvise(slab.base, kSlabBytes, MADV_HUGEPAGE);
        slabs.push_back(slab);
    }
    Slab& slab = slabs.back();
    char* stack = slab.base + slab.used;
    slab.used += bytes;
    return stack;
#else
    (void)bytes;
    return nullptr;
#endif
}

} // namespace

char*
StackPool::acquire(std::size_t bytes)
{
    std::vector<Block>& free = cache().free;
    // Scan newest-first: runs use one stack size, so this is hit [0].
    for (std::size_t i = free.size(); i > 0; --i) {
        if (free[i - 1].bytes == bytes) {
            char* stack = free[i - 1].stack;
            free.erase(free.begin() +
                       static_cast<std::ptrdiff_t>(i - 1));
            return stack;
        }
    }
    if (bytes >= kMinSlabCarve) {
        if (char* stack = carve_from_slab(bytes); stack != nullptr)
            return stack;
    }
    return new char[bytes];
}

void
StackPool::release(char* stack, std::size_t bytes) noexcept
{
    if (stack == nullptr)
        return;
    std::vector<Block>& free = cache().free;
    // Which origin? A stack inside any slab's carve region came from it.
    bool from_slab = false;
    for (const Slab& s : cache().slabs) {
        if (stack >= s.base && stack < s.base + kSlabBytes) {
            from_slab = true;
            break;
        }
    }
    if (!from_slab && free.size() >= Cache::kMaxPooled) {
        delete[] stack;
        return;
    }
    try {
        free.push_back(Block{stack, bytes, from_slab});
    } catch (...) {
        if (!from_slab)
            delete[] stack;
    }
}

std::size_t
StackPool::pooled_count()
{
    return cache().free.size();
}

void
StackPool::trim() noexcept
{
    std::vector<Block>& free = cache().free;
    for (const Block& b : free)
        if (!b.from_slab)
            delete[] b.stack;
    // Slab-backed entries are dropped, not unmapped: the slabs stay with
    // the host thread (trim() is a test hook; outstanding stacks may still
    // point into them). Their bytes are re-carved only via the free list,
    // so a trim leaks them until thread exit — fine for tests.
    free.clear();
}

} // namespace nucalock::sim
