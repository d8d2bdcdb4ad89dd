/**
 * @file
 * Heap-allocation fence for a simulated run's build and teardown. This
 * binary replaces the global operator new with a counting one, so it
 * stands alone: the other test binaries keep the library's allocator.
 *
 * A Fig 5 sweep builds and tears down thousands of short runs
 * (docs/performance.md, "Build and teardown at the cost of what a run
 * uses"). The bounds below are the level the current design reaches, with
 * an allocation or a few of slack.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "harness/sim_run.hpp"
#include "locks/any_lock.hpp"

namespace {

std::atomic<long> g_allocations{0};

} // namespace

void*
operator new(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler does not pair the inlined free() with the
// callers' new expressions.
[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace nucalock;

/** Allocations made by each phase of one 28-thread HBO_GT run. */
struct RunAllocations
{
    long build = 0;       ///< SimRun, the lock and a critical-section array
    long add_threads = 0; ///< SimRun::add_threads
    long run = 0;         ///< an empty run and finish()
    long teardown = 0;
};

RunAllocations
count_run(int threads)
{
    RunAllocations a;
    harness::SimRunConfig config;
    config.threads = threads;
    long mark = g_allocations.load();
    const auto phase = [&mark](long& into) {
        const long now = g_allocations.load();
        into = now - mark;
        mark = now;
    };
    {
        harness::SimRun run(config);
        locks::AnyLock<sim::SimContext> lock(run.machine(),
                                             locks::LockKind::HboGt,
                                             config.params);
        run.machine().alloc_array(157, 0, 0);
        phase(a.build);
        run.add_threads([&lock](sim::SimContext&, int) { (void)lock; });
        phase(a.add_threads);
        const harness::BenchResult result = run.finish();
        EXPECT_EQ(result.finish_times.size(), static_cast<std::size_t>(threads));
        phase(a.run);
    }
    phase(a.teardown);
    return a;
}

TEST(AllocFence, AddedThreadsShareTheirAllocations)
{
    count_run(28); // warm the stack pool and the lazily built statics
    const RunAllocations a = count_run(28);
    // The threads of a 28-thread machine live in one arena chunk, and the
    // body is stored once: the placement and its scratch, the body, the
    // chunk and its index, and the hot array.
    EXPECT_LE(a.add_threads, 7) << "allocations in add_threads";
    // Build, run and teardown together: about 1.3 per added thread.
    EXPECT_LE(a.build + a.add_threads + a.run + a.teardown, 42)
        << "build " << a.build << ", add_threads " << a.add_threads
        << ", run " << a.run << ", teardown " << a.teardown;
}

TEST(AllocFence, ThreadAllocationsDoNotScaleWithTheThreadCount)
{
    count_run(8);
    const RunAllocations small = count_run(8);
    const RunAllocations big = count_run(28);
    // 20 more threads fit in the same chunk: no more allocations.
    EXPECT_EQ(big.add_threads, small.add_threads);
}

} // namespace
