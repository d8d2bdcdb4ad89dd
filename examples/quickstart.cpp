/**
 * @file
 * Quickstart: protect a shared counter with an HBO_GT_SD lock on real
 * threads (native backend), using a logical NUCA layout over the host.
 *
 * Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart
 */
#include <cstdio>
#include <vector>

#include "locks/guard.hpp"
#include "locks/hbo.hpp"
#include "native/machine.hpp"
#include "topology/host.hpp"

int
main()
{
    using namespace nucalock;
    using namespace nucalock::native;
    using namespace nucalock::locks;

    // Describe the machine. On a real NUMA host, discover_host() gives the
    // true layout; here we always get something usable (a flat host is
    // treated as one node, or split it logically with logical_host(n)).
    const HostLayout host = discover_host();
    std::printf("host: %s\n", host.topology.describe().c_str());

    NativeMachine machine(host.topology);

    // The lock: the paper's HBO_GT_SD. One shared word plus one gate word
    // per node; cas is the only atomic primitive it needs.
    HboGtSdLock<NativeContext> lock(machine);

    const NativeRef counter = machine.alloc(0);
    constexpr int kThreads = 4;
    constexpr int kIncrements = 100'000;

    const int threads = std::min(kThreads, machine.max_threads());
    machine.run_threads(threads, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int) {
                            for (int i = 0; i < kIncrements; ++i) {
                                LockGuard guard(lock, ctx);
                                // Non-atomic RMW, safe only under the lock.
                                ctx.store(counter, ctx.load(counter) + 1);
                            }
                        });

    NativeContext main_ctx = machine.make_context(0, 0);
    const std::uint64_t total = main_ctx.load(counter);
    std::printf("counter = %llu (expected %llu)\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(threads) * kIncrements);
    return total == static_cast<std::uint64_t>(threads) * kIncrements ? 0 : 1;
}
