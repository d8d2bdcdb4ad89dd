/**
 * @file
 * Domain example: a work-stealing task queue guarded by NUCA-aware locks
 * on real threads — the structure of SPLASH-2 Raytrace, and the workload
 * where the paper's locks shine.
 *
 * Each worker owns a queue of tasks (here: chunks of a numerical
 * integration); when its queue runs dry it steals from a victim. Queue
 * locks and the shared progress counter use HBO_GT locks so that, on a
 * NUCA host, handovers stay inside a node whenever possible.
 */
#include <cmath>
#include <cstdio>
#include <deque>
#include <vector>

#include "locks/guard.hpp"
#include "locks/hbo.hpp"
#include "native/machine.hpp"
#include "topology/host.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::native;
using namespace nucalock::locks;

struct Task
{
    double begin;
    double end;
};

/** One queue per worker, each guarded by its own lock. */
struct WorkQueue
{
    explicit WorkQueue(NativeMachine& machine) : lock(machine) {}

    HboGtLock<NativeContext> lock;
    std::deque<Task> tasks;
};

double
integrate(const Task& task)
{
    // f(x) = 4 / (1 + x^2): integrates to pi over [0, 1].
    constexpr int kSteps = 20'000;
    const double h = (task.end - task.begin) / kSteps;
    double acc = 0.0;
    for (int i = 0; i < kSteps; ++i) {
        const double x = task.begin + (i + 0.5) * h;
        acc += 4.0 / (1.0 + x * x) * h;
    }
    return acc;
}

} // namespace

int
main()
{
    // Use the real host layout when it is big enough; otherwise lay a
    // 2x2 logical NUCA over it (threads timeshare, spin loops yield).
    const HostLayout host = discover_host();
    const Topology topology = host.topology.num_cpus() >= 4
                                  ? host.topology
                                  : Topology::symmetric(2, 2);
    NativeMachine machine(topology);
    const int workers = std::min(4, machine.max_threads());

    std::vector<std::unique_ptr<WorkQueue>> queues;
    for (int w = 0; w < workers; ++w)
        queues.push_back(std::make_unique<WorkQueue>(machine));

    // Carve [0, 1] into many small integration tasks, dealt round-robin.
    constexpr int kTasks = 512;
    for (int t = 0; t < kTasks; ++t) {
        const double lo = static_cast<double>(t) / kTasks;
        const double hi = static_cast<double>(t + 1) / kTasks;
        queues[static_cast<std::size_t>(t % workers)]->tasks.push_back(
            Task{lo, hi});
    }

    // Shared result accumulator behind its own NUCA-aware lock.
    HboGtLock<NativeContext> result_lock(machine);
    double pi = 0.0;
    std::vector<std::uint64_t> stolen(static_cast<std::size_t>(workers), 0);

    machine.run_threads(workers, Placement::RoundRobinNodes,
                        [&](NativeContext& ctx, int me) {
        while (true) {
            Task task{};
            bool got = false;
            for (int probe = 0; probe < workers && !got; ++probe) {
                auto& q = *queues[static_cast<std::size_t>((me + probe) % workers)];
                LockGuard guard(q.lock, ctx);
                if (!q.tasks.empty()) {
                    task = q.tasks.front();
                    q.tasks.pop_front();
                    got = true;
                    if (probe != 0)
                        ++stolen[static_cast<std::size_t>(me)];
                }
            }
            if (!got)
                return;

            const double part = integrate(task);
            LockGuard guard(result_lock, ctx);
            pi += part;
        }
    });

    std::uint64_t total_stolen = 0;
    for (std::uint64_t s : stolen)
        total_stolen += s;
    std::printf("workers=%d tasks=%d stolen=%llu\n", workers, kTasks,
                static_cast<unsigned long long>(total_stolen));
    std::printf("pi ~= %.9f (error %.2e)\n", pi, std::fabs(pi - M_PI));
    return std::fabs(pi - M_PI) < 1e-6 ? 0 : 1;
}
