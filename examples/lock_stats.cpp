/**
 * @file
 * Domain example: profile a contended lock with InstrumentedLock and the
 * simulator's access tracer — the workflow for answering "is this lock a
 * bottleneck, and is it fair?" before touching production code.
 *
 * Scenario: a shared LRU-ish metadata table protected by one lock, updated
 * by 16 threads across two NUCA nodes. We print wait/hold-time percentiles
 * and node-handoff behaviour for two candidate locks, plus the first lines
 * of a raw lock-word trace.
 */
#include <iostream>
#include <sstream>

#include "locks/hbo.hpp"
#include "locks/instrumented.hpp"
#include "locks/mcs.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "stats/table.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::locks;
using namespace nucalock::sim;

template <typename Lock>
void
profile(const char* name, stats::Table& table, bool dump_trace)
{
    SimMachine machine(Topology::wildfire(8));
    const std::uint32_t first_line = machine.memory().num_lines();
    InstrumentedLock<Lock, SimContext> lock(machine);

    TraceRecorder recorder;
    recorder.watch_only({MemRef{first_line}});
    if (dump_trace)
        machine.memory().set_trace_hook(recorder.hook());

    const MemRef table_data = machine.alloc_array(24, 0, 0);
    machine.add_threads(16, Placement::RoundRobinNodes,
                        [&](SimContext& ctx, int) {
                            ctx.delay(ctx.rng().next_below(6000));
                            for (int i = 0; i < 120; ++i) {
                                lock.acquire(ctx);
                                ctx.touch_array(table_data, 24, true);
                                lock.release(ctx);
                                ctx.delay(3000);
                                ctx.delay(ctx.rng().next_below(3000));
                            }
                        });
    machine.run();

    const LockStats& s = lock.stats();
    table.row()
        .cell(name)
        .cell(s.acquisitions)
        .cell(s.wait_ns.percentile(50), 0)
        .cell(s.wait_ns.percentile(99), 0)
        .cell(s.hold_ns.percentile(50), 0)
        .cell(100.0 * static_cast<double>(s.contended_acquisitions) /
                  static_cast<double>(s.acquisitions),
              1)
        .cell(s.handoff_ratio(), 3);

    if (dump_trace) {
        std::ostringstream oss;
        recorder.dump_csv(oss);
        std::istringstream lines(oss.str());
        std::string line;
        std::cout << "first lock-word trace records (" << name << "):\n";
        for (int i = 0; i < 6 && std::getline(lines, line); ++i)
            std::cout << "  " << line << "\n";
        std::cout << "  ... (" << recorder.events().size() << " events)\n\n";
    }
}

} // namespace

int
main()
{
    std::cout << "Lock profile: shared metadata table, 16 threads, 2-node "
                 "NUCA\n\n";
    stats::Table table({"Lock", "acquires", "wait p50 (ns)", "wait p99 (ns)",
                        "hold p50 (ns)", "contended %", "node handoff"});
    profile<McsLock<SimContext>>("MCS", table, false);
    profile<HboGtSdLock<SimContext>>("HBO_GT_SD", table, true);
    table.print(std::cout);
    return 0;
}
