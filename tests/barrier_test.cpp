/**
 * @file
 * Tests for the sense-reversing barrier on both backends.
 */
#include <gtest/gtest.h>

#include <atomic>

#include "harness/barrier.hpp"
#include "native/machine.hpp"
#include "sim/engine.hpp"

namespace {

using namespace nucalock;
using namespace nucalock::harness;

TEST(SimBarrier, PhasesAreSeparated)
{
    sim::SimMachine m(Topology::symmetric(2, 4));
    SenseBarrier<sim::SimContext> barrier(m, 8);
    constexpr int kPhases = 5;
    // Each phase, every thread increments the phase counter exactly once;
    // a violation of the barrier would let counts bleed across phases.
    std::array<int, kPhases> counts{};
    bool ok = true;
    m.add_threads(8, Placement::RoundRobinNodes, [&](sim::SimContext& ctx, int) {
        bool sense = false;
        for (int p = 0; p < kPhases; ++p) {
            ctx.delay(ctx.rng().next_below(5000));
            ++counts[static_cast<std::size_t>(p)];
            // Before the barrier, later phases must be untouched.
            for (int q = p + 1; q < kPhases; ++q)
                ok = ok && counts[static_cast<std::size_t>(q)] == 0;
            barrier.wait(ctx, &sense);
            ok = ok && counts[static_cast<std::size_t>(p)] == 8;
        }
    });
    m.run();
    EXPECT_TRUE(ok);
    for (int c : counts)
        EXPECT_EQ(c, 8);
}

TEST(SimBarrier, SingleParticipantPassesThrough)
{
    sim::SimMachine m(Topology::symmetric(1, 1));
    SenseBarrier<sim::SimContext> barrier(m, 1);
    int phases = 0;
    m.add_thread(0, [&](sim::SimContext& ctx) {
        bool sense = false;
        for (int p = 0; p < 10; ++p) {
            barrier.wait(ctx, &sense);
            ++phases;
        }
    });
    m.run();
    EXPECT_EQ(phases, 10);
}

TEST(SimBarrier, LastArriverReleasesEveryone)
{
    sim::SimMachine m(Topology::symmetric(1, 3));
    SenseBarrier<sim::SimContext> barrier(m, 3);
    std::vector<sim::SimTime> after(3);
    for (int t = 0; t < 3; ++t) {
        m.add_thread(t, [&, t](sim::SimContext& ctx) {
            bool sense = false;
            ctx.delay_ns(static_cast<sim::SimTime>(t) * 100'000);
            barrier.wait(ctx, &sense);
            after[static_cast<std::size_t>(t)] = ctx.now();
        });
    }
    m.run();
    // Nobody may pass before the last arriver reached the barrier.
    for (int t = 0; t < 3; ++t)
        EXPECT_GE(after[static_cast<std::size_t>(t)], 200'000u);
}

TEST(NativeBarrier, PhasesAreSeparated)
{
    native::NativeMachine m(Topology::symmetric(2, 2));
    SenseBarrier<native::NativeContext> barrier(m, 4);
    constexpr int kPhases = 20;
    std::atomic<int> in_phase{0};
    std::atomic<bool> violated{false};
    m.run_threads(4, Placement::RoundRobinNodes,
                  [&](native::NativeContext& ctx, int) {
                      bool sense = false;
                      for (int p = 0; p < kPhases; ++p) {
                          in_phase.fetch_add(1);
                          barrier.wait(ctx, &sense);
                          // After the barrier all 4 must have arrived.
                          if (in_phase.load() < 4 * (p + 1))
                              violated.store(true);
                      }
                  });
    EXPECT_FALSE(violated.load());
    EXPECT_EQ(in_phase.load(), 4 * kPhases);
}

} // namespace
