/**
 * @file
 * Unit tests for the cooperative fiber layer (the x86-64 assembly switch,
 * or ucontext on other platforms): resume/yield, direct fiber-to-fiber
 * switches, and the stack overflow check.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "sim/fiber.hpp"
#include "sim/stack_pool.hpp"

namespace {

using nucalock::sim::Fiber;
using nucalock::sim::StackPool;

/**
 * Recurse through 256-byte frames, yielding at each level, until a frame
 * lies @p bytes below @p top. Returns the depth reached. Each frame writes
 * one byte of its pad, so the frames may pass over the canary near the
 * stack's low end without writing it.
 */
int
descend(Fiber& self, const char* top, std::size_t bytes)
{
    volatile char pad[256];
    pad[0] = 0;
    const auto* frame = static_cast<const char*>(__builtin_frame_address(0));
    self.yield();
    if (static_cast<std::size_t>(top - frame) >= bytes)
        return pad[0];
    return descend(self, top, bytes) + 1 + pad[0];
}

/** Run a fiber on a @p stack_bytes stack that descends @p bytes below its
 *  entry frame; returns the depth it reached. */
int
run_descent(std::size_t stack_bytes, std::size_t bytes)
{
    Fiber* self = nullptr;
    int depth = -1;
    Fiber f(
        [&] {
            const auto* top =
                static_cast<const char*>(__builtin_frame_address(0));
            depth = descend(*self, top, bytes);
        },
        stack_bytes);
    self = &f;
    while (!f.finished())
        f.resume();
    return depth;
}

TEST(Fiber, RunsToCompletionOnFirstResume)
{
    int ran = 0;
    Fiber f([&] { ran = 1; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(ran, 1);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber* self = nullptr;
    Fiber f([&] {
        order.push_back(1);
        self->yield();
        order.push_back(3);
        self->yield();
        order.push_back(5);
    });
    self = &f;

    f.resume();
    order.push_back(2);
    f.resume();
    order.push_back(4);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, LocalsSurviveAcrossYields)
{
    Fiber* self = nullptr;
    long captured = 0;
    Fiber f([&] {
        long local = 42;
        self->yield();
        local *= 2;
        self->yield();
        captured = local;
    });
    self = &f;
    f.resume();
    f.resume();
    f.resume();
    EXPECT_EQ(captured, 84);
}

TEST(Fiber, ManyFibersInterleave)
{
    constexpr int kFibers = 50;
    std::vector<std::unique_ptr<Fiber>> fibers;
    std::vector<int> counts(kFibers, 0);
    for (int i = 0; i < kFibers; ++i) {
        fibers.push_back(std::make_unique<Fiber>(
            [&, i] {
                for (int round = 0; round < 3; ++round) {
                    ++counts[static_cast<std::size_t>(i)];
                    fibers[static_cast<std::size_t>(i)]->yield();
                }
            },
            64 * 1024));
    }
    for (int round = 0; round < 4; ++round)
        for (auto& f : fibers)
            if (!f->finished())
                f->resume();
    for (int c : counts)
        EXPECT_EQ(c, 3);
    for (auto& f : fibers)
        EXPECT_TRUE(f->finished());
}

TEST(Fiber, DeepStackUsage)
{
    // Recursion touching ~100 KiB of stack must fit in the default stack.
    std::function<int(int)> burn = [&](int depth) -> int {
        volatile char pad[1024] = {};
        pad[0] = static_cast<char>(depth);
        return depth == 0 ? pad[0] : burn(depth - 1) + 1;
    };
    int result = -1;
    Fiber f([&] { result = burn(100); });
    f.resume();
    EXPECT_EQ(result, 100);
}

TEST(Fiber, ThreeQuartersOfTheStackIsUsable)
{
    // 64 KiB is the simulator's stack (SimConfig::fiber_stack_bytes). The
    // overflow check runs at every level's yield and must not fire.
    constexpr std::size_t kBytes = 64 * 1024;
    EXPECT_GT(run_descent(kBytes, kBytes * 3 / 4), 0);
}

TEST(Fiber, SwitchToChainYieldsToOriginalResumer)
{
    // A -> B -> C by direct switches; C's yield() lands in the resume()
    // that entered A. Resuming A later continues it after its switch.
    std::vector<int> order;
    Fiber* a = nullptr;
    Fiber* b = nullptr;
    Fiber* c = nullptr;
    Fiber fa([&] {
        order.push_back(1);
        a->switch_to(*b);
        order.push_back(5);
    });
    Fiber fb([&] {
        order.push_back(2);
        b->switch_to(*c);
        order.push_back(7);
    });
    Fiber fc([&] {
        order.push_back(3);
        c->yield();
        order.push_back(9);
    });
    a = &fa;
    b = &fb;
    c = &fc;

    fa.resume();
    order.push_back(4);
    EXPECT_FALSE(fa.finished());
    EXPECT_FALSE(fb.finished());
    EXPECT_FALSE(fc.finished());
    fa.resume(); // A finishes and returns here
    order.push_back(6);
    fb.resume();
    order.push_back(8);
    fc.resume();
    EXPECT_TRUE(fa.finished());
    EXPECT_TRUE(fb.finished());
    EXPECT_TRUE(fc.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Fiber, SwitchedToFiberFinishesIntoResumer)
{
    std::vector<int> order;
    Fiber* a = nullptr;
    Fiber* b = nullptr;
    Fiber fa([&] {
        order.push_back(1);
        a->switch_to(*b);
        order.push_back(4);
    });
    Fiber fb([&] { order.push_back(2); });
    a = &fa;
    b = &fb;

    fa.resume(); // returns when B, entered by A's switch, finishes
    order.push_back(3);
    EXPECT_FALSE(fa.finished());
    EXPECT_TRUE(fb.finished());
    fa.resume();
    EXPECT_TRUE(fa.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Fiber, LocalsSurviveAcrossDirectSwitches)
{
    // Ping-pong between two fibers by direct switches only; each keeps
    // its own running total on its own stack.
    Fiber* a = nullptr;
    Fiber* b = nullptr;
    long total_a = 0;
    long total_b = 0;
    Fiber fa([&] {
        long local = 1;
        for (int i = 0; i < 10; ++i) {
            local *= 2;
            a->switch_to(*b);
        }
        total_a = local;
    });
    Fiber fb([&] {
        long local = 0;
        for (int i = 0; i < 10; ++i) {
            local += 3;
            b->switch_to(*a);
        }
        total_b = local;
    });
    a = &fa;
    b = &fb;
    fa.resume(); // A finishes after its tenth round, into this resume()
    EXPECT_TRUE(fa.finished());
    EXPECT_FALSE(fb.finished());
    fb.resume();
    EXPECT_TRUE(fb.finished());
    EXPECT_EQ(total_a, 1024);
    EXPECT_EQ(total_b, 30);
}

#ifdef NUCALOCK_FIBER_FAST_SWITCH
TEST(Fiber, SuspendedSpIsSetOnTheSwitchedAwayFiber)
{
    Fiber* a = nullptr;
    Fiber* b = nullptr;
    const void* a_sp_seen_by_b = nullptr;
    bool b_running_has_no_sp = false;
    Fiber fa([&] { a->switch_to(*b); });
    Fiber fb([&] {
        a_sp_seen_by_b = a->suspended_sp();
        b_running_has_no_sp = b->suspended_sp() == nullptr;
    });
    a = &fa;
    b = &fb;
    fa.resume();
    EXPECT_NE(a_sp_seen_by_b, nullptr);
    EXPECT_TRUE(b_running_has_no_sp);
    // A stays suspended where it switched away until something resumes it.
    EXPECT_EQ(fa.suspended_sp(), a_sp_seen_by_b);
    fa.resume();
    EXPECT_TRUE(fa.finished());
}
#endif

TEST(FiberDeathTest, ResumeAfterFinishPanics)
{
    Fiber f([] {});
    f.resume();
    EXPECT_DEATH(f.resume(), "resume of finished fiber");
}

TEST(FiberDeathTest, SwitchToFinishedFiberPanics)
{
    Fiber done([] {});
    done.resume();
    Fiber* self = nullptr;
    Fiber f([&] { self->switch_to(done); });
    self = &f;
    EXPECT_DEATH(f.resume(), "switch_to into finished fiber");
}

TEST(FiberDeathTest, StackOverflowIsDiagnosed)
{
    // Left unchecked, the descent would run 4 KiB past the end of the
    // stack. The check on the switching frame's address stops it at the
    // first yield inside the reserve above the canary.
    constexpr std::size_t kBytes = 16 * 1024;
    EXPECT_DEATH(run_descent(kBytes, kBytes + 4 * 1024),
                 "fiber stack overflow");
}

TEST(FiberDeathTest, OverwrittenCanaryIsDiagnosed)
{
    // An overflow in code that does not switch leaves the frame back inside
    // the stack by the next switch; the canary near the low end catches it.
    // The pool hands the fiber the stack just released, so the test knows
    // where that low end is. The canary sits at most 63 cache lines above
    // it (its cache color), inside the 4 KiB the fiber clears.
    constexpr std::size_t kBytes = 16 * 1024;
    const auto overwrite = [] {
        char* low = StackPool::acquire(kBytes);
        StackPool::release(low, kBytes);
        Fiber f([low] { std::memset(low, 0, 4 * 1024); }, kBytes);
        f.resume();
    };
    EXPECT_DEATH(overwrite(), "fiber stack overflow");
}

TEST(FiberDeathTest, TinyStackRejected)
{
    EXPECT_DEATH(Fiber([] {}, 1024), "fiber stack too small");
}

} // namespace
