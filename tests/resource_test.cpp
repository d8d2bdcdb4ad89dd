/**
 * @file
 * Unit tests for the FIFO-queued Resource model.
 */
#include <gtest/gtest.h>

#include "sim/resource.hpp"

namespace {

using nucalock::sim::Resource;

TEST(Resource, IdleServiceStartsImmediately)
{
    Resource r("bus");
    EXPECT_EQ(r.serve(100, 10), 110u);
    EXPECT_EQ(r.busy_time(), 10u);
    EXPECT_EQ(r.queue_time(), 0u);
    EXPECT_EQ(r.transactions(), 1u);
}

TEST(Resource, BackToBackQueues)
{
    Resource r("bus");
    EXPECT_EQ(r.serve(0, 10), 10u);
    // Arrives at 5 while busy until 10: waits 5, finishes at 20.
    EXPECT_EQ(r.serve(5, 10), 20u);
    EXPECT_EQ(r.queue_time(), 5u);
}

TEST(Resource, GapLeavesNoQueueing)
{
    Resource r("bus");
    r.serve(0, 10);
    EXPECT_EQ(r.serve(50, 10), 60u);
    EXPECT_EQ(r.queue_time(), 0u);
}

TEST(Resource, LongBacklogAccumulates)
{
    Resource r("link");
    nucalock::sim::SimTime done = 0;
    for (int i = 0; i < 10; ++i)
        done = r.serve(0, 7);
    EXPECT_EQ(done, 70u);
    EXPECT_EQ(r.busy_time(), 70u);
    // Waits: 0 + 7 + 14 + ... + 63 = 7 * 45.
    EXPECT_EQ(r.queue_time(), 7u * 45u);
}

TEST(Resource, ZeroOccupancyPassesThrough)
{
    Resource r("bus");
    EXPECT_EQ(r.serve(42, 0), 42u);
    EXPECT_EQ(r.transactions(), 1u);
}

TEST(Resource, ServeIdleRecordsWhatIdleServesRecord)
{
    Resource one("bus");
    for (nucalock::sim::SimTime arrival : {100u, 200u, 300u})
        one.serve(arrival, 10);
    Resource bulk("bus");
    bulk.serve_idle(3, 300, 10);
    EXPECT_EQ(bulk.transactions(), one.transactions());
    EXPECT_EQ(bulk.busy_time(), one.busy_time());
    EXPECT_EQ(bulk.queue_time(), 0u);
    EXPECT_EQ(bulk.next_free(), one.next_free());
    EXPECT_EQ(bulk.queue_delay().bucket_count(0), 3u);
    EXPECT_EQ(bulk.queue_delay().count(), one.queue_delay().count());
    EXPECT_EQ(bulk.queue_delay().mean(), 0.0);
}

TEST(Resource, NamePreserved)
{
    Resource r("global-link");
    EXPECT_EQ(r.name(), "global-link");
}

} // namespace
