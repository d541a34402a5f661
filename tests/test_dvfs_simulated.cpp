/** @file Unit tests for the simulated DVFS backend. */

#include <gtest/gtest.h>

#include "dvfs/simulated.hpp"

using namespace hermes;
using dvfs::NullDvfs;
using dvfs::SimulatedDvfs;
using platform::FrequencyLadder;

namespace {

SimulatedDvfs
backend()
{
    return SimulatedDvfs(4, FrequencyLadder({2400, 1900, 1600}),
                         50e-6);
}

} // namespace

TEST(SimulatedDvfs, StartsAtFastest)
{
    auto b = backend();
    EXPECT_EQ(b.numDomains(), 4u);
    for (unsigned d = 0; d < 4; ++d)
        EXPECT_EQ(b.domainFreq(d), 2400u);
}

TEST(SimulatedDvfs, SetAndReadBack)
{
    auto b = backend();
    b.setDomainFreq(2, 1600, 0.5);
    EXPECT_EQ(b.domainFreq(2), 1600u);
    EXPECT_EQ(b.domainFreq(1), 2400u);
}

TEST(SimulatedDvfs, RedundantRequestsAreNotRecorded)
{
    auto b = backend();
    b.setDomainFreq(0, 2400, 0.1);  // already there
    EXPECT_EQ(b.transitionCount(), 0u);
    b.setDomainFreq(0, 1900, 0.2);
    b.setDomainFreq(0, 1900, 0.3);  // redundant
    EXPECT_EQ(b.transitionCount(), 1u);
}

TEST(SimulatedDvfs, CountsTransitionsPerChange)
{
    auto b = backend();
    b.setDomainFreq(1, 1900, 0.25);
    EXPECT_EQ(b.transitionCount(), 1u);
    EXPECT_EQ(b.domainFreq(1), 1900u);
    b.setDomainFreq(1, 1600, 0.75);
    EXPECT_EQ(b.transitionCount(), 2u);
    EXPECT_EQ(b.domainFreq(1), 1600u);
    // Other domains are untouched by domain 1's changes.
    EXPECT_EQ(b.domainFreq(0), 2400u);
}

TEST(SimulatedDvfs, ResetClearsEverything)
{
    auto b = backend();
    b.setDomainFreq(0, 1600, 0.1);
    b.reset(1900);
    EXPECT_EQ(b.transitionCount(), 0u);
    for (unsigned d = 0; d < 4; ++d)
        EXPECT_EQ(b.domainFreq(d), 1900u);
}

TEST(SimulatedDvfs, ExposesLatencyAndLadder)
{
    auto b = backend();
    EXPECT_DOUBLE_EQ(b.latency(), 50e-6);
    EXPECT_EQ(b.ladder().size(), 3u);
}

TEST(SimulatedDvfsDeath, RejectsOffLadderFrequency)
{
    auto b = backend();
    EXPECT_DEATH(b.setDomainFreq(0, 2000, 0.0), "not a ladder rung");
}

TEST(NullDvfs, IgnoresRequests)
{
    NullDvfs b(2, 2400);
    b.setDomainFreq(0, 1, 0.0);  // anything goes, nothing happens
    EXPECT_EQ(b.domainFreq(0), 2400u);
    EXPECT_EQ(b.numDomains(), 2u);
}
