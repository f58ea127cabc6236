/**
 * @file
 * Tests for the simulated kernel MM: VmaTree structural behaviour and
 * invariants (including a randomized property sweep), and the contention
 * simulation's qualitative properties — the shapes the paper's Figures
 * 3-5 depend on.
 */
#include <gtest/gtest.h>

#include "simkernel/mm_sim.h"
#include "simkernel/vma_model.h"
#include "support/rng.h"

namespace lnb::simk {
namespace {

constexpr uint64_t kPage = VmaTree::kPage;

TEST(VmaTree, MapAndQuery)
{
    VmaTree tree;
    tree.map(0x10000, 4 * kPage, prot_rw);
    EXPECT_EQ(tree.vmaCount(), 1u);
    EXPECT_EQ(tree.protAt(0x10000), prot_rw);
    EXPECT_EQ(tree.protAt(0x10000 + 4 * kPage - 1), prot_rw);
    EXPECT_EQ(tree.protAt(0x10000 + 4 * kPage), prot_none);
    EXPECT_EQ(tree.protAt(0xFFFF), prot_none);
    EXPECT_EQ(tree.mappedBytes(), 4 * kPage);
    EXPECT_EQ(tree.checkInvariants(), "");
}

TEST(VmaTree, MapOverAMappedRangeIsRefused)
{
    // Like MAP_FIXED_NOREPLACE: any overlap fails and changes nothing,
    // in every build (not only where asserts are compiled in).
    VmaTree tree;
    EXPECT_FALSE(tree.map(0x10000, 4 * kPage, prot_rw).refused);
    const uint64_t starts[] = {0x10000, 0x10000 - kPage, 0x10000 + kPage,
                               0x10000 + 3 * kPage, 0x10000 - 2 * kPage};
    const uint64_t lens[] = {4 * kPage, 2 * kPage, kPage, 4 * kPage,
                             8 * kPage};
    for (size_t i = 0; i < 5; i++) {
        VmaOpStats st = tree.map(starts[i], lens[i], prot_none);
        EXPECT_TRUE(st.refused) << i;
        EXPECT_EQ(st.pagesAffected, 0u) << i;
        EXPECT_EQ(tree.vmaCount(), 1u) << i;
        EXPECT_EQ(tree.mappedBytes(), 4 * kPage) << i;
        EXPECT_EQ(tree.protAt(0x10000), prot_rw) << i;
        EXPECT_EQ(tree.checkInvariants(), "") << i;
    }
    // Touching ranges on either side are not overlaps.
    EXPECT_FALSE(tree.map(0x10000 - kPage, kPage, prot_none).refused);
    EXPECT_FALSE(tree.map(0x10000 + 4 * kPage, kPage, prot_none).refused);
    EXPECT_EQ(tree.mappedBytes(), 6 * kPage);
    VmaOpStats total;
    total += tree.map(0x10000, kPage, prot_none);
    EXPECT_TRUE(total.refused);
}

TEST(VmaTree, ProtectSplitsAndMerges)
{
    VmaTree tree;
    tree.map(0, 8 * kPage, prot_none);
    // Protect the middle: splits into three VMAs.
    VmaOpStats stats = tree.protect(2 * kPage, 3 * kPage, prot_rw);
    EXPECT_EQ(stats.splits, 2u);
    EXPECT_EQ(tree.vmaCount(), 3u);
    EXPECT_EQ(tree.protAt(0), prot_none);
    EXPECT_EQ(tree.protAt(2 * kPage), prot_rw);
    EXPECT_EQ(tree.protAt(5 * kPage), prot_none);
    EXPECT_EQ(tree.checkInvariants(), "");

    // Restoring the protection merges everything back together.
    stats = tree.protect(2 * kPage, 3 * kPage, prot_none);
    EXPECT_GE(stats.merges, 2u);
    EXPECT_EQ(tree.vmaCount(), 1u);
    EXPECT_EQ(tree.checkInvariants(), "");
}

TEST(VmaTree, GrowPatternMergesAdjacent)
{
    // The mprotect grow path: extend the RW prefix page by page; VMAs
    // must merge rather than fragment (Linux does the same).
    VmaTree tree;
    tree.map(0, 64 * kPage, prot_none);
    for (uint64_t page = 0; page < 16; page++) {
        tree.protect(page * kPage, kPage, prot_rw);
        EXPECT_EQ(tree.checkInvariants(), "") << "page " << page;
    }
    EXPECT_EQ(tree.vmaCount(), 2u); // one RW prefix + the none tail
}

TEST(VmaTree, UnmapPunchesHoles)
{
    VmaTree tree;
    tree.map(0, 10 * kPage, prot_rw);
    tree.unmap(4 * kPage, 2 * kPage);
    EXPECT_EQ(tree.vmaCount(), 2u);
    EXPECT_EQ(tree.protAt(4 * kPage), prot_none);
    EXPECT_EQ(tree.mappedBytes(), 8 * kPage);
    EXPECT_EQ(tree.checkInvariants(), "");

    // Remap the hole with the same protection: merges back to one VMA.
    tree.map(4 * kPage, 2 * kPage, prot_rw);
    EXPECT_EQ(tree.vmaCount(), 1u);
    EXPECT_EQ(tree.checkInvariants(), "");
}

TEST(VmaTree, RandomOperationPropertySweep)
{
    Rng rng(2024);
    VmaTree tree;
    constexpr uint64_t kRange = 256; // pages
    std::vector<uint8_t> shadow(kRange, 0); // 0 = unmapped
    tree.map(0, kRange * kPage, prot_none);
    for (auto& page : shadow)
        page = 1; // 1 = mapped prot_none, 2 = mapped rw

    for (int step = 0; step < 3000; step++) {
        uint64_t start = rng.nextBelow(kRange - 1);
        uint64_t len = 1 + rng.nextBelow(kRange - start);
        VmaProt prot = rng.chance(0.5) ? prot_rw : prot_none;
        tree.protect(start * kPage, len * kPage, prot);
        for (uint64_t page = start; page < start + len; page++)
            shadow[page] = prot == prot_rw ? 2 : 1;

        ASSERT_EQ(tree.checkInvariants(), "") << "step " << step;
        // Spot-check protections against the shadow model.
        for (int probe = 0; probe < 8; probe++) {
            uint64_t page = rng.nextBelow(kRange);
            VmaProt expect = shadow[page] == 2 ? prot_rw : prot_none;
            ASSERT_EQ(tree.protAt(page * kPage), expect)
                << "step " << step << " page " << page;
        }
    }
}

// ---------------------------------------------------------------------
// Contention simulation shapes
// ---------------------------------------------------------------------

SimConfig
baseConfig(mem::BoundsStrategy strategy, int threads)
{
    SimConfig config;
    config.strategy = strategy;
    config.numThreads = threads;
    config.numCpus = 16;
    config.iterations = 500;
    config.computeNsPerIteration = 200000;
    config.arenaPages = 64;
    return config;
}

TEST(ContentionSim, Deterministic)
{
    SimResult a = simulateContention(
        baseConfig(mem::BoundsStrategy::mprotect, 16));
    SimResult b = simulateContention(
        baseConfig(mem::BoundsStrategy::mprotect, 16));
    EXPECT_EQ(a.wallSeconds, b.wallSeconds);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
}

TEST(ContentionSim, UffdScalesBetterThanMprotectAt16Threads)
{
    SimResult mprotect16 = simulateContention(
        baseConfig(mem::BoundsStrategy::mprotect, 16));
    SimResult uffd16 =
        simulateContention(baseConfig(mem::BoundsStrategy::uffd, 16));
    // Paper Fig. 3/4: mprotect's VMA-lock serialization caps throughput
    // and CPU utilization; uffd scales ~linearly.
    EXPECT_GT(uffd16.throughputPerSec, mprotect16.throughputPerSec);
    EXPECT_GT(uffd16.cpuUtilizationPercent,
              mprotect16.cpuUtilizationPercent);
    EXPECT_GT(mprotect16.lockWaitFraction, 0.1);
    EXPECT_LT(uffd16.lockWaitFraction, 0.01);
}

TEST(ContentionSim, MprotectSingleThreadHasNoContention)
{
    SimResult single = simulateContention(
        baseConfig(mem::BoundsStrategy::mprotect, 1));
    EXPECT_EQ(single.contendedAcquisitions, 0u);
    EXPECT_EQ(single.contextSwitches, 0u);
    EXPECT_NEAR(single.cpuUtilizationPercent, 100.0, 1.0);
}

TEST(ContentionSim, ContextSwitchGapMatchesPaperShape)
{
    SimResult mprotect16 = simulateContention(
        baseConfig(mem::BoundsStrategy::mprotect, 16));
    SimResult uffd16 =
        simulateContention(baseConfig(mem::BoundsStrategy::uffd, 16));
    // Paper Fig. 5: mprotect context switches are order(s) of magnitude
    // above uffd's when scaling threads.
    EXPECT_GT(mprotect16.contextSwitchesPerSec,
              10.0 * uffd16.contextSwitchesPerSec);
}

TEST(ContentionSim, ThroughputMonotonicInThreadsForUffd)
{
    double previous = 0;
    for (int threads : {1, 2, 4, 8, 16}) {
        SimResult result = simulateContention(
            baseConfig(mem::BoundsStrategy::uffd, threads));
        EXPECT_GT(result.throughputPerSec, previous * 1.5)
            << threads << " threads";
        previous = result.throughputPerSec;
    }
}

TEST(ContentionSim, UtilizationCappedByCpus)
{
    SimConfig config = baseConfig(mem::BoundsStrategy::none, 64);
    SimResult result = simulateContention(config);
    EXPECT_LE(result.cpuUtilizationPercent, 1600.0 + 1.0);
}

TEST(ContentionSim, PoolingAblationHelpsUffd)
{
    SimConfig pooled = baseConfig(mem::BoundsStrategy::uffd, 16);
    SimConfig churn = pooled;
    churn.poolArenas = false;
    SimResult with_pool = simulateContention(pooled);
    SimResult without_pool = simulateContention(churn);
    // Without arena pooling even uffd serializes on mmap/munmap.
    EXPECT_GT(with_pool.throughputPerSec,
              without_pool.throughputPerSec);
    EXPECT_GT(without_pool.contendedAcquisitions,
              with_pool.contendedAcquisitions);
}

} // namespace
} // namespace lnb::simk
