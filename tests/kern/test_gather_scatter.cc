#include <gtest/gtest.h>

#include "kern/gather_scatter.h"

namespace vespera::kern {
namespace {

GatherScatterConfig
smallConfig(Bytes vec_bytes)
{
    GatherScatterConfig c;
    c.numVectors = 1 << 14;
    c.vectorBytes = vec_bytes;
    c.accessFraction = 1.0;
    return c;
}

TEST(GatherScatter, GaudiGatherVerifies)
{
    Rng rng(1);
    auto r = runGatherScatterGaudi(smallConfig(256), rng);
    EXPECT_GT(r.hbmUtilization, 0.0);
    EXPECT_LE(r.hbmUtilization, 1.0);
    EXPECT_EQ(r.usefulBytes, (1ull << 14) * 256);
}

TEST(GatherScatter, GaudiScatterVerifies)
{
    Rng rng(4);
    GatherScatterConfig c = smallConfig(512);
    c.scatter = true;
    c.accessFraction = 0.5;
    auto r = runGatherScatterGaudi(c, rng);
    EXPECT_GT(r.hbmUtilization, 0.0);
    EXPECT_EQ(r.usefulBytes, (1ull << 13) * 512);
}

// Key takeaway #3: Gaudi competitive at >=256 B, collapses below.
TEST(GatherScatter, GaudiSmallVectorCollapse)
{
    Rng rng(2);
    double u256 = runGatherScatterGaudi(smallConfig(256), rng)
                      .hbmUtilization;
    double u64 =
        runGatherScatterGaudi(smallConfig(64), rng).hbmUtilization;
    EXPECT_GT(u256, 2.5 * u64);
}

TEST(GatherScatter, A100DegradesGracefully)
{
    // Large access counts so launch/ramp overheads amortize away.
    GatherScatterConfig c256 = smallConfig(256);
    c256.numVectors = 1 << 20;
    GatherScatterConfig c64 = smallConfig(64);
    c64.numVectors = 1 << 20;
    double a256 = runGatherScatterA100(c256).hbmUtilization;
    double a64 = runGatherScatterA100(c64).hbmUtilization;
    // A100's 32 B sectors keep small-vector efficiency much closer.
    EXPECT_LT(a256 / a64, 2.2);
}

TEST(GatherScatter, DeviceComparisonMatchesPaper)
{
    Rng rng(3);
    // >=256 B: same ballpark (paper: 64% vs 72% on average).
    GatherScatterConfig big = smallConfig(512);
    big.numVectors = 1 << 17;
    double g = runGatherScatterGaudi(big, rng).hbmUtilization;
    double a = runGatherScatterA100(big).hbmUtilization;
    EXPECT_GT(g, 0.4);
    EXPECT_GT(a, 0.5);
    EXPECT_LT(a / g, 1.8);

    // <=128 B: A100 wins by >~2x (paper: 2.4x).
    GatherScatterConfig small = smallConfig(128);
    small.numVectors = 1 << 17;
    double gs = runGatherScatterGaudi(small, rng).hbmUtilization;
    double as = runGatherScatterA100(small).hbmUtilization;
    EXPECT_GT(as / gs, 1.7);
}

TEST(GatherScatter, ScatterRunsAndIsSlower)
{
    Rng rng(4);
    GatherScatterConfig c = smallConfig(64);
    auto gather = runGatherScatterGaudi(c, rng);
    c.scatter = true;
    auto scatter = runGatherScatterGaudi(c, rng);
    EXPECT_GE(scatter.time, gather.time * 0.9);
}

TEST(GatherScatter, LowerFractionLowerAmortization)
{
    Rng rng(5);
    GatherScatterConfig c = smallConfig(256);
    c.numVectors = 1 << 15;
    auto full = runGatherScatterGaudi(c, rng);
    c.accessFraction = 0.01;
    auto sparse = runGatherScatterGaudi(c, rng);
    // Fixed launch+ramp costs dominate tiny access counts.
    EXPECT_LT(sparse.hbmUtilization, full.hbmUtilization);
}

TEST(GatherScatter, DeeperUnrollHelps)
{
    Rng rng(6);
    GatherScatterConfig c = smallConfig(256);
    c.unroll = 1;
    auto u1 = runGatherScatterGaudi(c, rng);
    c.unroll = 16;
    auto u16 = runGatherScatterGaudi(c, rng);
    EXPECT_LT(u16.time, u1.time);
}

} // namespace
} // namespace vespera::kern
