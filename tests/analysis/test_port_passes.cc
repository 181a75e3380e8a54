/**
 * @file
 * Tests of the migration-aware static-analyzer passes
 * (analysis/static/passes_port.cc): they fire on the lowering artifact
 * each one targets, stay quiet on the tuned re-lowerings, and — the
 * gate — never touch hand-written (non-"port:*") traces.
 */

#include <gtest/gtest.h>

#include "analysis/kernel_registry.h"
#include "analysis/static/passes.h"
#include "port/corpus.h"
#include "port/lower.h"

namespace vespera::analysis {
namespace {

class PortPassesTest : public ::testing::Test
{
  protected:
    void SetUp() override { registerBuiltinKernels(); }

    StaticReport
    analyze(const char *kernel)
    {
        return analyzeProgramStatic(
            KernelRegistry::instance().trace(kernel).program);
    }
};

// The gate: hand-written kernels carry no "port:*" labels, so the
// migration passes must contribute nothing to their reports — the
// pre-existing baseline stays byte-stable.
TEST_F(PortPassesTest, HandWrittenKernelsAreNeverFlagged)
{
    for (const char *hand :
         {"softmax", "layernorm", "stream_triad_naive", "gather"}) {
        const StaticReport r = analyze(hand);
        EXPECT_EQ(r.report.countFor(rules::divergenceEmulation), 0)
            << hand;
        EXPECT_EQ(r.report.countFor(rules::coalescingLoss), 0) << hand;
        EXPECT_EQ(r.report.countFor(rules::stagingRedundancy), 0)
            << hand;
        EXPECT_EQ(r.report.countFor(rules::loweredPipelining), 0)
            << hand;
    }
}

TEST_F(PortPassesTest, DivergenceEmulationFiresOnPredicatedKernel)
{
    // port_branchy_scale predicates half its ALU work on lane < 16:
    // the lowering pays mask + full-width compute + blend.
    const StaticReport r = analyze("port_branchy_scale");
    EXPECT_GT(r.report.countFor(rules::divergenceEmulation), 0);
}

TEST_F(PortPassesTest, CoalescingLossFiresOnStridedAccess)
{
    // Stride-2 warp accesses shatter into per-lane transactions.
    const StaticReport r = analyze("port_strided_copy");
    EXPECT_GT(r.report.countFor(rules::coalescingLoss), 0);
}

TEST_F(PortPassesTest, CoalescingLossNotesSubGranuleWarpAccesses)
{
    // Even perfectly coalesced CUDA accesses land at warp width
    // (128 B), half the TPC granule — flagged at info severity.
    const StaticReport r = analyze("port_saxpy");
    EXPECT_GT(r.report.countFor(rules::coalescingLoss), 0);
}

TEST_F(PortPassesTest, StagingRedundancyFiresOnVerbatimSharedTiling)
{
    // port_staged_copy round-trips loads through __shared__ for no
    // reuse — on a TPC the value was already register-resident.
    const StaticReport r = analyze("port_staged_copy");
    EXPECT_GT(r.report.countFor(rules::stagingRedundancy), 0);
}

TEST_F(PortPassesTest, LoweredPipeliningFiresOnSerialStrips)
{
    // The naive port replays each thread chain in order; dependency
    // stalls dominate.
    const StaticReport r = analyze("port_saxpy");
    EXPECT_GT(r.report.countFor(rules::loweredPipelining), 0);
}

TEST_F(PortPassesTest, TunedLoweringIsClean)
{
    for (const char *tuned :
         {"port_saxpy_tuned", "port_stencil3_tuned"}) {
        const StaticReport r = analyze(tuned);
        EXPECT_EQ(r.report.countFor(rules::divergenceEmulation), 0)
            << tuned;
        EXPECT_EQ(r.report.countFor(rules::coalescingLoss), 0)
            << tuned;
        EXPECT_EQ(r.report.countFor(rules::stagingRedundancy), 0)
            << tuned;
        EXPECT_EQ(r.report.countFor(rules::loweredPipelining), 0)
            << tuned;
    }
}

TEST_F(PortPassesTest, MigrationFindingsCarryFixHintsAndCosts)
{
    const StaticReport r = analyze("port_strided_copy");
    bool saw_migration = false;
    for (const Diagnostic &d : r.report.diagnostics) {
        if (d.rule != rules::divergenceEmulation &&
            d.rule != rules::coalescingLoss &&
            d.rule != rules::stagingRedundancy &&
            d.rule != rules::loweredPipelining)
            continue;
        saw_migration = true;
        EXPECT_FALSE(d.fixHint.empty()) << d.rule;
        EXPECT_FALSE(d.message.empty()) << d.rule;
        EXPECT_GT(d.costCycles, 0.0) << d.rule;
    }
    EXPECT_TRUE(saw_migration);
}

// lowered-pipelining fires on a ported trace exactly when dependency
// stalls reach kPortStallFrac of its issue cycles; the corpus holds
// kernels on both sides of the threshold.
TEST_F(PortPassesTest, PipeliningFiresAtTheStallThreshold)
{
    int above = 0;
    int below = 0;
    for (const std::string &name : KernelRegistry::instance().names()) {
        if (name.rfind("port_", 0) != 0)
            continue;
        const StaticReport r = analyze(name.c_str());
        ASSERT_GT(r.schedule.cycles, 0.0) << name;
        const double frac =
            r.schedule.dependencyStallCycles / r.schedule.cycles;
        const bool fires = frac >= kPortStallFrac;
        EXPECT_EQ(r.report.countFor(rules::loweredPipelining),
                  fires ? 1 : 0)
            << name << " stall fraction " << frac;
        (fires ? above : below)++;
    }
    EXPECT_GT(above, 0);
    EXPECT_GT(below, 0);
    EXPECT_EQ(kPortStallFrac, 0.10);
}

} // namespace
} // namespace vespera::analysis
