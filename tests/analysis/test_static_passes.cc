/**
 * @file
 * Tests of the static dataflow passes: each pass fires on a trace
 * crafted to contain its anti-pattern, the static-only passes
 * (register-pressure, swp-opportunity) report sensible structure, and
 * degenerate traces (empty, single-instruction) stay clean — the same
 * edge-case contract analyzeProgram honors.
 */

#include <gtest/gtest.h>

#include "analysis/static/static_analyzer.h"
#include "tpc/context.h"

namespace vespera::analysis {
namespace {

using tpc::Access;
using tpc::MemberRange;
using tpc::Program;
using tpc::Tensor;
using tpc::TpcContext;
using tpc::Vec;

MemberRange
oneTpc()
{
    return {{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}};
}

Program
serialChain(int length)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 16}, DataType::FP32);
    Vec acc = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 256);
    for (int i = 1; i <= length; i++) {
        Vec x = ctx.v_ld_tnsr({i * 64, 0, 0, 0, 0}, t, 256);
        acc = ctx.v_add(acc, x);
    }
    ctx.v_st_tnsr({0, 0, 0, 0, 0}, t, acc);
    return p;
}

TEST(StaticPasses, ExposedLatencyFiresOnSerialChain)
{
    const StaticReport r = analyzeProgramStatic(serialChain(64));
    EXPECT_GT(r.report.countFor(rules::exposedLatency), 0);
    EXPECT_GT(r.report.dependencyStallCycles, 0.0);
    // The chain diagnostic names the producing value.
    bool named = false;
    for (const Diagnostic &d : r.report.diagnostics) {
        if (d.rule == rules::exposedLatency &&
            d.message.find("waiting on v") != std::string::npos) {
            named = true;
        }
    }
    EXPECT_TRUE(named);
}

TEST(StaticPasses, EveryFindingCarriesAFixHint)
{
    const StaticReport r = analyzeProgramStatic(serialChain(64));
    ASSERT_FALSE(r.report.diagnostics.empty());
    for (const Diagnostic &d : r.report.diagnostics)
        EXPECT_FALSE(d.fixHint.empty()) << d.rule;
}

TEST(StaticPasses, NarrowAccessNamesTheEnclosingLoop)
{
    Program p;
    TpcContext ctx(p, oneTpc(), 64);
    Tensor t({1 << 12}, DataType::FP32);
    for (int i = 0; i < 8; i++) {
        Vec v = ctx.v_ld_tnsr({i * 16, 0, 0, 0, 0}, t, 64);
        ctx.v_st_tnsr({i * 16, 0, 0, 0, 0}, t, v);
    }
    const StaticReport r = analyzeProgramStatic(p);
    // One grouped finding per call-site shape (load + store).
    EXPECT_EQ(r.report.countFor(rules::narrowAccess), 2);
    bool names_loop = false;
    double wasted = 0;
    for (const Diagnostic &d : r.report.diagnostics) {
        if (d.rule != rules::narrowAccess)
            continue;
        wasted += static_cast<double>(d.wastedBytes);
        if (d.message.find("in loop #") != std::string::npos)
            names_loop = true;
    }
    EXPECT_TRUE(names_loop);
    // 16 accesses x (256 - 64) wasted bytes each.
    EXPECT_DOUBLE_EQ(wasted, 16 * (256.0 - 64.0));
}

TEST(StaticPasses, RandomShouldStreamConfirmsAffineStride)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 16}, DataType::FP32);
    for (int i = 0; i < 8; i++) {
        Vec v = ctx.v_ld_tnsr({i * 64, 0, 0, 0, 0}, t, 256,
                              Access::Random);
        ctx.v_st_local(0, v);
    }
    const StaticReport r = analyzeProgramStatic(p);
    ASSERT_EQ(r.report.countFor(rules::randomShouldStream), 1);
    for (const Diagnostic &d : r.report.diagnostics) {
        if (d.rule == rules::randomShouldStream) {
            // The loop's symbolic stride analysis proved the walk
            // contiguous, so the diagnostic says so.
            EXPECT_NE(d.message.find("provably affine"),
                      std::string::npos)
                << d.message;
        }
    }
}

/** `n` full-granule loads all live until a reduction at the end: peak
 *  live state is n x 64 lanes x 4 B. */
Program
liveLoads(int n)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 16}, DataType::FP32);
    std::vector<Vec> xs;
    for (int i = 0; i < n; i++)
        xs.push_back(ctx.v_ld_tnsr({i * 64, 0, 0, 0, 0}, t, 256));
    Vec acc = xs[0];
    for (int i = 1; i < n; i++)
        acc = ctx.v_add(acc, xs[static_cast<std::size_t>(i)]);
    ctx.v_st_tnsr({0, 0, 0, 0, 0}, t, acc);
    return p;
}

Severity
registerPressureSeverity(const StaticReport &r)
{
    for (const Diagnostic &d : r.report.diagnostics) {
        if (d.rule == rules::registerPressure)
            return d.severity;
    }
    ADD_FAILURE() << "no register-pressure diagnostic";
    return Severity::Info;
}

TEST(StaticPasses, RegisterPressureFlagsLongLiveRanges)
{
    // 300 x 256 B = 75 KB live: over 90% of the 80 KB budget.
    const StaticReport r = analyzeProgramStatic(liveLoads(300));
    EXPECT_GE(r.peakLiveBytes, 300u * 256u);
    EXPECT_GE(r.maxLiveValues, 300u);
    ASSERT_EQ(r.report.countFor(rules::registerPressure), 1);
    EXPECT_EQ(registerPressureSeverity(r), Severity::Warning);

    // 200 x 256 B = 50 KB: over half the budget, an Info.
    const StaticReport info = analyzeProgramStatic(liveLoads(200));
    ASSERT_EQ(info.report.countFor(rules::registerPressure), 1);
    EXPECT_EQ(registerPressureSeverity(info), Severity::Info);

    // 64 x 256 B = 16 KB is fine.
    const StaticReport ok = analyzeProgramStatic(liveLoads(64));
    EXPECT_GE(ok.peakLiveBytes, 16u * 1024u);
    EXPECT_EQ(ok.report.countFor(rules::registerPressure), 0);
}

TEST(StaticPasses, SwpOpportunityFlagsLatencyBoundLoop)
{
    // Serial reduction: achieved II ~ load latency + issue, while the
    // recurrence/resource bound is the 4-cycle add chain — a textbook
    // software-pipelining candidate.
    const StaticReport r = analyzeProgramStatic(serialChain(32));
    ASSERT_GE(r.report.countFor(rules::swpOpportunity), 1);
    for (const Diagnostic &d : r.report.diagnostics) {
        if (d.rule == rules::swpOpportunity) {
            EXPECT_EQ(d.severity, Severity::Info);
            EXPECT_GT(d.costCycles, 0.0);
            EXPECT_NE(d.message.find("initiation interval"),
                      std::string::npos);
        }
    }
}

TEST(StaticPasses, SwpQuietOnResourceBoundLoop)
{
    // Back-to-back independent loads saturate the memory interface:
    // achieved II equals the resource bound, nothing to pipeline.
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 16}, DataType::FP32);
    for (int i = 0; i < 32; i++)
        (void)ctx.v_ld_tnsr({i * 64, 0, 0, 0, 0}, t, 256);
    const StaticReport r = analyzeProgramStatic(p);
    EXPECT_EQ(r.report.countFor(rules::swpOpportunity), 0);
}

/** One 64-lane local store ending at element `end`, on a context
 *  with room past the 80 KB TPC local memory. */
Program
localStoreEndingAt(std::int64_t end)
{
    Program p;
    TpcContext ctx(p, oneTpc(), 256, 4 * tpc::kLocalMemoryBytes);
    Vec z = ctx.v_zero(64);
    ctx.v_st_local(end - 64, z);
    return p;
}

TEST(StaticPasses, LocalOverflowEscalatesToError)
{
    // 82176 B > 81920 B: over capacity.
    const StaticReport r =
        analyzeProgramStatic(localStoreEndingAt(20544));
    EXPECT_EQ(r.report.localBytesUsed, 20544u * 4u);
    ASSERT_EQ(r.report.countFor(rules::localOverflow), 1);
    EXPECT_TRUE(r.report.hasSeverity(Severity::Error));

    // 77824 B: 95% used -> Warning.
    const StaticReport warn =
        analyzeProgramStatic(localStoreEndingAt(19456));
    EXPECT_EQ(warn.report.countFor(rules::localOverflow), 1);
    EXPECT_TRUE(warn.report.hasSeverity(Severity::Warning));
    EXPECT_FALSE(warn.report.hasSeverity(Severity::Error));

    // 4256 B: 5% used -> clean.
    const StaticReport clean =
        analyzeProgramStatic(localStoreEndingAt(1064));
    EXPECT_EQ(clean.report.countFor(rules::localOverflow), 0);
}

TEST(StaticPasses, InvalidSsaShortCircuitsWithErrors)
{
    Program p;
    const std::int32_t v = p.newValue();
    tpc::Instr use;
    use.slot = tpc::Slot::Vector;
    use.src0 = v;
    use.dst = p.newValue();
    p.append(use);
    const StaticReport r = analyzeProgramStatic(p);
    EXPECT_EQ(r.report.countFor(rules::invalidSsa), 1);
    EXPECT_TRUE(r.report.hasSeverity(Severity::Error));
    // No schedule or structure on malformed traces.
    EXPECT_EQ(r.predictedCycles(), 0.0);
    EXPECT_EQ(r.blockCount, 0u);
}

TEST(StaticPasses, PerRuleEmissionCapKeepsFullCounts)
{
    const StaticReport r = analyzeProgramStatic(serialChain(64));
    const int total = r.report.countFor(rules::exposedLatency);
    EXPECT_GT(total, kMaxDiagnosticsPerRule);
    int emitted = 0;
    for (const Diagnostic &d : r.report.diagnostics) {
        if (d.rule == rules::exposedLatency)
            emitted++;
    }
    EXPECT_EQ(emitted, 8);
    EXPECT_EQ(kMaxDiagnosticsPerRule, 8);
}

TEST(StaticPasses, InterleavedChainsStallLess)
{
    // Eight independent accumulators over the same loads: far fewer
    // dependency stalls than the serial reduction of the same length.
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 16}, DataType::FP32);
    std::vector<Vec> accs;
    for (int q = 0; q < 8; q++)
        accs.push_back(ctx.v_zero(64));
    for (int i = 0; i < 64; i += 8) {
        std::vector<Vec> xs;
        for (int u = 0; u < 8; u++)
            xs.push_back(
                ctx.v_ld_tnsr({(i + u) * 64, 0, 0, 0, 0}, t, 256));
        for (int u = 0; u < 8; u++)
            accs[static_cast<std::size_t>(u)] =
                ctx.v_add(accs[static_cast<std::size_t>(u)], xs[
                    static_cast<std::size_t>(u)]);
    }
    const StaticReport serial = analyzeProgramStatic(serialChain(64));
    const StaticReport unrolled = analyzeProgramStatic(p);
    EXPECT_LT(unrolled.report.dependencyStallCycles,
              serial.report.dependencyStallCycles);
}

TEST(StaticPasses, FullGranuleAccessIsClean)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 12}, DataType::FP32);
    Vec v = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 256);
    ctx.v_st_tnsr({0, 0, 0, 0, 0}, t, v);
    const Report r = analyzeProgramStatic(p).report;
    EXPECT_EQ(r.countFor(rules::narrowAccess), 0);
}

TEST(StaticPasses, ScatteredRandomAccessIsNotFlagged)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 16}, DataType::FP32);
    Vec acc = ctx.v_zero(64);
    // Strided: each access skips a block, so no sequential run forms.
    for (int i = 0; i < 16; i++) {
        Vec v = ctx.v_ld_tnsr({i * 128, 0, 0, 0, 0}, t, 256,
                              Access::Random);
        acc = ctx.v_add(acc, v);
    }
    const Report r = analyzeProgramStatic(p).report;
    EXPECT_EQ(r.countFor(rules::randomShouldStream), 0);
}

TEST(StaticPasses, DeadValueSeverityDependsOnSlot)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 12}, DataType::FP32);
    (void)ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 256); // Dead load: Info.
    Vec a = ctx.v_ld_tnsr({64, 0, 0, 0, 0}, t, 256);
    Vec b = ctx.v_ld_tnsr({128, 0, 0, 0, 0}, t, 256);
    (void)ctx.v_add(a, b); // Dead compute: Warning.
    ctx.v_st_tnsr({0, 0, 0, 0, 0}, t, a);
    ctx.v_st_tnsr({64, 0, 0, 0, 0}, t, b);
    const Report r = analyzeProgramStatic(p).report;
    EXPECT_EQ(r.countFor(rules::deadValue), 2);
    int infos = 0;
    int warnings = 0;
    for (const Diagnostic &d : r.diagnostics) {
        if (d.rule != rules::deadValue)
            continue;
        (d.severity == Severity::Info ? infos : warnings)++;
    }
    EXPECT_EQ(infos, 1);
    EXPECT_EQ(warnings, 1);
}

TEST(StaticPasses, RedundantReloadAccountsWastedBytes)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 12}, DataType::FP32);
    for (int pass = 0; pass < 3; pass++) {
        Vec v = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 256);
        ctx.v_st_tnsr({(pass + 1) * 64, 0, 0, 0, 0}, t, v);
    }
    const Report r = analyzeProgramStatic(p).report;
    ASSERT_EQ(r.countFor(rules::redundantReload), 1);
    for (const Diagnostic &d : r.diagnostics) {
        if (d.rule == rules::redundantReload) {
            EXPECT_EQ(d.wastedBytes, 2u * 256u); // Two re-reads.
            EXPECT_EQ(d.severity, Severity::Warning); // Fits local mem.
        }
    }
}

// The degenerate-trace contract, shared with analyzeProgram
// (tests/analysis/test_analyzer.cc pins the measured side).
TEST(StaticPasses, EmptyProgramProducesZeroFindings)
{
    Program p;
    const StaticReport r = analyzeProgramStatic(p);
    EXPECT_TRUE(r.report.diagnostics.empty());
    EXPECT_TRUE(r.report.rules.empty());
    EXPECT_EQ(r.predictedCycles(), 0.0);
}

TEST(StaticPasses, SingleInstructionKernelHasNoSlotImbalance)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({64}, DataType::FP32);
    (void)ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 256);
    const StaticReport r = analyzeProgramStatic(p);
    EXPECT_EQ(r.report.countFor(rules::slotImbalance), 0);
    // The lone dead load may legitimately report as Info; nothing at
    // Warning or above.
    EXPECT_FALSE(r.report.hasSeverity(Severity::Warning));
}

} // namespace
} // namespace vespera::analysis
