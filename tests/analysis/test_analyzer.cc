/**
 * @file
 * Unit tests for analyzeProgram's own part: the measured stall
 * attribution agrees with tpc::evaluatePipeline, malformed and empty
 * traces are handled, and the counters it exports. The rules behind
 * its findings are the static passes (test_static_passes.cc).
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "obs/counters.h"
#include "tpc/context.h"

namespace vespera::analysis {
namespace {

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

/// Serial reduction: every add waits on the previous add's result —
/// the canonical exposed-latency chain.
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

TEST(Analyzer, InvalidSsaIsReportedNotReplayed)
{
    Program p;
    tpc::Instr instr;
    instr.slot = tpc::Slot::Vector;
    instr.dst = p.newValue();
    instr.src0 = 7; // Never defined.
    p.append(instr);
    Report r = analyzeProgram(p);
    EXPECT_GE(r.countFor(rules::invalidSsa), 1);
    EXPECT_TRUE(r.hasSeverity(Severity::Error));
    // Replay skipped: no timing was computed.
    EXPECT_DOUBLE_EQ(r.cycles, 0.0);
}

TEST(Analyzer, EmptyProgramIsSilent)
{
    Report r = analyzeProgram(Program{});
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_DOUBLE_EQ(r.predictedStallCycles, 0.0);
}

TEST(Analyzer, AttributionMatchesPipelineExactly)
{
    for (int length : {4, 32, 200}) {
        Report r = analyzeProgram(serialChain(length));
        EXPECT_NEAR(r.predictedStallCycles, r.measuredStallCycles,
                    1e-9);
        EXPECT_NEAR(r.dependencyStallCycles + r.memoryStallCycles +
                        r.slotStallCycles + r.drainStallCycles,
                    r.measuredStallCycles, 1e-9);
    }
}

TEST(Analyzer, CriticalPathBoundsBelowCycles)
{
    Report r = analyzeProgram(serialChain(64));
    EXPECT_GT(r.criticalPathCycles, 0.0);
    // An infinite-resource schedule can't beat the modeled machine by
    // definition... but the modeled machine can't beat it either.
    EXPECT_LE(r.criticalPathCycles, r.cycles + 1e-9);
}

TEST(Analyzer, CountersExported)
{
    obs::CounterRegistry &reg = obs::CounterRegistry::instance();
    const double programs_before =
        reg.counter("analysis.programs").value();
    const double diags_before =
        reg.counter(std::string("analysis.diag.") +
                    rules::exposedLatency)
            .value();
    const double static_before =
        reg.counter("analysis.static.programs").value();
    Report r = analyzeProgram(serialChain(32));
    EXPECT_DOUBLE_EQ(reg.counter("analysis.programs").value(),
                     programs_before + 1);
    EXPECT_DOUBLE_EQ(
        reg.counter(std::string("analysis.diag.") +
                    rules::exposedLatency)
            .value(),
        diags_before + r.countFor(rules::exposedLatency));

    // The inner static pass run does not count as a static analysis.
    EXPECT_DOUBLE_EQ(reg.counter("analysis.static.programs").value(),
                     static_before);

    StaticAnalyzerOptions opts;
    opts.exportCounters = false;
    analyzeProgram(serialChain(32), opts);
    EXPECT_DOUBLE_EQ(reg.counter("analysis.programs").value(),
                     programs_before + 1); // Unchanged.
}

// Degenerate-trace contract: an empty IssueTrace produces a clean
// report — no rule (in particular not slot-imbalance, whose occupancy
// math divides by total cycles) may fire on zero instructions.
TEST(Analyzer, EmptyTraceProducesZeroFindings)
{
    Program p;
    const Report r = analyzeProgram(p);
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_TRUE(r.rules.empty());
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.cycles, 0.0);
}

TEST(Analyzer, KernelNamePropagates)
{
    Program p;
    p.setKernelName("my_kernel");
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 12}, DataType::FP32);
    (void)ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 64);
    Report r = analyzeProgram(p);
    EXPECT_EQ(r.kernel, "my_kernel");
    ASSERT_FALSE(r.diagnostics.empty());
    for (const Diagnostic &d : r.diagnostics)
        EXPECT_EQ(d.kernel, "my_kernel");
}

} // namespace
} // namespace vespera::analysis
