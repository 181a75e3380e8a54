/**
 * @file
 * The static cost model against the cycle simulator:
 *
 *  - the static schedule is the simulator's issue schedule: equal
 *    cycles, per-cause stalls and per-instruction records on every
 *    registered kernel (both run tpc::scheduleIssue);
 *  - analyzeProgram reports the static passes' counts for every rule
 *    it shares with them;
 *  - the vespera-lint-static/v1 JSON document shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/analyzer.h"
#include "analysis/kernel_registry.h"
#include "analysis/static/static_report.h"
#include "tpc/context.h"
#include "tpc/pipeline.h"

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

class StaticCostTest : public ::testing::Test
{
  protected:
    void SetUp() override { registerBuiltinKernels(); }
};

// The static cost model schedules with the simulator's issue loop, so
// its cycles equal the measurement exactly on every registered kernel.
TEST_F(StaticCostTest, PredictsIssueCyclesExactly)
{
    const auto traced = KernelRegistry::instance().traceAll();
    ASSERT_GE(traced.size(), 11u);
    for (const TracedKernel &t : traced) {
        const tpc::PipelineResult measured = tpc::evaluatePipeline(
            t.program, tpc::TpcParams::forGaudi2());
        const StaticReport predicted =
            analyzeProgramStatic(t.program);
        ASSERT_GT(measured.cycles, 0.0) << t.name;
        EXPECT_EQ(predicted.predictedCycles(), measured.cycles)
            << t.name;
    }
}

// The per-cause stall attribution equals the simulator's too, not just
// the total.
TEST_F(StaticCostTest, StallAttributionTracksSimulator)
{
    for (const TracedKernel &t :
         KernelRegistry::instance().traceAll()) {
        const Report trace = analyzeProgram(t.program);
        const StaticReport st = analyzeProgramStatic(t.program);
        EXPECT_EQ(st.report.predictedStallCycles,
                  trace.measuredStallCycles)
            << t.name;
        EXPECT_EQ(st.report.dependencyStallCycles,
                  trace.dependencyStallCycles)
            << t.name;
        EXPECT_EQ(st.report.memoryStallCycles, trace.memoryStallCycles)
            << t.name;
        EXPECT_EQ(st.report.slotStallCycles, trace.slotStallCycles)
            << t.name;
        EXPECT_EQ(st.report.drainStallCycles, trace.drainStallCycles)
            << t.name;
    }
}

// Instruction by instruction, the static schedule is the IssueTrace the
// simulator produces for the same program.
TEST_F(StaticCostTest, ScheduleRecordsEqualIssueTrace)
{
    for (const TracedKernel &t :
         KernelRegistry::instance().traceAll()) {
        tpc::IssueTrace trace;
        (void)tpc::evaluatePipeline(t.program,
                                    tpc::TpcParams::forGaudi2(), &trace);
        const StaticSchedule s =
            analyzeProgramStatic(t.program).schedule;
        ASSERT_EQ(s.instrs.size(), trace.instrs.size()) << t.name;
        for (std::size_t i = 0; i < s.instrs.size(); i++) {
            const tpc::IssuedInstr &a = s.instrs[i];
            const tpc::IssuedInstr &b = trace.instrs[i];
            ASSERT_EQ(a.issueCycle, b.issueCycle) << t.name << " @" << i;
            ASSERT_EQ(a.stallCycles, b.stallCycles)
                << t.name << " @" << i;
            ASSERT_EQ(a.cause, b.cause) << t.name << " @" << i;
            ASSERT_EQ(a.criticalSrc, b.criticalSrc)
                << t.name << " @" << i;
        }
        EXPECT_EQ(s.drainStallCycles, trace.drainStall) << t.name;
    }
}

// analyzeProgram's findings are the static passes' for every rule it
// reports: the same count per rule through both entry points.
TEST_F(StaticCostTest, StaticTraceRuleParityOnAllKernels)
{
    const std::set<std::string> static_only = {
        rules::registerPressure, rules::swpOpportunity,
        // Nor does analyzeProgram report the migration-aware rules.
        rules::divergenceEmulation, rules::coalescingLoss,
        rules::stagingRedundancy, rules::loweredPipelining};
    for (const TracedKernel &t :
         KernelRegistry::instance().traceAll()) {
        const Report trace = analyzeProgram(t.program);
        const StaticReport st = analyzeProgramStatic(t.program);
        std::set<std::string> rule_names;
        for (const auto &[rule, summary] : trace.rules)
            rule_names.insert(rule);
        for (const auto &[rule, summary] : st.report.rules) {
            if (static_only.count(rule) == 0)
                rule_names.insert(rule);
        }
        for (const std::string &rule : rule_names) {
            EXPECT_EQ(st.report.countFor(rule), trace.countFor(rule))
                << t.name << " rule " << rule;
        }
    }
}

// The analytic roofline terms really are lower bounds on the schedule.
TEST_F(StaticCostTest, ScheduleRespectsItsLowerBounds)
{
    for (const TracedKernel &t :
         KernelRegistry::instance().traceAll()) {
        const StaticReport st = analyzeProgramStatic(t.program);
        const StaticSchedule &s = st.schedule;
        EXPECT_GE(s.cycles, s.criticalPathBound - 1e-9) << t.name;
        EXPECT_GE(s.cycles, s.slotResourceBound - 1e-9) << t.name;
        EXPECT_GE(s.cycles, s.memoryBound - 1e-9) << t.name;
        EXPECT_DOUBLE_EQ(s.lowerBound(),
                         std::max({s.criticalPathBound,
                                   s.slotResourceBound,
                                   s.memoryBound}));
    }
}

// Exact agreement on a hand-built trace: the static scheduler and the
// pipeline run the same issue loop.
TEST_F(StaticCostTest, ExactAgreementOnSerialChain)
{
    Program p;
    TpcContext ctx(p, oneTpc());
    Tensor t({1 << 16}, DataType::FP32);
    Vec acc = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 256);
    for (int i = 1; i <= 32; i++) {
        Vec x = ctx.v_ld_tnsr({i * 64, 0, 0, 0, 0}, t, 256);
        acc = ctx.v_add(acc, x);
    }
    ctx.v_st_tnsr({0, 0, 0, 0, 0}, t, acc);

    const tpc::PipelineResult pr =
        tpc::evaluatePipeline(p, tpc::TpcParams::forGaudi2());
    const StaticReport st = analyzeProgramStatic(p);
    EXPECT_DOUBLE_EQ(st.predictedCycles(), pr.cycles);
    EXPECT_DOUBLE_EQ(st.report.predictedStallCycles, pr.stallCycles);
}

TEST_F(StaticCostTest, StaticJsonMatchesDocumentedSchema)
{
    std::vector<StaticLintEntry> entries;
    for (TracedKernel &t : KernelRegistry::instance().traceAll()) {
        StaticLintEntry e;
        e.kernel = t.name;
        e.shape = t.shape;
        e.report = analyzeProgramStatic(t.program);
        entries.push_back(std::move(e));
    }
    const json::Value doc = staticLintReportJson(entries);

    const json::Value *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str(), "vespera-lint-static/v1");

    const json::Value *kernels = doc.find("kernels");
    ASSERT_NE(kernels, nullptr);
    ASSERT_TRUE(kernels->isArray());
    ASSERT_EQ(kernels->array().size(), entries.size());
    for (const json::Value &k : kernels->array()) {
        for (const char *key :
             {"kernel", "shape", "ir", "cost", "rules",
              "diagnostics"}) {
            EXPECT_NE(k.find(key), nullptr) << key;
        }
        const json::Value *ir = k.find("ir");
        for (const char *key :
             {"instructions", "blocks", "loops", "max_loop_depth",
              "max_live_values", "peak_live_bytes"}) {
            EXPECT_NE(ir->find(key), nullptr) << key;
        }
        const json::Value *cost = k.find("cost");
        for (const char *key :
             {"predicted_cycles", "stall_cycles",
              "dependency_stall_cycles", "memory_stall_cycles",
              "slot_stall_cycles", "drain_stall_cycles",
              "critical_path_bound", "slot_resource_bound",
              "memory_bound"}) {
            EXPECT_NE(cost->find(key), nullptr) << key;
        }
        // Every emitted diagnostic exposes its fix hint.
        for (const json::Value &d : k.find("diagnostics")->array()) {
            ASSERT_NE(d.find("fix_hint"), nullptr);
            EXPECT_FALSE(d.find("fix_hint")->str().empty());
        }
    }
    const json::Value *totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    for (const char *key : {"errors", "warnings", "infos"})
        EXPECT_NE(totals->find(key), nullptr) << key;

    // The baseline bridge: a static run ratchets through the same
    // machinery as the trace linter.
    const json::Value baseline =
        baselineJson(toLintEntries(entries));
    const BaselineCheck check =
        checkAgainstBaseline(toLintEntries(entries), baseline);
    EXPECT_TRUE(check.ok);
}

} // namespace
} // namespace vespera::analysis
