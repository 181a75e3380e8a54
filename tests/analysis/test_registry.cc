/**
 * @file
 * Tests of the traceable-kernel registry: the built-in corpus covers
 * every kernel family, traces capture real instructions with kernel
 * names, and the analyzer's stall prediction matches the pipeline's
 * measurement on every captured trace (the acceptance criterion).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "analysis/analyzer.h"
#include "analysis/kernel_registry.h"

namespace vespera::analysis {
namespace {

class RegistryTest : public ::testing::Test
{
  protected:
    void SetUp() override { registerBuiltinKernels(); }
};

TEST_F(RegistryTest, BuiltinCorpusCoversKernelFamilies)
{
    KernelRegistry &reg = KernelRegistry::instance();
    EXPECT_GE(reg.size(), 10u);
    const std::vector<std::string> names = reg.names();
    for (const char *expected :
         {"softmax", "layernorm", "rmsnorm", "gather", "scatter",
          "embedding_sdk", "embedding_single", "embedding_batched",
          "port_saxpy", "port_softmax", "port_transpose"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
}

TEST_F(RegistryTest, RegistrationIsIdempotent)
{
    const std::size_t before = KernelRegistry::instance().size();
    registerBuiltinKernels();
    EXPECT_EQ(KernelRegistry::instance().size(), before);
}

TEST_F(RegistryTest, TraceCapturesNamedNonEmptyProgram)
{
    const TracedKernel t =
        KernelRegistry::instance().trace("softmax");
    EXPECT_EQ(t.name, "softmax");
    EXPECT_FALSE(t.shape.empty());
    EXPECT_FALSE(t.program.empty());
    EXPECT_EQ(t.program.kernelName(), "softmax");
    // Phase labels survived capture.
    bool labeled = false;
    for (const tpc::Instr &i : t.program.instrs()) {
        if (t.program.label(i.opLabel).find("phase") !=
            std::string::npos) {
            labeled = true;
        }
    }
    EXPECT_TRUE(labeled);
}

TEST_F(RegistryTest, FilterSelectsSubset)
{
    const auto traced =
        KernelRegistry::instance().traceAll("stream_");
    EXPECT_EQ(traced.size(), 3u);
    for (const TracedKernel &t : traced)
        EXPECT_NE(t.name.find("stream_"), std::string::npos);
}

TEST_F(RegistryTest, TracesAreDeterministic)
{
    KernelRegistry &reg = KernelRegistry::instance();
    const TracedKernel a = reg.trace("gather");
    const TracedKernel b = reg.trace("gather");
    ASSERT_EQ(a.program.instrs().size(), b.program.instrs().size());
    for (std::size_t i = 0; i < a.program.instrs().size(); i++) {
        EXPECT_EQ(a.program.instrs()[i].memOffset,
                  b.program.instrs()[i].memOffset);
        EXPECT_EQ(a.program.instrs()[i].dst,
                  b.program.instrs()[i].dst);
    }
}

// The ISSUE acceptance criterion: on every kernel of the sweep, the
// analyzer's predicted stall cycles match evaluatePipeline's
// measurement (we require exact-by-construction, well inside the
// 10% acceptance bound).
TEST_F(RegistryTest, StallPredictionMatchesPipelineOnAllKernels)
{
    for (const TracedKernel &t :
         KernelRegistry::instance().traceAll()) {
        const Report r = analyzeProgram(t.program);
        EXPECT_FALSE(r.kernel.empty()) << t.name;
        EXPECT_NEAR(r.predictedStallCycles, r.measuredStallCycles,
                    1e-9)
            << t.name;
        if (r.measuredStallCycles > 0) {
            EXPECT_LE(std::abs(r.predictedStallCycles -
                               r.measuredStallCycles) /
                          r.measuredStallCycles,
                      0.10)
                << t.name;
        }
    }
}

// Every registered kernel — the 11 hand-written kernels plus the
// 21-entry migration corpus — round-trips through by-name lookup: the
// traced result carries the registry name, a non-empty program, and a
// named embedded kernel. (Registry names are variant names —
// "stream_triad_tuned" traces the "stream_TRIAD" kernel — so the
// embedded name need not equal the registry name.)
TEST_F(RegistryTest, RunningTotalsEqualATraceRescan)
{
    // Program keeps flops and payload bytes as running totals on
    // append; they must equal a fresh scan of the trace bit for bit.
    for (const TracedKernel &t :
         KernelRegistry::instance().traceAll()) {
        double flops = 0;
        Bytes stream = 0, random = 0;
        for (const tpc::Instr &i : t.program.instrs()) {
            flops += static_cast<double>(i.flopsPerLane) * i.lanes;
            if (i.slot != tpc::Slot::Load && i.slot != tpc::Slot::Store)
                continue;
            if (i.access == tpc::Access::Stream)
                stream += i.memBytes;
            else if (i.access == tpc::Access::Random)
                random += i.memBytes;
        }
        const double got = t.program.flops();
        EXPECT_EQ(std::memcmp(&got, &flops, sizeof got), 0)
            << t.name << ": " << got << " vs " << flops;
        EXPECT_EQ(t.program.streamBytes(), stream) << t.name;
        EXPECT_EQ(t.program.randomBytes(), random) << t.name;
    }
}

TEST_F(RegistryTest, AllKernelsRoundTripThroughLookup)
{
    KernelRegistry &reg = KernelRegistry::instance();
    EXPECT_EQ(reg.size(), 32u);
    for (const std::string &name : reg.names()) {
        const TracedKernel t = reg.trace(name);
        EXPECT_EQ(t.name, name);
        EXPECT_FALSE(t.program.empty()) << name;
        EXPECT_FALSE(t.program.kernelName().empty()) << name;
    }
}

TEST_F(RegistryTest, DuplicateRegistrationFailsLoudly)
{
    KernelRegistry &reg = KernelRegistry::instance();
    EXPECT_DEATH(reg.add("softmax",
                         [] { return TracedKernel{}; }),
                 "duplicate kernel registration");
}

TEST_F(RegistryTest, UnknownKernelFailsLoudly)
{
    EXPECT_DEATH(
        (void)KernelRegistry::instance().trace("no_such_kernel"),
        "unknown kernel");
}

// The known-bad STREAM shape must trip the paper's two headline rules;
// the tuned shape must not trip narrow-access.
TEST_F(RegistryTest, NaiveStreamIsFlaggedTunedIsNot)
{
    KernelRegistry &reg = KernelRegistry::instance();
    const Report naive =
        analyzeProgram(reg.trace("stream_triad_naive").program);
    EXPECT_GT(naive.countFor(rules::narrowAccess), 0);
    EXPECT_GT(naive.countFor(rules::exposedLatency), 0);

    const Report tuned =
        analyzeProgram(reg.trace("stream_triad_tuned").program);
    EXPECT_EQ(tuned.countFor(rules::narrowAccess), 0);
    EXPECT_LT(tuned.dependencyStallCycles,
              naive.dependencyStallCycles);
}

} // namespace
} // namespace vespera::analysis
