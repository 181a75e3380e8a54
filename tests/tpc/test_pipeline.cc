#include <gtest/gtest.h>

#include "obs/counters.h"
#include "obs/profiler.h"
#include "tpc/context.h"
#include "tpc/pipeline.h"

namespace vespera::tpc {
namespace {

/// Builds an ADD-style loop trace: per iteration two streaming loads,
/// one vector add, one streaming store, with `unroll` independent
/// chains interleaved per loop body, `iters` loop bodies total.
Program
buildAddTrace(int iters, int unroll, Bytes vec_bytes = 256)
{
    Program p;
    MemberRange range{{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}};
    TpcContext ctx(p, range, vec_bytes);
    Tensor a({1 << 20}, DataType::BF16), b({1 << 20}, DataType::BF16);
    Tensor c({1 << 20}, DataType::BF16);
    std::int64_t elem = 0;
    const auto lanes = static_cast<std::int64_t>(vec_bytes / 2);
    for (int i = 0; i < iters; i++) {
        std::vector<Vec> xs, ys;
        for (int u = 0; u < unroll; u++) {
            Int5 coord{elem + u * lanes, 0, 0, 0, 0};
            xs.push_back(ctx.v_ld_tnsr(coord, a, vec_bytes));
            ys.push_back(ctx.v_ld_tnsr(coord, b, vec_bytes));
        }
        for (int u = 0; u < unroll; u++) {
            Vec sum = ctx.v_add(xs[u], ys[u]);
            Int5 coord{elem + u * lanes, 0, 0, 0, 0};
            ctx.v_st_tnsr(coord, c, sum);
        }
        elem += unroll * lanes;
    }
    return p;
}

TEST(Pipeline, EmptyProgramIsFree)
{
    Program p;
    PipelineResult r = evaluatePipeline(p, TpcParams::forGaudi2());
    EXPECT_DOUBLE_EQ(r.cycles, 0.0);
    EXPECT_DOUBLE_EQ(r.flops, 0.0);
}

TEST(Pipeline, DependentChainPaysLatency)
{
    // ld -> add -> st: issue-to-issue distance of the store must cover
    // the load-to-use plus the 4-cycle vector latency.
    Program p = buildAddTrace(1, 1);
    TpcParams params = TpcParams::forGaudi2();
    PipelineResult r = evaluatePipeline(p, params);
    EXPECT_GE(r.cycles, params.loadLatencyStream + params.vectorLatency);
}

// The paper's central TPC programming lesson (Section 2.2, Figure 8b):
// unrolling interleaves independent chains and raises throughput.
TEST(Pipeline, UnrollingImprovesThroughput)
{
    const int total_iters = 256;
    TpcParams params = TpcParams::forGaudi2();
    PipelineResult u1 = evaluatePipeline(buildAddTrace(total_iters, 1),
                                         params);
    PipelineResult u4 = evaluatePipeline(
        buildAddTrace(total_iters / 4, 4), params);
    // Same work...
    EXPECT_DOUBLE_EQ(u1.flops, u4.flops);
    // ...meaningfully less time.
    EXPECT_LT(u4.cycles, u1.cycles * 0.85);
}

TEST(Pipeline, UnrollGainsSaturate)
{
    TpcParams params = TpcParams::forGaudi2();
    PipelineResult u8 = evaluatePipeline(buildAddTrace(32, 8), params);
    PipelineResult u16 = evaluatePipeline(buildAddTrace(16, 16), params);
    EXPECT_DOUBLE_EQ(u8.flops, u16.flops);
    // Once the memory interface saturates, more unrolling barely helps.
    EXPECT_GT(u16.cycles, u8.cycles * 0.9);
}

// Figure 8(a): sub-256 B access granularity wastes bus bandwidth; the
// pipeline charges a full granule per access.
TEST(Pipeline, SubGranuleAccessWastesBandwidth)
{
    TpcParams params = TpcParams::forGaudi2();
    // 64 iterations of 256 B vs 256 iterations of 64 B: same payload.
    PipelineResult full = evaluatePipeline(
        buildAddTrace(64, 4, 256), params);
    PipelineResult quarter = evaluatePipeline(
        buildAddTrace(256, 4, 64), params);
    EXPECT_EQ(full.busBytes * 4, quarter.busBytes);
    EXPECT_GT(quarter.cycles, full.cycles * 2.0);
}

TEST(Pipeline, AboveGranuleAccessScalesSmoothly)
{
    TpcParams params = TpcParams::forGaudi2();
    PipelineResult b256 = evaluatePipeline(
        buildAddTrace(128, 4, 256), params);
    PipelineResult b1024 = evaluatePipeline(
        buildAddTrace(32, 4, 1024), params);
    // Same payload, same bus traffic, similar time (within 30%).
    EXPECT_EQ(b256.busBytes, b1024.busBytes);
    EXPECT_NEAR(b1024.cycles / b256.cycles, 1.0, 0.3);
}

TEST(Pipeline, SingleTpcAddThroughputInCalibratedBand)
{
    // Paper Figure 8: a single TPC saturates around 30 GFLOPS for ADD
    // (BF16, 256 B granularity, with unrolling).
    TpcParams params = TpcParams::forGaudi2();
    PipelineResult r = evaluatePipeline(buildAddTrace(512, 4), params);
    double gflops = r.flops / r.time / 1e9;
    EXPECT_GT(gflops, 15.0);
    EXPECT_LT(gflops, 60.0);
}

TEST(Pipeline, RandomLoadsTrackConcurrency)
{
    Program p;
    MemberRange range{{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}};
    TpcContext ctx(p, range);
    Tensor t({1 << 16}, DataType::FP32);
    for (int i = 0; i < 64; i++)
        (void)ctx.v_ld_tnsr({i * 64, 0, 0, 0, 0}, t, 256, Access::Random);
    PipelineResult r = evaluatePipeline(p, TpcParams::forGaudi2());
    EXPECT_EQ(r.randomTxns, 64u);
    EXPECT_GT(r.memConcurrency, 1.0);
}

TEST(Pipeline, IssueTraceStallsSumToResultStalls)
{
    TpcParams params = TpcParams::forGaudi2();
    for (int unroll : {1, 4, 8}) {
        Program p = buildAddTrace(64 / unroll, unroll);
        IssueTrace trace;
        PipelineResult r = evaluatePipeline(p, params, &trace);
        ASSERT_EQ(trace.instrs.size(), p.instrs().size());
        double sum = trace.drainStall;
        for (const IssuedInstr &rec : trace.instrs)
            sum += rec.stallCycles;
        EXPECT_NEAR(sum, r.stallCycles, 1e-9) << "unroll " << unroll;
    }
}

TEST(Pipeline, IssueTraceAttributesDependencyStalls)
{
    // Serial ld -> add -> st: the add's stall must be attributed to a
    // dependency on the load's value, naming that value.
    Program p;
    MemberRange range{{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}};
    TpcContext ctx(p, range);
    Tensor t({1 << 12}, DataType::FP32);
    Vec x = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t, 256);
    Vec y = ctx.v_add(x, x);
    ctx.v_st_tnsr({0, 0, 0, 0, 0}, t, y);
    IssueTrace trace;
    evaluatePipeline(p, TpcParams::forGaudi2(), &trace);
    ASSERT_EQ(trace.instrs.size(), 3u);
    EXPECT_EQ(trace.instrs[1].cause, StallCause::Dependency);
    EXPECT_EQ(trace.instrs[1].criticalSrc, x.id);
    EXPECT_GT(trace.instrs[1].stallCycles, 0.0);
    EXPECT_EQ(trace.instrs[0].cause, StallCause::None);
}

TEST(Pipeline, TraceArgumentDoesNotChangeTiming)
{
    TpcParams params = TpcParams::forGaudi2();
    Program p = buildAddTrace(48, 4);
    IssueTrace trace;
    PipelineResult with = evaluatePipeline(p, params, &trace);
    PipelineResult without = evaluatePipeline(p, params);
    EXPECT_DOUBLE_EQ(with.cycles, without.cycles);
    EXPECT_DOUBLE_EQ(with.stallCycles, without.stallCycles);
    EXPECT_EQ(with.busBytes, without.busBytes);
}

// scheduleIssue is the simulator's issue loop without its telemetry;
// evaluatePipeline adds the tpc.* counters.
TEST(Pipeline, ScheduleIssueMovesNoCounter)
{
    TpcParams params = TpcParams::forGaudi2();
    Program p = buildAddTrace(16, 4);
    obs::Counter &instrs =
        obs::CounterRegistry::instance().counter("tpc.instructions");
    const double before = instrs.value();
    IssueTrace trace;
    const PipelineResult pure = scheduleIssue(p, params, &trace);
    EXPECT_EQ(instrs.value(), before);
    const PipelineResult timed = evaluatePipeline(p, params);
    EXPECT_EQ(instrs.value(), before + static_cast<double>(p.instrs().size()));
    EXPECT_EQ(pure.cycles, timed.cycles);
    EXPECT_EQ(pure.stallCycles, timed.stallCycles);
}

// While the profiler traces, the cumulative stall track is sampled at
// every 64th issued instruction and once at the end, read back from
// the issue schedule.
TEST(Pipeline, StallTrackSamplesFollowTheSchedule)
{
    TpcParams params = TpcParams::forGaudi2();
    Program p = buildAddTrace(48, 4);
    IssueTrace trace;
    const PipelineResult r = scheduleIssue(p, params, &trace);

    obs::Profiler &profiler = obs::Profiler::instance();
    profiler.clear();
    profiler.setEnabled(true);
    evaluatePipeline(p, params);
    profiler.setEnabled(false);
    std::vector<obs::TrackSample> samples;
    for (const obs::TrackSample &s : profiler.samples()) {
        if (s.track == "tpc.stall_cycles")
            samples.push_back(s);
    }
    profiler.clear();

    ASSERT_EQ(samples.size(), p.instrs().size() / 64 + 1);
    double cumulative = 0;
    std::size_t k = 0;
    for (std::size_t i = 0; i < trace.instrs.size(); i++) {
        cumulative += trace.instrs[i].stallCycles;
        if ((i + 1) % 64 != 0)
            continue;
        EXPECT_EQ(samples[k].t, trace.instrs[i].issueCycle / params.clock);
        EXPECT_EQ(samples[k].value, cumulative);
        k++;
    }
    EXPECT_EQ(samples.back().t, r.cycles / params.clock);
    EXPECT_EQ(samples.back().value, r.stallCycles);
}

TEST(Pipeline, LocalAccessesAvoidGlobalBus)
{
    Program p;
    MemberRange range{{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}};
    TpcContext ctx(p, range);
    Tensor t({64}, DataType::FP32);
    Vec v = ctx.v_ld_tnsr({0, 0, 0, 0, 0}, t);
    for (int i = 0; i < 16; i++) {
        ctx.v_st_local(0, v);
        v = ctx.v_ld_local(0, 64);
    }
    PipelineResult r = evaluatePipeline(p, TpcParams::forGaudi2());
    EXPECT_EQ(r.busBytes, 256u); // Only the initial global load.
}

} // namespace
} // namespace vespera::tpc
