/**
 * @file
 * Google-benchmark self-benchmarks of the simulator itself.
 *
 * Two tiers guard the interactive performance of the tool:
 *
 *  - microbenchmarks of the hot paths (GEMM costing, TPC pipeline
 *    evaluation, collective costing, one decode-step graph), and
 *  - end-to-end self-benchmarks that run whole user-visible workflows
 *    (a serving-engine decode run, a Figure-12 sweep point, the
 *    measured and static analyzers) so regressions in glue code —
 *    caching, scheduling, graph construction — are caught, not just
 *    kernel math.
 *
 * After the timing loops the harness resets all counters and runs one
 * *fixed-work* scenario, so the exported metrics document carries
 * machine-independent work counters next to the machine-dependent
 * `benchmarks` timings. CI gates both against tools/bench_baseline/
 * with per-prefix thresholds (tight on counters, loose on wall time);
 * see docs/observability.md §"Profiling the simulator itself".
 */

#include <benchmark/benchmark.h>

#include "analysis/analyzer.h"
#include "analysis/kernel_registry.h"
#include "analysis/static/static_analyzer.h"
#include "coll/collective.h"
#include "graph/replay_cache.h"
#include "kern/gemm.h"
#include "kern/stream.h"
#include "models/llama.h"
#include "serve/engine.h"
#include "serve/trace.h"
#include "tpc/dispatcher.h"

#include "bench_common.h"

using namespace vespera;

namespace {

void
BM_MmeGemmCost(benchmark::State &state)
{
    const hw::GemmShape shape{state.range(0), state.range(0),
                              state.range(0)};
    for (auto _ : state) {
        auto c = kern::runGemm(DeviceKind::Gaudi2, shape,
                               DataType::BF16);
        benchmark::DoNotOptimize(c.time);
    }
}
BENCHMARK(BM_MmeGemmCost)->Arg(1024)->Arg(8192);

void
BM_TensorCoreGemmCost(benchmark::State &state)
{
    const hw::GemmShape shape{state.range(0), state.range(0),
                              state.range(0)};
    for (auto _ : state) {
        auto c = kern::runGemm(DeviceKind::A100, shape, DataType::BF16);
        benchmark::DoNotOptimize(c.time);
    }
}
BENCHMARK(BM_TensorCoreGemmCost)->Arg(1024)->Arg(8192);

void
BM_TpcStreamTrace(benchmark::State &state)
{
    kern::StreamConfig c;
    c.op = kern::StreamOp::Triad;
    c.numElements = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        auto r = kern::runStreamGaudi(c);
        benchmark::DoNotOptimize(r.gflops);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TpcStreamTrace)->Arg(1 << 16)->Arg(1 << 20);

void
BM_CollectiveCost(benchmark::State &state)
{
    auto hccl = coll::CollectiveModel::hcclOnGaudi2();
    for (auto _ : state) {
        auto r = hccl.run(coll::CollectiveOp::AllReduce, 16 << 20, 8);
        benchmark::DoNotOptimize(r.time);
    }
}
BENCHMARK(BM_CollectiveCost);

void
BM_LlamaDecodeStepCost(benchmark::State &state)
{
    models::LlamaModel model(models::LlamaConfig::llama31_8b());
    models::LlamaServingConfig cfg;
    for (auto _ : state) {
        Seconds t = model.stepTime(DeviceKind::Gaudi2, 32, 1, 1024,
                                   false, cfg);
        benchmark::DoNotOptimize(t);
    }
}
BENCHMARK(BM_LlamaDecodeStepCost);

/// @name End-to-end self-benchmarks.
/// Whole user workflows, timed: step caching, the scheduler loop, and
/// analyzer passes dominate these, none of which the micro loops touch.
/// @{

/** A full continuous-batching decode run (cold caches every lap). */
void
BM_EngineDecodeRun(benchmark::State &state)
{
    models::LlamaModel model(models::LlamaConfig::llama31_8b());
    for (auto _ : state) {
        serve::EngineConfig ec;
        ec.maxDecodeBatch = 8;
        serve::Engine engine(model, ec);
        auto m = engine.run(serve::makeFixedTrace(8, 128, 32));
        benchmark::DoNotOptimize(m.makespan);
    }
}
BENCHMARK(BM_EngineDecodeRun);

/** One Figure-12 sweep point: monolithic prefill + integrated decode. */
void
BM_Fig12SweepPoint(benchmark::State &state)
{
    models::LlamaModel model(models::LlamaConfig::llama31_8b());
    models::LlamaServingConfig cfg; // batch 32, 100 in / 100 out
    for (auto _ : state) {
        auto r = model.serve(DeviceKind::Gaudi2, cfg);
        benchmark::DoNotOptimize(r.tokensPerSec);
    }
}
BENCHMARK(BM_Fig12SweepPoint);

/**
 * The same sweep point with both replay caches bypassed: every decode
 * step rebuilds, recompiles and re-costs its graph — the pre-cache
 * cost of the workflow. CI's selfperf job gates the *same-run* ratio
 * of this benchmark to BM_Fig12SweepPoint at >= 3x (both halves run
 * in one process on one runner, so the ratio cancels machine speed).
 */
void
BM_Fig12SweepPointUncached(benchmark::State &state)
{
    models::LlamaModel model(models::LlamaConfig::llama31_8b());
    models::LlamaServingConfig cfg;
    graph::ReplayCacheDisable off_nodes(graph::nodeReplayCache());
    graph::ReplayCacheDisable off_steps(graph::stepReplayCache());
    for (auto _ : state) {
        auto r = model.serve(DeviceKind::Gaudi2, cfg);
        benchmark::DoNotOptimize(r.tokensPerSec);
    }
}
BENCHMARK(BM_Fig12SweepPointUncached);

/** analyzeProgram over a captured kernel trace: the eight kernel
 *  rules' static passes plus one pipeline replay. */
void
BM_TraceAnalyzer(benchmark::State &state)
{
    analysis::registerBuiltinKernels();
    const auto traced =
        analysis::KernelRegistry::instance().trace("softmax");
    analysis::StaticAnalyzerOptions opts;
    opts.exportCounters = false; // timing loop must not touch counters
    for (auto _ : state) {
        auto rep = analysis::analyzeProgram(traced.program, opts);
        benchmark::DoNotOptimize(rep.diagnostics.size());
    }
}
BENCHMARK(BM_TraceAnalyzer);

/** Pre-execution static-analyzer pass over the same trace corpus. */
void
BM_StaticAnalyzer(benchmark::State &state)
{
    analysis::registerBuiltinKernels();
    const auto traced =
        analysis::KernelRegistry::instance().trace("softmax");
    for (auto _ : state) {
        auto rep = analysis::analyzeProgramStatic(traced.program);
        benchmark::DoNotOptimize(&rep);
    }
}
BENCHMARK(BM_StaticAnalyzer);

/// @}

/**
 * The fixed-work scenario behind the metrics document: the same
 * workflows as the end-to-end benchmarks, run exactly once on freshly
 * reset counters. Its counter values depend only on the simulator's
 * code, never on the machine or on google-benchmark's adaptive
 * iteration counts — the tight-threshold half of the selfperf gate.
 */
void
runFixedScenario()
{
    // The timing loops above left both replay caches warm after an
    // adaptive, machine-dependent iteration count. Start from cold
    // caches so the scenario's replay.* hit/miss/insert counts are a
    // function of the code alone. (The counters themselves were just
    // reset; clear() drops only entries.)
    graph::nodeReplayCache().clear();
    graph::stepReplayCache().clear();

    models::LlamaModel model(models::LlamaConfig::llama31_8b());

    serve::EngineConfig ec;
    ec.maxDecodeBatch = 8;
    serve::Engine engine(model, ec);
    engine.run(serve::makeFixedTrace(8, 128, 32));

    models::LlamaServingConfig cfg;
    model.serve(DeviceKind::Gaudi2, cfg);

    analysis::registerBuiltinKernels();
    const auto traced =
        analysis::KernelRegistry::instance().trace("softmax");
    analysis::analyzeProgram(traced.program);
    analysis::analyzeProgramStatic(traced.program);
}

/**
 * Console reporter that also captures run times for the `benchmarks`
 * section of the metrics document — the trajectory CI diffs against.
 * Under --benchmark_repetitions with aggregates, only the median is
 * captured (one noise-tolerant number per benchmark); plain runs are
 * captured as-is.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    explicit CapturingReporter(obs::MetricsMeta &meta) : meta_(meta) {}

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.error_occurred)
                continue;
            if (run.run_type == Run::RT_Aggregate) {
                if (run.aggregate_name == "median") {
                    // run_name is the un-suffixed benchmark name (the
                    // display name would carry "_median").
                    meta_.benchmarks[run.run_name.str()] =
                        run.GetAdjustedRealTime();
                }
            } else {
                meta_.benchmarks[run.benchmark_name()] =
                    run.GetAdjustedRealTime();
            }
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    obs::MetricsMeta &meta_;
};

} // namespace

int
main(int argc, char **argv)
{
    auto opts = bench::parseArgs(argc, argv, "bench_selfperf",
                                 "--benchmark_");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter(opts.meta);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Drop everything the adaptive timing loops recorded, then run the
    // deterministic fixed-work scenario the metrics document reports.
    // The Timeline reset matters under --timeline-interval: the timing
    // loops above publish a machine-dependent number of auto-labelled
    // engine runs, while the fixed scenario's single run is the only
    // deterministic timeline this document should carry.
    obs::CounterRegistry::instance().reset();
    obs::SelfProf::instance().reset();
    obs::Timeline::instance().reset();
    runFixedScenario();
    return bench::finish(opts);
}
