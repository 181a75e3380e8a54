/**
 * @file
 * Property-based tests of the end-to-end model simulators (Llama and
 * DLRM) across devices, shapes, and parallelism degrees.
 */

#include <gtest/gtest.h>

#include "models/dlrm.h"
#include "models/llama.h"
#include "prop_rows.h"

namespace vespera::models {
namespace {

// ---------------------------------------------------------------- Llama

struct LlamaCase
{
    DeviceKind device;
    int batch;
    int tp;
    AttentionBackend backend;
};

void
PrintTo(const LlamaCase &c, std::ostream *os)
{
    *os << deviceName(c.device) << " b" << c.batch << " tp" << c.tp;
}

class LlamaProperty : public ::testing::TestWithParam<LlamaCase>
{
  public:
    LlamaProperty()
        : model_(LlamaConfig::llama31_8b())
    {
    }
    LlamaModel model_;
};

TEST_P(LlamaProperty, StepTimeMonotoneInContext)
{
    const auto &p = GetParam();
    LlamaServingConfig cfg;
    cfg.tpDevices = p.tp;
    cfg.attention = p.backend;
    Seconds prev = 0;
    for (std::int64_t ctx : {128, 512, 2048, 8192}) {
        Seconds t = model_.stepTime(p.device, p.batch, 1, ctx, false,
                                    cfg);
        EXPECT_GT(t, prev) << "ctx " << ctx;
        prev = t;
    }
}

TEST_P(LlamaProperty, StepTimeMonotoneInBatch)
{
    const auto &p = GetParam();
    LlamaServingConfig cfg;
    cfg.tpDevices = p.tp;
    cfg.attention = p.backend;
    Seconds t1 = model_.stepTime(p.device, 1, 1, 1024, false, cfg);
    Seconds t2 = model_.stepTime(p.device, 4 * p.batch, 1, 1024, false,
                                 cfg);
    EXPECT_GE(t2, t1);
}

TEST_P(LlamaProperty, ServeTotalsConsistent)
{
    const auto &p = GetParam();
    LlamaServingConfig cfg;
    cfg.batch = p.batch;
    cfg.outputLen = 50;
    cfg.tpDevices = p.tp;
    cfg.attention = p.backend;
    auto r = model_.serve(p.device, cfg);
    EXPECT_NEAR(r.totalTime, r.prefillTime + r.decodeTime, 1e-12);
    EXPECT_NEAR(r.tokensPerSec * r.totalTime,
                static_cast<double>(p.batch) * 50, 1e-6);
    EXPECT_GT(r.avgPowerPerDevice,
              hw::deviceSpec(p.device).idlePower);
    EXPECT_LE(r.avgPowerPerDevice, hw::deviceSpec(p.device).tdp);
    EXPECT_NEAR(r.energy,
                r.avgPowerPerDevice * r.totalTime * p.tp, 1e-9);
}

std::vector<LlamaCase>
llamaCases()
{
    return {
        {DeviceKind::Gaudi2, 1, 1, AttentionBackend::Static},
        {DeviceKind::Gaudi2, 16, 1, AttentionBackend::Static},
        {DeviceKind::Gaudi2, 16, 4, AttentionBackend::VllmOpt},
        {DeviceKind::Gaudi2, 64, 1, AttentionBackend::VllmBase},
        {DeviceKind::A100, 1, 1, AttentionBackend::Static},
        {DeviceKind::A100, 16, 4, AttentionBackend::VllmOpt},
        {DeviceKind::A100, 64, 1, AttentionBackend::Static},
    };
}

INSTANTIATE_TEST_SUITE_P(Sweep, LlamaProperty,
                         ::testing::ValuesIn(llamaCases()));

// Single-device rows only: they are the baseline tp=4 is measured
// against.
const bool kTensorParallelismShrinksStepTime =
    prop::registerRows<LlamaProperty>(
        "Sweep/LlamaProperty", "TensorParallelismShrinksStepTime",
        llamaCases(), [](const LlamaCase &p) { return p.tp == 1; },
        [](LlamaProperty &f, const LlamaCase &p) {
            LlamaServingConfig one;
            one.attention = p.backend;
            LlamaServingConfig four = one;
            four.tpDevices = 4;
            Seconds t1 = f.model_.stepTime(p.device, p.batch, 1, 2048,
                                           false, one);
            Seconds t4 = f.model_.stepTime(p.device, p.batch, 1, 2048,
                                           false, four);
            // Communication keeps it well above a 4x speedup.
            EXPECT_LT(t4, t1);
            EXPECT_GT(t4, t1 / 4);
        });

// ----------------------------------------------------------------- DLRM

struct DlrmCase
{
    DeviceKind device;
    int batch;
    Bytes vecBytes;
};

void
PrintTo(const DlrmCase &c, std::ostream *os)
{
    *os << deviceName(c.device) << " b" << c.batch << " v"
        << c.vecBytes;
}

class DlrmProperty : public ::testing::TestWithParam<DlrmCase>
{
  protected:
    DlrmProperty()
        : model_([] {
              DlrmConfig c = DlrmConfig::rm2();
              c.rowsPerTable = 1 << 12;
              return c;
          }())
    {
    }
    DlrmModel model_;
};

TEST_P(DlrmProperty, ReportWellFormed)
{
    const auto &p = GetParam();
    DlrmRunConfig run;
    run.batch = p.batch;
    run.embVectorBytes = p.vecBytes;
    Rng rng(3);
    auto r = model_.run(p.device, run, rng);
    EXPECT_GT(r.time, 0);
    EXPECT_NEAR(r.time, r.embeddingTime + r.denseTime, 1e-12);
    EXPECT_NEAR(r.samplesPerSec * r.time, p.batch, 1e-6);
    EXPECT_GT(r.power, hw::deviceSpec(p.device).idlePower);
    EXPECT_LE(r.power, hw::deviceSpec(p.device).tdp);
}

TEST_P(DlrmProperty, ThroughputGrowsWithBatch)
{
    const auto &p = GetParam();
    DlrmRunConfig run;
    run.embVectorBytes = p.vecBytes;
    Rng rng(4);
    run.batch = p.batch;
    auto small = model_.run(p.device, run, rng);
    run.batch = p.batch * 4;
    auto big = model_.run(p.device, run, rng);
    EXPECT_GT(big.samplesPerSec, small.samplesPerSec);
}

TEST_P(DlrmProperty, MultiDeviceConsistent)
{
    // Every row's batch splits evenly across the 4 devices.
    const auto &p = GetParam();
    DlrmRunConfig run;
    run.batch = p.batch;
    run.embVectorBytes = p.vecBytes;
    Rng rng(5);
    auto multi = model_.runMultiDevice(p.device, run, 4, rng);
    EXPECT_GT(multi.commTime, 0);
    EXPECT_NEAR(multi.time,
                multi.embeddingTime + multi.commTime + multi.denseTime,
                1e-12);
    // 4 devices consume energy; per-sample energy stays finite.
    EXPECT_GT(multi.samplesPerJoule, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DlrmProperty,
    ::testing::Values(DlrmCase{DeviceKind::Gaudi2, 256, 64},
                      DlrmCase{DeviceKind::Gaudi2, 256, 512},
                      DlrmCase{DeviceKind::Gaudi2, 2048, 128},
                      DlrmCase{DeviceKind::A100, 256, 64},
                      DlrmCase{DeviceKind::A100, 2048, 256}));

} // namespace
} // namespace vespera::models
