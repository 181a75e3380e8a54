#include <gtest/gtest.h>

#include "tpc/context.h"

namespace vespera::tpc {
namespace {

class ContextTest : public ::testing::Test
{
  protected:
    ContextTest()
        : range_{{0, 0, 0, 0, 0}, {64, 1, 1, 1, 1}},
          ctx_(program_, range_)
    {
    }

    Program program_;
    MemberRange range_;
    TpcContext ctx_;
};

TEST_F(ContextTest, IndexSpaceQueries)
{
    EXPECT_EQ(ctx_.memberStart(0), 0);
    EXPECT_EQ(ctx_.memberEnd(0), 64);
    EXPECT_EQ(ctx_.memberEnd(1), 1);
}

TEST_F(ContextTest, LoadReadsTensorValues)
{
    Tensor t({64}, DataType::FP32);
    t.fill([](std::int64_t i) { return static_cast<float>(i); });
    Vec v = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, t);
    // Default vector width 256 B = 64 fp32 lanes.
    ASSERT_EQ(v.laneCount(), 64);
    EXPECT_FLOAT_EQ(v.lanes[0], 0.0f);
    EXPECT_FLOAT_EQ(v.lanes[63], 63.0f);
}

TEST_F(ContextTest, LoadPastEndZeroFills)
{
    Tensor t({40}, DataType::FP32);
    t.fill([](std::int64_t) { return 1.0f; });
    Vec v = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, t);
    EXPECT_FLOAT_EQ(v.lanes[39], 1.0f);
    EXPECT_FLOAT_EQ(v.lanes[40], 0.0f);
}

TEST_F(ContextTest, AddComputesElementwise)
{
    Tensor a({64}, DataType::FP32), b({64}, DataType::FP32);
    a.fill([](std::int64_t i) { return static_cast<float>(i); });
    b.fill([](std::int64_t i) { return static_cast<float>(2 * i); });
    Vec va = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    Vec vb = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, b);
    Vec sum = ctx_.v_add(va, vb);
    EXPECT_FLOAT_EQ(sum.lanes[10], 30.0f);
}

TEST_F(ContextTest, MacComputesFusedMultiplyAdd)
{
    Tensor a({64}, DataType::FP32), b({64}, DataType::FP32);
    a.fill([](std::int64_t) { return 3.0f; });
    b.fill([](std::int64_t) { return 4.0f; });
    Vec va = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    Vec vb = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, b);
    Vec acc = ctx_.v_zero(64);
    Vec r = ctx_.v_mac(va, vb, acc);
    EXPECT_FLOAT_EQ(r.lanes[0], 12.0f);
    r = ctx_.v_mac(va, vb, r);
    EXPECT_FLOAT_EQ(r.lanes[0], 24.0f);
}

TEST_F(ContextTest, ScalarOps)
{
    Tensor a({64}, DataType::FP32);
    a.fill([](std::int64_t) { return 2.0f; });
    Vec va = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    Vec scaled = ctx_.v_mul_s(va, 2.5f);
    EXPECT_FLOAT_EQ(scaled.lanes[5], 5.0f);
    Vec fma = ctx_.v_mac_s(va, 10.0f, scaled);
    EXPECT_FLOAT_EQ(fma.lanes[5], 25.0f);
}

TEST_F(ContextTest, StoreWritesBack)
{
    Tensor a({64}, DataType::FP32), out({64}, DataType::FP32);
    a.fill([](std::int64_t i) { return static_cast<float>(i + 1); });
    Vec v = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    ctx_.v_st_tnsr({0, 0, 0, 0, 0}, out, v);
    EXPECT_FLOAT_EQ(out.at(std::int64_t{7}), 8.0f);
}

TEST_F(ContextTest, ScalarLoadReturnsValue)
{
    Tensor idx({4}, DataType::FP32);
    idx.at(std::int64_t{2}) = 17.0f;
    EXPECT_FLOAT_EQ(ctx_.s_ld({2, 0, 0, 0, 0}, idx), 17.0f);
}

TEST_F(ContextTest, LocalMemoryRoundTrip)
{
    Tensor a({64}, DataType::FP32);
    a.fill([](std::int64_t i) { return static_cast<float>(i); });
    Vec v = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    ctx_.v_st_local(128, v);
    Vec back = ctx_.v_ld_local(128, 64);
    EXPECT_FLOAT_EQ(back.lanes[33], 33.0f);
    EXPECT_EQ(ctx_.localHighWater(), (128 + 64) * 4u);
}

TEST_F(ContextTest, TraceRecordsFlopsAndBytes)
{
    Tensor a({64}, DataType::FP32), b({64}, DataType::FP32);
    Vec va = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    Vec vb = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, b);
    Vec s = ctx_.v_add(va, vb);
    ctx_.v_st_tnsr({0, 0, 0, 0, 0}, a, s);
    EXPECT_DOUBLE_EQ(program_.flops(), 64.0);
    EXPECT_EQ(program_.streamBytes(), 3u * 256);
    EXPECT_EQ(program_.randomBytes(), 0u);
}

TEST_F(ContextTest, RandomAccessTracked)
{
    Tensor a({1024}, DataType::FP32);
    (void)ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a, 256, Access::Random);
    EXPECT_EQ(program_.randomBytes(), 256u);
    EXPECT_EQ(program_.randomTransactions(256), 1u);
}

TEST_F(ContextTest, SubGranuleLoadRoundsUpOnBus)
{
    Tensor a({1024}, DataType::FP32);
    (void)ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a, 64, Access::Random);
    EXPECT_EQ(program_.randomBytes(), 64u);       // Useful payload.
    EXPECT_EQ(program_.busBytes(256), 256u);      // Bus traffic.
}

TEST_F(ContextTest, InstructionsCarryIntrinsicLabels)
{
    Tensor a({64}, DataType::FP32);
    Vec v = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    Vec s = ctx_.v_add(v, v);
    ctx_.v_st_tnsr({0, 0, 0, 0, 0}, a, s);
    ASSERT_EQ(program_.instrs().size(), 3u);
    EXPECT_EQ(program_.label(program_.instrs()[0].opLabel),
              "v_ld_tnsr");
    EXPECT_EQ(program_.label(program_.instrs()[1].opLabel), "v_add");
    EXPECT_EQ(program_.label(program_.instrs()[2].opLabel),
              "v_st_tnsr");
}

TEST_F(ContextTest, PhaseLabelOverridesAndReverts)
{
    Tensor a({64}, DataType::FP32);
    ctx_.setOpLabel("phase1:reduce");
    Vec v = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    Vec s = ctx_.v_add(v, v);
    ctx_.setOpLabel("");
    ctx_.v_st_tnsr({0, 0, 0, 0, 0}, a, s);
    EXPECT_EQ(program_.label(program_.instrs()[0].opLabel),
              "phase1:reduce");
    EXPECT_EQ(program_.label(program_.instrs()[1].opLabel),
              "phase1:reduce");
    EXPECT_EQ(program_.label(program_.instrs()[2].opLabel),
              "v_st_tnsr");
}

TEST_F(ContextTest, MemoryProvenanceRecorded)
{
    Tensor a({1024}, DataType::FP32), b({1024}, DataType::FP32);
    (void)ctx_.v_ld_tnsr({64, 0, 0, 0, 0}, a, 256);
    (void)ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, b, 256);
    Vec v = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a, 256);
    ctx_.v_st_local(32, v);
    const auto &is = program_.instrs();
    ASSERT_EQ(is.size(), 4u);
    // Byte offsets within the owning tensor's stream.
    EXPECT_EQ(is[0].memOffset, 64 * 4);
    EXPECT_EQ(is[1].memOffset, 0);
    // Same tensor -> same stream id; different tensors differ.
    EXPECT_EQ(is[0].memStream, is[2].memStream);
    EXPECT_NE(is[0].memStream, is[1].memStream);
    EXPECT_NE(is[0].memStream, 0u);
    // Local memory uses the reserved stream, offsets in bytes.
    EXPECT_EQ(is[3].memStream, 1u);
    EXPECT_EQ(is[3].memOffset, 32 * 4);
}

TEST_F(ContextTest, LocalMemoryOverflowPanics)
{
    Tensor a({64}, DataType::FP32);
    Vec v = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a);
    EXPECT_DEATH(ctx_.v_st_local(kLocalMemoryBytes / 4 - 10, v),
                 "local memory overflow");
}

TEST_F(ContextTest, LaneMismatchPanics)
{
    Tensor a({64}, DataType::FP32);
    Vec v64 = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a, 256);
    Vec v32 = ctx_.v_ld_tnsr({0, 0, 0, 0, 0}, a, 128);
    EXPECT_DEATH((void)ctx_.v_add(v64, v32), "lane mismatch");
}

} // namespace
} // namespace vespera::tpc
