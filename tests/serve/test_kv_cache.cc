#include <gtest/gtest.h>

#include "serve/kv_cache.h"

namespace vespera::serve {
namespace {

TEST(PagedKvCache, BlocksForRoundsUp)
{
    PagedKvCache kv(100, 128, 1);
    EXPECT_EQ(kv.blocksFor(1), 1);
    EXPECT_EQ(kv.blocksFor(128), 1);
    EXPECT_EQ(kv.blocksFor(129), 2);
    EXPECT_EQ(kv.blocksFor(0), 0);
}

TEST(PagedKvCache, GrowAndRelease)
{
    PagedKvCache kv(10, 128, 2);
    EXPECT_TRUE(kv.grow(1, 300)); // 3 blocks.
    EXPECT_EQ(kv.freeBlocks(), 7);
    EXPECT_TRUE(kv.grow(1, 400)); // 4 blocks total (+1).
    EXPECT_EQ(kv.freeBlocks(), 6);
    kv.release(1);
    EXPECT_EQ(kv.freeBlocks(), 10);
    EXPECT_EQ(kv.activeSequences(), 0);
}

TEST(PagedKvCache, GrowIsIncrementalNotDouble)
{
    PagedKvCache kv(4, 128, 2);
    EXPECT_TRUE(kv.grow(1, 128));
    EXPECT_TRUE(kv.grow(1, 129)); // Needs only 1 more block.
    EXPECT_EQ(kv.freeBlocks(), 2);
}

TEST(PagedKvCache, RefusesWhenExhausted)
{
    PagedKvCache kv(2, 128, 3);
    EXPECT_TRUE(kv.grow(1, 256));
    EXPECT_FALSE(kv.grow(2, 128));
    EXPECT_FALSE(kv.canGrow(2, 128));
    kv.release(1);
    EXPECT_TRUE(kv.canGrow(2, 128));
}

TEST(PagedKvCache, GrowFailureLeavesStateUnchanged)
{
    PagedKvCache kv(3, 128, 2);
    EXPECT_TRUE(kv.grow(1, 128));
    EXPECT_FALSE(kv.grow(1, 128 * 4));
    EXPECT_EQ(kv.freeBlocks(), 2); // Unchanged by the failed grow.
    EXPECT_TRUE(kv.grow(1, 128 * 3));
}

TEST(PagedKvCache, SparseIdsBelowCapacity)
{
    PagedKvCache kv(8, 128, 1000);
    EXPECT_TRUE(kv.grow(999, 128));
    EXPECT_TRUE(kv.grow(0, 256));
    EXPECT_TRUE(kv.grow(500, 1));
    EXPECT_EQ(kv.freeBlocks(), 4);
    EXPECT_EQ(kv.activeSequences(), 3);
    EXPECT_TRUE(kv.canGrow(999, 128 * 5)); // Holds 1, needs 4 more.
    EXPECT_FALSE(kv.canGrow(1, 128 * 5));  // Holds none, needs 5.
    kv.release(0);
    EXPECT_EQ(kv.freeBlocks(), 6);
    EXPECT_EQ(kv.activeSequences(), 2);
}

TEST(PagedKvCache, ReleaseOfNeverGrownIdIsANoOp)
{
    PagedKvCache kv(4, 128, 3);
    EXPECT_TRUE(kv.grow(1, 128));
    kv.release(2);
    kv.release(0);
    EXPECT_EQ(kv.freeBlocks(), 3);
    EXPECT_EQ(kv.activeSequences(), 1);
    // A zero-token grow reserves nothing and activates nothing.
    EXPECT_TRUE(kv.grow(2, 0));
    EXPECT_EQ(kv.activeSequences(), 1);
    kv.release(2);
    EXPECT_EQ(kv.freeBlocks(), 3);
}

TEST(PagedKvCache, ActiveSequencesTrackGrowReleaseRegrow)
{
    PagedKvCache kv(16, 128, 4);
    EXPECT_EQ(kv.activeSequences(), 0);
    EXPECT_TRUE(kv.grow(0, 128));
    EXPECT_TRUE(kv.grow(0, 300)); // Growing an active sequence.
    EXPECT_EQ(kv.activeSequences(), 1);
    EXPECT_TRUE(kv.grow(3, 128));
    EXPECT_EQ(kv.activeSequences(), 2);
    kv.release(0);
    EXPECT_EQ(kv.activeSequences(), 1);
    kv.release(0); // Second release: no-op.
    EXPECT_EQ(kv.activeSequences(), 1);
    EXPECT_TRUE(kv.grow(0, 128)); // Re-grow after a release.
    EXPECT_EQ(kv.activeSequences(), 2);
    EXPECT_EQ(kv.freeBlocks(), 14);
    kv.release(0);
    kv.release(3);
    EXPECT_EQ(kv.activeSequences(), 0);
    EXPECT_EQ(kv.freeBlocks(), 16);
}

TEST(PagedKvCacheDeathTest, OutOfRangeIdPanics)
{
    PagedKvCache kv(4, 128, 2);
    EXPECT_DEATH((void)kv.grow(-1, 128), "out of range");
    EXPECT_DEATH((void)kv.grow(2, 128), "out of range");
    EXPECT_DEATH((void)kv.canGrow(2, 128), "out of range");
    EXPECT_DEATH(kv.release(-1), "out of range");
}

// KvPolicy::Contiguous: the same allocator with one max-length block
// per sequence, so every admitted sequence reserves max_len tokens.
TEST(ContiguousKvCache, ReservesMaxLength)
{
    const std::int64_t max_len = 2048;
    PagedKvCache kv(10000 / max_len, static_cast<int>(max_len), 6);
    EXPECT_EQ(kv.totalBlocks(), 4); // Four sequences fit.
    EXPECT_TRUE(kv.grow(1, 1));
    EXPECT_TRUE(kv.grow(2, 1));
    EXPECT_TRUE(kv.grow(3, 1));
    EXPECT_TRUE(kv.grow(4, 1));
    EXPECT_FALSE(kv.grow(5, 1)); // Fragmented away.
    kv.release(2);
    EXPECT_TRUE(kv.grow(5, 1));
}

// The PagedAttention motivation: paging admits far more concurrent
// short sequences than max-length reservation.
TEST(KvCache, PagingBeatsContiguousForShortSequences)
{
    const std::int64_t pool_tokens = 1 << 16;
    const std::int64_t max_len = 4096;
    const std::int64_t actual_len = 512;

    PagedKvCache contiguous(pool_tokens / max_len,
                            static_cast<int>(max_len), 1000);
    PagedKvCache paged(pool_tokens / 128, 128, 1000);

    int contiguous_admitted = 0, paged_admitted = 0;
    for (int i = 0; i < 1000; i++) {
        if (contiguous.grow(i, actual_len))
            contiguous_admitted++;
        if (paged.grow(i, actual_len))
            paged_admitted++;
    }
    EXPECT_EQ(contiguous_admitted, 16);
    EXPECT_EQ(paged_admitted, 128);
}

TEST(KvCache, BytesPerToken)
{
    // Llama-8B BF16: 32 layers x 2 x 8 heads x 128 dim x 2 B = 131072.
    EXPECT_EQ(kvBytesPerToken(32, 8, 128, DataType::BF16), 131072u);
}

} // namespace
} // namespace vespera::serve
