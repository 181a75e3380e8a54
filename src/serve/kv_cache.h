/**
 * @file
 * KV-cache allocator for LLM serving.
 *
 * PagedKvCache implements vLLM's block-based on-demand allocation
 * (Section 4.2): the cache is carved into fixed-size token blocks
 * handed out as sequences grow, eliminating the fragmentation that a
 * contiguous reserve-max-length allocator suffers. The contiguous
 * baseline is the same allocator with one max-length block per
 * sequence (serve::KvPolicy::Contiguous).
 *
 * Sequences are dense indices in [0, max_sequences) — the engine passes
 * each request's index in its trace, never Request::id, so two
 * requests that share an id still own separate blocks. The per-
 * sequence block counts live in a flat table indexed by sequence, so
 * grow() — called for every running request on every decode step — is
 * an array access.
 */

#ifndef VESPERA_SERVE_KV_CACHE_H
#define VESPERA_SERVE_KV_CACHE_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace vespera::serve {

/** vLLM-style paged allocator (block granularity, on demand). */
class PagedKvCache
{
  public:
    /**
     * @param total_blocks Blocks in the pool.
     * @param block_tokens Tokens per block.
     * @param max_sequences Sequence ids run over [0, max_sequences);
     *        any other id panics.
     */
    PagedKvCache(std::int64_t total_blocks, int block_tokens,
                 std::int64_t max_sequences);

    /** Blocks needed to hold `tokens` tokens. */
    std::int64_t blocksFor(std::int64_t tokens) const;

    /** Can sequence `seq` grow to hold `want_tokens` tokens? */
    bool canGrow(std::int64_t seq, std::int64_t want_tokens) const;

    /**
     * Reserve blocks so sequence `seq` holds `tokens` tokens.
     * Returns false (no change) if the pool lacks blocks.
     */
    bool grow(std::int64_t seq, std::int64_t tokens);

    /** Release all blocks of a sequence (no-op if it holds none). */
    void release(std::int64_t seq);

    std::int64_t freeBlocks() const { return freeBlocks_; }
    std::int64_t totalBlocks() const { return totalBlocks_; }
    int blockTokens() const { return blockTokens_; }
    /** Sequences currently holding at least one block. */
    std::int64_t activeSequences() const { return active_; }

  private:
    /** Index of `seq` in held_; panics when out of range. */
    std::size_t slot(std::int64_t seq) const;

    std::int64_t totalBlocks_;
    int blockTokens_;
    std::int64_t freeBlocks_;
    std::int64_t active_ = 0;
    std::vector<std::int64_t> held_; ///< Blocks held, by sequence.
};

/** KV bytes per token for a model shard (all layers, K and V). */
Bytes kvBytesPerToken(int layers, int kv_heads, int head_dim,
                      DataType dt);

} // namespace vespera::serve

#endif // VESPERA_SERVE_KV_CACHE_H
