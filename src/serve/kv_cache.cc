#include "serve/kv_cache.h"

#include "common/logging.h"
#include "obs/counters.h"

namespace vespera::serve {

PagedKvCache::PagedKvCache(std::int64_t total_blocks, int block_tokens,
                           std::int64_t max_sequences)
    : totalBlocks_(total_blocks), blockTokens_(block_tokens),
      freeBlocks_(total_blocks)
{
    vassert(total_blocks > 0 && block_tokens > 0 && max_sequences >= 0,
            "bad KV pool");
    held_.assign(static_cast<std::size_t>(max_sequences), 0);
}

std::size_t
PagedKvCache::slot(std::int64_t seq) const
{
    vassert(seq >= 0 && seq < static_cast<std::int64_t>(held_.size()),
            "KV sequence %lld out of range [0, %zu)",
            static_cast<long long>(seq), held_.size());
    return static_cast<std::size_t>(seq);
}

std::int64_t
PagedKvCache::blocksFor(std::int64_t tokens) const
{
    return (tokens + blockTokens_ - 1) / blockTokens_;
}

bool
PagedKvCache::canGrow(std::int64_t seq, std::int64_t want_tokens) const
{
    const std::int64_t need = blocksFor(want_tokens) - held_[slot(seq)];
    return need <= freeBlocks_;
}

bool
PagedKvCache::grow(std::int64_t seq, std::int64_t tokens)
{
    std::int64_t &held = held_[slot(seq)];
    const std::int64_t want = blocksFor(tokens);
    const std::int64_t need = want - held;
    auto &registry = obs::CounterRegistry::instance();
    if (need > freeBlocks_) {
        static obs::Counter &failures =
            registry.counter("kv.grow_failures");
        failures.add();
        return false;
    }
    if (need > 0) {
        if (held == 0)
            active_++;
        freeBlocks_ -= need;
        held = want;
        static obs::Counter &grown =
            registry.counter("kv.blocks_allocated");
        static obs::Counter &high =
            registry.counter("kv.blocks_high_water");
        grown.add(static_cast<double>(need));
        // Gauge: peak() is the pool-wide high-water mark.
        high.set(static_cast<double>(totalBlocks_ - freeBlocks_));
    }
    return true;
}

void
PagedKvCache::release(std::int64_t seq)
{
    std::int64_t &held = held_[slot(seq)];
    if (held == 0)
        return;
    freeBlocks_ += held;
    held = 0;
    active_--;
    vassert(freeBlocks_ <= totalBlocks_, "double release");
}

Bytes
kvBytesPerToken(int layers, int kv_heads, int head_dim, DataType dt)
{
    return static_cast<Bytes>(layers) * 2 * kv_heads * head_dim *
           dtypeSize(dt);
}

} // namespace vespera::serve
