/**
 * @file
 * Continuous-batching LLM serving engine (the vLLM substitute used for
 * Figure 17(d,e)).
 *
 * Iteration-level scheduling in the ORCA/vLLM style: each engine step
 * either prefills one admitted request or decodes one token for every
 * running request. KV blocks are allocated on demand from a
 * PagedKvCache whose sequences are the requests' indices in the trace
 * (ids may repeat; indices cannot); when the pool runs dry the newest
 * running request is preempted and re-queued. Step latencies come from
 * the LlamaModel's graph execution with the configured attention
 * backend.
 *
 * Parallelism: when the runtime pool is parallel, the engine prefetches
 * step-cost evaluations — the next decode ctx buckets at the current
 * batch, and (monolithic-prefill mode) every prefill bucket the trace
 * will need — across the pool's workers. Each prefetched evaluation
 * captures its counter side effects (obs/capture.h); the capture is
 * replayed the first time the serial schedule actually reads that cache
 * entry, and never for entries the schedule never reads. Counter state
 * and metrics therefore stay bit-identical at any thread count
 * (docs/runtime.md).
 */

#ifndef VESPERA_SERVE_ENGINE_H
#define VESPERA_SERVE_ENGINE_H

#include <map>
#include <string>
#include <vector>

#include "models/llama.h"
#include "obs/capture.h"
#include "serve/kv_cache.h"
#include "serve/trace.h"

namespace vespera::serve {

/** Admission-order policy for waiting requests. */
enum class SchedPolicy {
    Fcfs,                ///< First come, first served.
    ShortestPromptFirst, ///< Among arrived requests, prefill the
                         ///< shortest prompt first (lower mean TTFT,
                         ///< at some fairness cost).
};

/** KV-cache allocation policy. */
enum class KvPolicy {
    Paged,      ///< vLLM block-based on-demand allocation.
    Contiguous, ///< Reserve max-model-length per admitted request
                ///< (the fragmentation-prone pre-vLLM baseline).
};

/** Engine configuration (Figure 17(d,e) sweeps maxDecodeBatch). */
struct EngineConfig
{
    DeviceKind device = DeviceKind::Gaudi2;
    /// Maximum decode-stage batch size.
    int maxDecodeBatch = 64;
    int tpDevices = 1;
    models::AttentionBackend attention =
        models::AttentionBackend::VllmOpt;
    /// HBM reserved for the KV cache (per device).
    Bytes kvCacheBytes = 40ull << 30;
    int blockTokens = 128;
    KvPolicy kvPolicy = KvPolicy::Paged;
    SchedPolicy schedPolicy = SchedPolicy::Fcfs;
    /// Tokens reserved per request under the Contiguous policy.
    std::int64_t maxModelLen = 4096;
    /// When nonzero, prefills are split into chunks of this many
    /// tokens and co-scheduled with the decode batch (vLLM's chunked
    /// prefill): long prompts no longer stall running decodes, at the
    /// cost of slightly later first tokens for the prefilling request.
    int chunkedPrefillTokens = 0;
    /// Record per-step engine events (see events()).
    bool recordEvents = false;
    DataType dt = DataType::BF16;
    /// Label for this engine's virtual-time timeline series
    /// (obs/timeline.h) when the Timeline is enabled; empty means the
    /// Timeline assigns a deterministic "runN" label at publish.
    std::string timelineLabel;
};

/**
 * Cost of one engine step, harvested from the model's
 * graph::ExecutionReport: the step latency plus the per-unit busy
 * times the timeline layer turns into windowed utilization gauges.
 */
struct StepCost
{
    Seconds t = 0;        ///< Step latency (what the clock advances by).
    Seconds mmeBusy = 0;  ///< Matrix-engine busy time within the step.
    Seconds tpcBusy = 0;  ///< Vector-engine busy time within the step.
    double hbmBytes = 0;  ///< HBM traffic of the step.
};

/** One engine iteration, for profiling/visualization. */
struct EngineEvent
{
    enum class Kind { Prefill, Decode, Mixed };
    Kind kind = Kind::Decode;
    Seconds start = 0;
    Seconds duration = 0;
    int decodeBatch = 0;
    int prefillTokens = 0;
};

/** Serving-level metrics (Figure 17(d,e) y-axes). */
struct ServingMetrics
{
    Seconds makespan = 0;
    double throughputTokensPerSec = 0; ///< Generated tokens / makespan.
    Seconds meanTtft = 0;              ///< Mean time-to-first-token.
    Seconds meanTpot = 0;              ///< Mean time-per-output-token.
    Seconds p99Ttft = 0;
    int completed = 0;
    int preemptions = 0;
    double avgDecodeBatch = 0; ///< Mean running batch per decode step.
};

/** The engine. */
class Engine
{
  public:
    Engine(const models::LlamaModel &model, EngineConfig config);

    /** Simulate serving the trace to completion. */
    ServingMetrics run(std::vector<Request> trace);

    /** Per-step events of the last run (if recordEvents was set). */
    const std::vector<EngineEvent> &events() const { return events_; }

    /**
     * HBM bytes left for KV after model weights on this device; the
     * constructor clamps kvCacheBytes to it.
     */
    Bytes kvBudget() const { return kvBudget_; }

  private:
    /**
     * One memoized step-cost evaluation. Entries computed eagerly on
     * the serial path carry an empty, already-replayed log; entries
     * prefetched on a worker carry the captured counter effects, which
     * `use()` applies exactly once, at the first read.
     */
    struct CachedStep
    {
        StepCost c;
        obs::SideEffectLog log;
        bool replayed = false;

        const StepCost &
        use()
        {
            if (!replayed) {
                replayed = true;
                log.replay();
            }
            return c;
        }
    };

    StepCost decodeStepTime(int batch, std::int64_t mean_ctx);
    StepCost prefillStepTime(int input_len);
    StepCost prefillChunkTime(int chunk, std::int64_t ctx);
    void prewarmPrefill(const std::vector<Request> &trace);

    /**
     * Mutable state of one run() plus the scheduler phases. Defined in
     * serve/engine_run.h (internal header).
     */
    struct RunState;

    const models::LlamaModel &model_;
    EngineConfig config_;
    models::LlamaServingConfig servingCfg_;
    /// Memoized step times keyed by (batch, ctx bucket).
    std::map<std::pair<int, std::int64_t>, CachedStep> decodeCache_;
    std::map<int, CachedStep> prefillCache_;
    std::vector<EngineEvent> events_;
    Bytes kvBudget_ = 0;
};

} // namespace vespera::serve

#endif // VESPERA_SERVE_ENGINE_H
