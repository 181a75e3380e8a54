#include "serve/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/selfprof.h"
#include "runtime/pool.h"
#include "serve/engine_run.h"

namespace vespera::serve {

namespace {

/// Harvest the step fields the engine (and its timeline gauges) care
/// about from a full execution report. stepReport() is memoized by the
/// step replay cache exactly like stepTime() — stepTime *is*
/// stepReport().time — so this changes no values and no side effects.
StepCost
costOf(const graph::ExecutionReport &r)
{
    return {r.time, r.matrixBusy, r.vectorBusy,
            static_cast<double>(r.hbmBytes)};
}

} // namespace

Engine::Engine(const models::LlamaModel &model, EngineConfig config)
    : model_(model), config_(config)
{
    vassert(config.maxDecodeBatch >= 1, "bad max batch");
    servingCfg_.tpDevices = config.tpDevices;
    servingCfg_.attention = config.attention;
    servingCfg_.dt = config.dt;

    // Capacity accounting: weights plus KV must fit device HBM.
    const auto &spec = hw::deviceSpec(config.device);
    const Bytes weights =
        model.config().weightBytes(config.tpDevices, config.dt);
    vassert(weights < spec.hbmCapacity,
            "%s does not fit on %s with TP=%d (%llu GiB weights)",
            model.config().name.c_str(), deviceName(config.device),
            config.tpDevices,
            static_cast<unsigned long long>(weights >> 30));
    kvBudget_ = spec.hbmCapacity - weights;
    if (config_.kvCacheBytes > kvBudget_) {
        vwarn("kvCacheBytes clamped to %llu GiB (weights take %llu GiB)",
              static_cast<unsigned long long>(kvBudget_ >> 30),
              static_cast<unsigned long long>(weights >> 30));
        config_.kvCacheBytes = kvBudget_;
    }
}

StepCost
Engine::prefillChunkTime(int chunk, std::int64_t ctx)
{
    // Chunked prefill co-executes with the decode batch; this costs
    // the chunk alone (the caller overlaps it with the decode step).
    const int bucket = (chunk + 63) / 64 * 64;
    const std::int64_t ctx_bucket = std::max<std::int64_t>(
        bucket, (ctx + 255) / 256 * 256);
    if (obs::SelfProf::instance().enabled()) {
        // Chunked prefill is evaluated fresh every time (no cache), so
        // each call is a kernel-eval miss in the self-profile.
        obs::SelfProf::instance().cacheMiss(
            strfmt("prefill_chunk|%s|n%d|ctx%lld",
                   deviceName(config_.device), bucket,
                   static_cast<long long>(ctx_bucket)));
    }
    return costOf(model_.stepReport(config_.device, 1, bucket,
                                    ctx_bucket, true, servingCfg_));
}

StepCost
Engine::decodeStepTime(int batch, std::int64_t mean_ctx)
{
    const std::int64_t bucket = (mean_ctx + 63) / 64 * 64;
    const auto key = std::make_pair(batch, bucket);
    auto it = decodeCache_.find(key);
    if (obs::SelfProf::instance().enabled()) {
        // Self-profile cache accounting, keyed kernel x shape x device
        // x bucket granularity. Hit/miss splits shift with --threads
        // (the prefetch window below pre-inserts entries), which is why
        // these live in SelfProf and never in the deterministic
        // counter registry.
        const std::string ck =
            strfmt("decode|%s|b%d|ctx%lld", deviceName(config_.device),
                   batch, static_cast<long long>(bucket));
        if (it == decodeCache_.end())
            obs::SelfProf::instance().cacheMiss(ck);
        else
            obs::SelfProf::instance().cacheHit(ck);
    }
    if (it == decodeCache_.end()) {
        runtime::Pool &pool = runtime::Pool::global();
        const int fan = pool.threads();
        if (fan > 1) {
            // Speculative prefetch: decode context grows one token per
            // step, so the misses that follow this one are the next
            // ctx buckets at the same batch. Evaluate a pool-wide
            // window of them now, capturing each evaluation's counter
            // effects; CachedStep::use replays a capture only when the
            // serial schedule first reads that entry, so entries the
            // schedule never reads leave no counter footprint and the
            // op sequence matches single-threaded execution exactly.
            std::vector<std::pair<std::int64_t, CachedStep>> window(
                static_cast<std::size_t>(fan));
            pool.run(window.size(), [&](std::size_t i) {
                const std::int64_t b =
                    bucket + 64 * static_cast<std::int64_t>(i);
                window[i].first = b;
                obs::ScopedCapture cap(window[i].second.log);
                window[i].second.c = costOf(model_.stepReport(
                    config_.device, batch, 1, b, false, servingCfg_));
            });
            for (auto &entry : window) {
                decodeCache_.emplace(
                    std::make_pair(batch, entry.first),
                    std::move(entry.second));
            }
        } else {
            CachedStep step;
            step.c = costOf(model_.stepReport(config_.device, batch, 1,
                                              bucket, false, servingCfg_));
            step.replayed = true; // Eager: effects already applied.
            decodeCache_.emplace(key, std::move(step));
        }
        it = decodeCache_.find(key);
    }
    return it->second.use();
}

StepCost
Engine::prefillStepTime(int input_len)
{
    const int bucket = (input_len + 63) / 64 * 64;
    auto it = prefillCache_.find(bucket);
    if (obs::SelfProf::instance().enabled()) {
        const std::string ck = strfmt("prefill|%s|in%d",
                                      deviceName(config_.device), bucket);
        if (it == prefillCache_.end())
            obs::SelfProf::instance().cacheMiss(ck);
        else
            obs::SelfProf::instance().cacheHit(ck);
    }
    if (it == prefillCache_.end()) {
        CachedStep step;
        step.c = costOf(model_.stepReport(config_.device, 1, bucket,
                                          bucket, true, servingCfg_));
        step.replayed = true; // Eager: effects already applied.
        it = prefillCache_.emplace(bucket, std::move(step)).first;
    }
    return it->second.use();
}

void
Engine::prewarmPrefill(const std::vector<Request> &trace)
{
    // Monolithic prefill cost depends only on the input-length bucket,
    // so the full set of evaluations the run will need is known up
    // front. Fill the cache across the pool; effects replay at first
    // read (see decodeStepTime).
    runtime::Pool &pool = runtime::Pool::global();
    if (pool.threads() <= 1 || config_.chunkedPrefillTokens > 0)
        return;

    std::vector<int> buckets;
    buckets.reserve(trace.size());
    for (const Request &r : trace)
        buckets.push_back((r.inputLen + 63) / 64 * 64);
    std::sort(buckets.begin(), buckets.end());
    buckets.erase(std::unique(buckets.begin(), buckets.end()),
                  buckets.end());
    buckets.erase(std::remove_if(buckets.begin(), buckets.end(),
                                 [&](int b) {
                                     return prefillCache_.count(b) > 0;
                                 }),
                  buckets.end());
    if (buckets.empty())
        return;

    obs::ScopedSpan span("engine.prewarm_prefill", "runtime");
    if (obs::SelfProf::instance().enabled()) {
        // Prewarmed buckets are the run's prefill misses, recorded here
        // (serially, in bucket order) so prefillStepTime sees hits.
        for (int b : buckets)
            obs::SelfProf::instance().cacheMiss(
                strfmt("prefill|%s|in%d", deviceName(config_.device),
                       b));
    }
    std::vector<CachedStep> steps(buckets.size());
    pool.run(buckets.size(), [&](std::size_t i) {
        obs::ScopedCapture cap(steps[i].log);
        steps[i].c = costOf(model_.stepReport(config_.device, 1,
                                              buckets[i], buckets[i],
                                              true, servingCfg_));
    });
    for (std::size_t i = 0; i < buckets.size(); i++)
        prefillCache_.emplace(buckets[i], std::move(steps[i]));
}

namespace {

/// Under the Contiguous policy every request reserves a full
/// max-model-length slab up front: modeled as paging with one giant
/// block per sequence.
int
kvBlockTokens(const EngineConfig &cfg)
{
    return cfg.kvPolicy == KvPolicy::Paged
               ? cfg.blockTokens
               : static_cast<int>(cfg.maxModelLen);
}

std::int64_t
kvTotalBlocks(const EngineConfig &cfg, const models::LlamaConfig &mc)
{
    const Bytes per_token = kvBytesPerToken(
        mc.layers, std::max(1, mc.numKvHeads / cfg.tpDevices),
        mc.headDim, cfg.dt);
    const Bytes block_bytes =
        per_token * static_cast<Bytes>(kvBlockTokens(cfg));
    return std::max<std::int64_t>(
        1, static_cast<std::int64_t>(cfg.kvCacheBytes / block_bytes));
}

} // namespace

Engine::RunState::RunState(Engine &engine, std::vector<Request> &reqs)
    : eng(engine), trace(reqs),
      paged(engine.config_.kvPolicy == KvPolicy::Paged),
      kv(kvTotalBlocks(engine.config_, engine.model_.config()),
         kvBlockTokens(engine.config_),
         static_cast<std::int64_t>(reqs.size())),
      remaining(reqs.size()), delivered(reqs.size(), 0),
      c_steps(obs::CounterRegistry::instance().counter("engine.steps")),
      c_prefill_tok(obs::CounterRegistry::instance().counter(
          "engine.prefill_tokens")),
      c_decode_tok(obs::CounterRegistry::instance().counter(
          "engine.decode_tokens")),
      c_preempt(obs::CounterRegistry::instance().counter(
          "engine.preemptions")),
      c_recomputed(obs::CounterRegistry::instance().counter(
          "engine.recomputed_tokens")),
      c_kv_in_use(obs::CounterRegistry::instance().counter(
          "kv.blocks_in_use")),
      profiler(obs::Profiler::instance()),
      // Request-lifecycle flow tracing: one Perfetto flow per request
      // (queued -> prefill -> decode, with preemption/re-prefill
      // episodes), linked via SpanEvent::flowId. Queue time renders on
      // one shared lane; admitted requests occupy one of
      // maxDecodeBatch slot lanes for their prefill+decode residency.
      // Recording is skipped under an active capture (a parallel
      // sweep worker): the span order and lane cursors there would
      // depend on thread interleaving, and overlapping sweep points on
      // shared lanes are unreadable anyway — single-run traces
      // (examples/profile_step) are where per-request flows make
      // sense.
      flow_trace(profiler.enabled() &&
                 obs::ScopedCapture::current() == nullptr)
{
    for (std::size_t i = 0; i < trace.size(); i++)
        waiting.push_back(i);
    if (flow_trace) {
        slot_of.assign(trace.size(), -1);
        phase_start.assign(trace.size(), 0);
        episodes.assign(trace.size(), 0);
        for (std::size_t i = 0; i < trace.size(); i++)
            phase_start[i] = trace[i].arrival;
        for (int s = 0; s < eng.config_.maxDecodeBatch; s++)
            free_slots.insert(s);
        profiler.nameTrack(obs::TrackGroup::Device, kLaneQueue,
                           "req queue");
    }

    // Virtual-time timeline: a run-local windowed sampler, created
    // only when the process-wide Timeline is on. Run-local state fed
    // from the serial scheduler path is what keeps the series a pure
    // function of the simulated schedule — sampling the shared counter
    // registry at boundaries would be thread-variant (deferred updates
    // are invisible under capture, and a 1-thread pool skips captures
    // entirely).
    obs::Timeline &timeline = obs::Timeline::instance();
    if (timeline.enabled()) {
        const models::LlamaConfig &mc = eng.model_.config();
        const Bytes per_token = kvBytesPerToken(
            mc.layers,
            std::max(1, mc.numKvHeads / eng.config_.tpDevices),
            mc.headDim, eng.config_.dt);
        kv_block_bytes =
            static_cast<double>(per_token) *
            static_cast<double>(kvBlockTokens(eng.config_));
        tl = std::make_unique<obs::TimelineRecorder>(
            timeline.interval(), timeline.capacity(), timeline.slos());
        g_queue = tl->gaugeId("queue_depth");
        g_running = tl->gaugeId("running");
        g_kv_bytes = tl->gaugeId("kv_bytes_in_use");
        g_kv_hw = tl->gaugeId("kv_high_water_bytes");
        g_preempt = tl->gaugeId("preemptions");
        g_prefill_tok = tl->gaugeId("prefill_tokens");
        g_decode_tok = tl->gaugeId("decode_tokens");
        g_goodput = tl->gaugeId("goodput_tokens_per_sec");
        g_ttft_p99 = tl->gaugeId("ttft_p99_seconds");
        g_tpot_p99 = tl->gaugeId("tpot_p99_seconds");
        g_mme_util = tl->gaugeId("mme_util");
        g_tpc_util = tl->gaugeId("tpc_util");
        g_hbm_gbps = tl->gaugeId("hbm_gbps");
    }
}

void
Engine::RunState::tlAdvance(Seconds t)
{
    // Close every window whose end has passed. The engine advances in
    // whole steps, so a boundary is never itself a scheduling point;
    // boundary gauges are read at the first scheduling point at or
    // after it (documented in docs/observability.md).
    while (tl->windowEnd() <= t) {
        tlSample(tl->windowEnd(), tl->interval());
        tl->closeWindow();
    }
}

void
Engine::RunState::tlSample(Seconds t, Seconds len)
{
    // Arrived-but-unadmitted requests plus the prefill queue. The
    // arrived prefix of `waiting` may be SPF-reordered, so the whole
    // deque is scanned against the boundary time.
    std::int64_t queued =
        static_cast<std::int64_t>(prefill_queue.size());
    for (std::size_t idx : waiting) {
        if (trace[idx].arrival <= t)
            queued++;
    }
    tl->set(g_queue, static_cast<double>(queued));
    tl->set(g_running, static_cast<double>(running.size()));
    const double kv_bytes =
        static_cast<double>(kv.totalBlocks() - kv.freeBlocks()) *
        kv_block_bytes;
    tl->set(g_kv_bytes, kv_bytes);
    // The window's KV high-water is at least the boundary occupancy
    // (a window with no steps still holds its residents' blocks).
    tl->max(g_kv_hw, kv_bytes);

    // Windowed deltas against the previous boundary's snapshots.
    tl->set(g_goodput,
            static_cast<double>(generated_total - w_goodput_base) /
                len);
    w_goodput_base = generated_total;
    tl->set(g_ttft_p99, ttft.diff(ttft_prev).percentile(99));
    ttft_prev = ttft;
    tl->set(g_tpot_p99, tpot.diff(tpot_prev).percentile(99));
    tpot_prev = tpot;

    // Busy fractions. A step is charged whole to the window containing
    // its start, so a fraction can exceed 1 when steps outlast the
    // interval — pick an interval above the typical step time
    // (docs/observability.md).
    tl->set(g_mme_util, w_mme / len);
    tl->set(g_tpc_util, w_tpc / len);
    tl->set(g_hbm_gbps, w_hbm / len / 1e9);
    w_mme = w_tpc = w_hbm = 0;
}

void
Engine::RunState::tlBusy(const StepCost &c)
{
    w_mme += c.mmeBusy;
    w_tpc += c.tpcBusy;
    w_hbm += c.hbmBytes;
}

void
Engine::RunState::tlFinish()
{
    tlAdvance(clock);
    if (clock > tl->windowStart()) {
        tlSample(clock, clock - tl->windowStart());
        tl->closeFinal(clock);
    }
    tl->publish(eng.config_.timelineLabel);
}

std::int64_t
Engine::RunState::reserveTokens(const Request &r) const
{
    return paged ? static_cast<std::int64_t>(r.inputLen) + 1
                 : std::max<std::int64_t>(eng.config_.maxModelLen,
                                          r.inputLen + r.outputLen);
}

void
Engine::RunState::flowSpan(const Request &r, const char *phase,
                           int lane, Seconds start)
{
    obs::SpanEvent e;
    e.name = strfmt("req %lld %s", static_cast<long long>(r.id), phase);
    e.category = "request";
    e.group = obs::TrackGroup::Device;
    e.track = lane;
    e.start = start;
    e.duration = clock - start;
    e.flowId = static_cast<std::uint64_t>(r.id) + 1;
    profiler.recordSpan(std::move(e));
}

void
Engine::RunState::allocSlot(std::size_t idx)
{
    vassert(!free_slots.empty(), "more residents than batch slots");
    const int s = *free_slots.begin();
    free_slots.erase(free_slots.begin());
    slot_of[idx] = s;
    profiler.nameTrack(obs::TrackGroup::Device, kLaneSlot0 + s,
                       strfmt("req slot %d", s));
}

void
Engine::RunState::releaseSlot(std::size_t idx)
{
    free_slots.insert(slot_of[idx]);
    slot_of[idx] = -1;
}

// Queue span ends and a slot lane begins when prefill starts.
void
Engine::RunState::flowAdmit(std::size_t idx)
{
    flowSpan(trace[idx], episodes[idx] ? "re-queued" : "queued",
             kLaneQueue, phase_start[idx]);
    allocSlot(idx);
    phase_start[idx] = clock;
}

void
Engine::RunState::record(EngineEvent::Kind kind, Seconds start,
                         Seconds duration, int batch, int chunk)
{
    // Telemetry runs regardless of recordEvents: counters are cheap,
    // and per-step counter tracks only when tracing.
    c_steps.add();
    c_prefill_tok.add(chunk);
    c_decode_tok.add(batch);
    const std::int64_t blocks_in_use =
        kv.totalBlocks() - kv.freeBlocks();
    c_kv_in_use.set(static_cast<double>(blocks_in_use));
    if (tl) {
        // Close windows the clock has passed, then charge this step's
        // scheduling to the window containing its start.
        tlAdvance(start);
        tl->add(g_prefill_tok, chunk);
        tl->add(g_decode_tok, batch);
        tl->max(g_kv_hw,
                static_cast<double>(blocks_in_use) * kv_block_bytes);
    }
    if (profiler.enabled()) {
        profiler.sample("kv.blocks_in_use", start + duration,
                        static_cast<double>(blocks_in_use));
        profiler.sample("engine.decode_batch", start + duration, batch);
    }
    if (!eng.config_.recordEvents)
        return;
    EngineEvent e;
    e.kind = kind;
    e.start = start;
    e.duration = duration;
    e.decodeBatch = batch;
    e.prefillTokens = chunk;
    eng.events_.push_back(e);
}

// Completes a request's prefill: its first token materializes.
// After a preemption the same request prefills again — recompute
// rebuilds its KV — but its first token was already delivered, so
// TTFT and the generated-token total are recorded only once.
void
Engine::RunState::finishPrefill(std::size_t idx)
{
    Request &r = trace[idx];
    r.prefilled = true;
    r.generated = 1;
    if (flow_trace) {
        flowSpan(r, episodes[idx] ? "re-prefill" : "prefill",
                 kLaneSlot0 + slot_of[idx], phase_start[idx]);
        phase_start[idx] = clock;
    }
    if (r.firstTokenTime < 0) {
        r.firstTokenTime = clock;
        ttft.add(clock - r.arrival);
    }
    if (r.generated > delivered[idx]) {
        delivered[idx] = r.generated;
        generated_total++;
    } else {
        c_recomputed.add();
    }
    if (requestFinished(r)) {
        r.finishTime = clock;
        kv.release(idx);
        remaining--;
        if (flow_trace)
            releaseSlot(idx);
    } else {
        running.push_back(idx);
    }
}

void
Engine::RunState::spfSort()
{
    // Shortest-prompt-first: reorder the arrived prefix of the
    // waiting queue by prompt length before admitting.
    if (eng.config_.schedPolicy == SchedPolicy::ShortestPromptFirst &&
        waiting.size() > 1) {
        auto arrived_end = waiting.begin();
        while (arrived_end != waiting.end() &&
               trace[*arrived_end].arrival <= clock) {
            ++arrived_end;
        }
        std::stable_sort(waiting.begin(), arrived_end,
                         [&](std::size_t a, std::size_t b) {
                             return trace[a].inputLen <
                                    trace[b].inputLen;
                         });
    }
}

void
Engine::RunState::admitArrived()
{
    // Admission: arrived requests into free slots, KV permitting.
    while (!waiting.empty()) {
        const std::size_t idx = waiting.front();
        const Request &r = trace[idx];
        const bool slot_free =
            static_cast<int>(running.size() + prefill_queue.size()) <
            eng.config_.maxDecodeBatch;
        if (r.arrival > clock || !slot_free ||
            !kv.canGrow(idx, reserveTokens(r))) {
            break;
        }
        kv.grow(idx, reserveTokens(r));
        prefill_queue.push_back(idx);
        waiting.pop_front();
    }
}

void
Engine::RunState::monolithicPrefillStep()
{
    // Monolithic prefill of one request (stalls decodes).
    const std::size_t idx = prefill_queue.front();
    prefill_queue.pop_front();
    Request &r = trace[idx];
    if (flow_trace)
        flowAdmit(idx);
    const StepCost sc = eng.prefillStepTime(r.inputLen);
    record(EngineEvent::Kind::Prefill, clock, sc.t, 0, r.inputLen);
    if (tl)
        tlBusy(sc);
    clock += sc.t;
    finishPrefill(idx);
}

void
Engine::RunState::idleJump()
{
    // Idle: jump to the next arrival.
    vassert(!waiting.empty(), "deadlock: nothing running or waiting");
    clock = std::max(clock, trace[waiting.front()].arrival);
}

void
Engine::RunState::preemptScan()
{
    // Grow KV for every decoding sequence; preempt the newest on
    // exhaustion (vLLM's recompute-on-preemption policy).
    // Preemptions happen at the current clock, which may sit past an
    // unclosed window boundary (the scan precedes the step's record);
    // closing here keeps them attributed to the right window.
    if (tl)
        tlAdvance(clock);
    for (std::size_t k = running.size(); k-- > 0;) {
        Request &r = trace[running[k]];
        if (!kv.grow(running[k], r.inputLen + r.generated + 1)) {
            if (flow_trace) {
                flowSpan(r, "decode (preempted)",
                         kLaneSlot0 + slot_of[running[k]],
                         phase_start[running[k]]);
                releaseSlot(running[k]);
                episodes[running[k]]++;
                phase_start[running[k]] = clock;
            }
            kv.release(running[k]);
            r.generated = 0;
            r.prefilled = false;
            r.prefillProgress = 0;
            waiting.push_front(running[k]);
            running.erase(running.begin() +
                          static_cast<std::ptrdiff_t>(k));
            m.preemptions++;
            c_preempt.add();
            if (tl)
                tl->add(g_preempt, 1);
        }
    }
}

void
Engine::RunState::decodeChunkStep(bool has_chunk)
{
    StepCost dc{};
    if (!running.empty()) {
        std::int64_t ctx_sum = 0;
        for (auto i : running)
            ctx_sum += trace[i].inputLen + trace[i].generated;
        dc = eng.decodeStepTime(
            static_cast<int>(running.size()),
            ctx_sum / static_cast<std::int64_t>(running.size()));
    }
    const Seconds decode_time = dc.t;

    StepCost pc{};
    int chunk = 0;
    std::size_t chunk_idx = 0;
    if (has_chunk) {
        chunk_idx = prefill_queue.front();
        Request &r = trace[chunk_idx];
        // First chunk of this prefill episode: the request leaves
        // the queue lane and takes a slot.
        if (flow_trace && slot_of[chunk_idx] < 0)
            flowAdmit(chunk_idx);
        chunk = std::min(eng.config_.chunkedPrefillTokens,
                         r.inputLen - r.prefillProgress);
        pc = eng.prefillChunkTime(chunk, r.prefillProgress);
    }
    const Seconds chunk_time = pc.t;

    // Compute-bound prefill chunks overlap with memory-bound
    // decode steps on real hardware; charge the longer plus a
    // small serialization tax.
    Seconds step;
    EngineEvent::Kind kind;
    if (decode_time > 0 && chunk_time > 0) {
        step = std::max(decode_time, chunk_time) +
               0.15 * std::min(decode_time, chunk_time);
        kind = EngineEvent::Kind::Mixed;
    } else if (chunk_time > 0) {
        step = chunk_time;
        kind = EngineEvent::Kind::Prefill;
    } else {
        step = decode_time;
        kind = EngineEvent::Kind::Decode;
    }
    record(kind, clock, step, static_cast<int>(running.size()), chunk);
    if (tl) {
        // Both halves of a mixed step overlap within it; their busy
        // times charge the same window (pc is zero when no chunk ran).
        tlBusy(dc);
        tlBusy(pc);
    }
    clock += step;

    if (has_chunk) {
        Request &r = trace[chunk_idx];
        r.prefillProgress += chunk;
        if (r.prefillProgress >= r.inputLen) {
            prefill_queue.pop_front();
            finishPrefill(chunk_idx);
        }
    }

    if (!running.empty()) {
        batch_sum += static_cast<double>(running.size());
        decode_steps++;
        for (std::size_t k = running.size(); k-- > 0;) {
            Request &r = trace[running[k]];
            r.generated++;
            if (r.generated > delivered[running[k]]) {
                delivered[running[k]] = r.generated;
                generated_total++;
            } else {
                c_recomputed.add();
            }
            if (requestFinished(r)) {
                r.finishTime = clock;
                if (r.outputLen > 1) {
                    tpot.add((r.finishTime - r.firstTokenTime) /
                             (r.outputLen - 1));
                }
                if (flow_trace) {
                    flowSpan(r, "decode",
                             kLaneSlot0 + slot_of[running[k]],
                             phase_start[running[k]]);
                    releaseSlot(running[k]);
                }
                kv.release(running[k]);
                running.erase(running.begin() +
                              static_cast<std::ptrdiff_t>(k));
                remaining--;
            }
        }
    }
}

void
Engine::RunState::fullIteration()
{
    spfSort();
    admitArrived();

    const bool chunked = eng.config_.chunkedPrefillTokens > 0;

    if (!chunked && !prefill_queue.empty()) {
        monolithicPrefillStep();
        return;
    }

    const bool has_decodes = !running.empty();
    const bool has_chunk = chunked && !prefill_queue.empty();

    if (!has_decodes && !has_chunk) {
        idleJump();
        return;
    }

    // has_chunk is latched before the scan; preemption never touches
    // prefill_queue, so the latch is stable (engine_run.h).
    preemptScan();
    if (running.empty() && !has_chunk)
        return;

    decodeChunkStep(has_chunk);
}

ServingMetrics
Engine::RunState::finalize()
{
    m.makespan = clock;
    m.throughputTokensPerSec =
        static_cast<double>(generated_total) / clock;
    m.meanTtft = ttft.mean();
    m.p99Ttft = ttft.percentile(99);
    m.meanTpot = tpot.mean();
    m.completed = static_cast<int>(trace.size());
    m.avgDecodeBatch =
        decode_steps ? batch_sum / static_cast<double>(decode_steps)
                     : 0;

    // End-of-run serving gauges (last run wins; peak keeps the best).
    auto &registry = obs::CounterRegistry::instance();
    registry.counter("engine.throughput_tokens_per_sec")
        .set(m.throughputTokensPerSec);
    registry.counter("engine.mean_ttft_seconds").set(m.meanTtft);
    registry.counter("engine.p99_ttft_seconds").set(m.p99Ttft);
    registry.counter("engine.mean_tpot_seconds").set(m.meanTpot);
    registry.counter("engine.avg_decode_batch").set(m.avgDecodeBatch);

    // Publish the full latency distributions. Histogram::merge is not
    // capture-aware like Counter::set, so when this run executes on a
    // sweep worker (bench_fig17_vllm) the merge is deferred to the
    // outermost replay — serial, in task-index order — keeping the
    // registry histograms bit-identical at any thread count.
    auto publish_hists = [ttft = ttft, tpot = tpot]() {
        auto &reg = obs::CounterRegistry::instance();
        reg.histogram("engine.ttft_seconds").merge(ttft);
        reg.histogram("engine.tpot_seconds").merge(tpot);
    };
    if (obs::SideEffectLog *log = obs::ScopedCapture::current())
        log->appendDeferred(publish_hists);
    else
        publish_hists();

    // Flush and publish the virtual-time timeline. Same deferral
    // story: publish() captures a self-contained payload and lands it
    // in the Timeline singleton at the outermost replay, so sweep
    // workers produce deterministic labels and ordering.
    if (tl)
        tlFinish();
    return m;
}

ServingMetrics
Engine::run(std::vector<Request> trace)
{
    vassert(!trace.empty(), "empty trace");
    // Engine-loop self time; the kernel-eval timers nested inside the
    // step caches subtract themselves out (see obs/selfprof.h).
    obs::SelfTimer self(obs::SelfCat::EngineStep);
    std::sort(trace.begin(), trace.end(),
              [](const Request &a, const Request &b) {
                  return a.arrival < b.arrival;
              });
    events_.clear();
    prewarmPrefill(trace);

    RunState st(*this, trace);
    while (st.remaining > 0)
        st.fullIteration();
    return st.finalize();
}

} // namespace vespera::serve
