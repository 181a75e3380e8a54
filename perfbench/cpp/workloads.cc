#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "analysis/analyzer.h"
#include "analysis/kernel_registry.h"
#include "analysis/migrate/scorecard.h"
#include "analysis/predict/tunable.h"
#include "analysis/predict/tuner.h"
#include "analysis/static/cost_model.h"
#include "analysis/static/ir.h"
#include "analysis/static/static_analyzer.h"
#include "common/logging.h"
#include "common/rng.h"
#include "graph/replay_cache.h"
#include "hw/device_spec.h"
#include "kern/embedding.h"
#include "kern/gather_scatter.h"
#include "kern/stream.h"
#include "models/dlrm.h"
#include "models/llama.h"
#include "port/corpus.h"
#include "serve/engine.h"

#include "spans.h"

using namespace vespera;

namespace perfbench {

void
OpOutput::add(const char *key, double value)
{
    text_ += strfmt(" %s=%a", key, value);
}

void
OpOutput::addInt(const char *key, long long value)
{
    text_ += strfmt(" %s=%lld", key, value);
}

namespace {

// ------------------------------------------------- tpc_mix: STREAM ops

/// Seed-drawn STREAM ops per pass: a multiple of 24 = 3 ops x 8
/// granularities.
constexpr int kStreamOps = 120;

Op
streamOp(const kern::StreamConfig &cfg)
{
    Op op;
    op.label = strfmt("stream %s g=%llu u=%d tpcs=%d x=%d n=%llu",
                      kern::streamOpName(cfg.op),
                      static_cast<unsigned long long>(cfg.accessBytes),
                      cfg.unroll, cfg.numTpcs, cfg.extraComputePerVector,
                      static_cast<unsigned long long>(cfg.numElements));
    op.run = [cfg](OpOutput &out) {
        kern::StreamResult g, a;
        {
            Span s("kern.stream_gaudi");
            g = kern::runStreamGaudi(cfg);
        }
        {
            Span s("cuda.a100_comparator");
            a = kern::runStreamA100(cfg);
        }
        out.add("gaudi_s", g.time);
        out.add("gaudi_flops", g.flops);
        out.add("a100_s", a.time);
        out.add("a100_flops", a.flops);
    };
    return op;
}

Workload
makeTpcStream(std::uint64_t seed)
{
    Workload w;
    w.threads = 2;
    w.checkedCounter = "tpc.instructions";
    Rng rng(seed);

    // First the corner of the knob ranges with the longest per-TPC
    // trace. It sets the run's peak footprint, so that peak RSS does
    // not hinge on which rare combination the seed happens to draw.
    kern::StreamConfig corner;
    corner.op = kern::StreamOp::Triad;
    corner.accessBytes = 16;
    corner.numElements = 1 << 20;
    corner.unroll = 16;
    corner.numTpcs = 1;
    corner.extraComputePerVector = 8;
    w.ops.push_back(streamOp(corner));

    const kern::StreamOp kinds[] = {kern::StreamOp::Add,
                                    kern::StreamOp::Scale,
                                    kern::StreamOp::Triad};
    constexpr int cells = 24;
    constexpr int perCell = kStreamOps / cells;
    // Op kind and granularity form a grid of cells; the seed draws
    // every other knob of each op.
    for (int c = 0; c < cells; c++) {
        for (int k = 0; k < perCell; k++) {
            kern::StreamConfig cfg;
            cfg.op = kinds[c % 3];
            cfg.accessBytes = Bytes{16} << (c / 3);
            cfg.numElements = (128 + rng.below(385)) * 1024;
            cfg.unroll = 1 + static_cast<int>(rng.below(16));
            cfg.numTpcs = 1 + static_cast<int>(rng.below(24));
            cfg.extraComputePerVector = static_cast<int>(rng.below(9));
            w.ops.push_back(streamOp(cfg));
        }
    }
    return w;
}

// ----------------------------------------- tpc_mix: random-access ops

/// Draws per grid cell: 2 x (28 gather/scatter + 16 embedding + 8 DLRM)
/// = 104 random-access ops per pass.
constexpr int kSparseDraws = 2;

Op
gatherScatterOp(const kern::GatherScatterConfig &c, std::uint64_t opSeed)
{
    Op op;
    op.label = strfmt("%s vec=%llu frac=%g rows=%llu",
                      c.scatter ? "scatter" : "gather",
                      static_cast<unsigned long long>(c.vectorBytes),
                      c.accessFraction,
                      static_cast<unsigned long long>(c.numVectors));
    op.run = [c, opSeed](OpOutput &out) {
        Rng r(opSeed);
        kern::GatherScatterResult g, a;
        {
            Span s("kern.gather_scatter_gaudi");
            g = kern::runGatherScatterGaudi(c, r);
        }
        {
            Span s("cuda.a100_comparator");
            a = kern::runGatherScatterA100(c);
        }
        out.add("gaudi_s", g.time);
        out.addInt("useful_bytes", static_cast<long long>(g.usefulBytes));
        out.add("a100_s", a.time);
    };
    return op;
}

Op
embeddingOp(const kern::EmbeddingConfig &c, kern::EmbeddingVariant variant,
            std::uint64_t opSeed)
{
    Op op;
    op.label = strfmt(
        "embedding %s vec=%llu batch=%d tables=%d rows=%lld pool=%d",
        kern::embeddingVariantName(variant),
        static_cast<unsigned long long>(c.vectorBytes), c.batch,
        c.numTables, static_cast<long long>(c.rowsPerTable), c.pooling);
    op.run = [c, variant, opSeed](OpOutput &out) {
        Rng r(opSeed);
        std::unique_ptr<kern::EmbeddingLayerGaudi> layer;
        kern::EmbeddingResult g, a;
        {
            Span s("kern.embedding_setup");
            layer = std::make_unique<kern::EmbeddingLayerGaudi>(c);
        }
        {
            Span s("kern.embedding_run");
            g = layer->run(variant, r);
        }
        {
            // Freeing the tables is the other half of materializing them.
            Span s("kern.embedding_setup");
            layer.reset();
        }
        {
            Span s("cuda.a100_comparator");
            a = kern::runEmbeddingA100(c);
        }
        out.add("gaudi_s", g.time);
        out.addInt("gathered_bytes", static_cast<long long>(g.gatheredBytes));
        out.addInt("launches", g.kernelLaunches);
        out.add("a100_s", a.time);
    };
    return op;
}

Op
dlrmOp(std::shared_ptr<const models::DlrmModel> model,
       const models::DlrmRunConfig &rc, std::uint64_t opSeed)
{
    Op op;
    op.label = strfmt("dlrm %s batch=%d vec=%llu",
                      model->config().name.c_str(), rc.batch,
                      static_cast<unsigned long long>(rc.embVectorBytes));
    op.run = [model, rc, opSeed](OpOutput &out) {
        Rng r(opSeed);
        models::DlrmReport rep;
        {
            Span s("models.dlrm_run");
            rep = model->run(DeviceKind::Gaudi2, rc, r);
        }
        out.add("time_s", rep.time);
        out.add("embedding_s", rep.embeddingTime);
        out.add("dense_s", rep.denseTime);
    };
    return op;
}

Workload
makeTpcSparse(std::uint64_t seed)
{
    Workload w;
    w.checkedCounter = "tpc.instructions";
    Rng rng(seed);

    // Gathers and scatters: every vector size x touched fraction x
    // direction; the seed draws row counts and the rows touched.
    for (int draw = 0; draw < kSparseDraws; draw++) {
        for (Bytes vec : {16, 32, 64, 128, 256, 512, 1024}) {
            for (double fraction : {0.25, 1.0}) {
                for (bool scatter : {false, true}) {
                    kern::GatherScatterConfig c;
                    const double cap = std::min<double>(
                        1 << 16, static_cast<double>((8ull << 20) / vec));
                    c.numVectors = static_cast<std::uint64_t>(
                        cap * rng.uniform(0.85, 1.0));
                    c.vectorBytes = vec;
                    c.accessFraction = fraction;
                    c.scatter = scatter;
                    w.ops.push_back(gatherScatterOp(c, rng.next()));
                }
            }
        }
    }

    // Embedding layers: variant x vector size x batch grid; the seed
    // draws table count, rows, pooling and the lookup indices.
    for (int draw = 0; draw < kSparseDraws; draw++) {
        for (auto variant : {kern::EmbeddingVariant::SingleTable,
                             kern::EmbeddingVariant::BatchedTable}) {
            for (Bytes vec : {64, 128, 256, 512}) {
                for (int batch : {128, 512}) {
                    kern::EmbeddingConfig c;
                    c.numTables = 4 + static_cast<int>(rng.below(13));
                    c.rowsPerTable = 1024 + static_cast<int>(rng.below(3072));
                    c.pooling = 10 + static_cast<int>(rng.below(21));
                    c.vectorBytes = vec;
                    c.batch = batch;
                    w.ops.push_back(embeddingOp(c, variant, rng.next()));
                }
            }
        }
    }

    // DLRM end to end (embedding on the TPCs, dense layers through the
    // graph executor), with tables scaled down from Table 3's 1M rows
    // to keep the process small.
    std::vector<std::shared_ptr<const models::DlrmModel>> dlrms;
    for (auto cfg : {models::DlrmConfig::rm1(), models::DlrmConfig::rm2()}) {
        cfg.rowsPerTable = 1 << 12;
        dlrms.push_back(std::make_shared<const models::DlrmModel>(cfg));
    }
    for (int draw = 0; draw < kSparseDraws; draw++) {
        for (const auto &model : dlrms) {
            for (int batch : {128, 256}) {
                for (Bytes vec : {64, 256}) {
                    models::DlrmRunConfig rc;
                    rc.batch = batch;
                    rc.embVectorBytes = vec;
                    w.ops.push_back(dlrmOp(model, rc, rng.next()));
                }
            }
        }
    }
    return w;
}

// --------------------------------------------------------------- serve_sweep

/// Requests per engine run.
constexpr int kRequests = 512;

/**
 * Dynamic-Sonnet-like request trace: Poisson arrivals at `rate` req/s
 * in simulated time, log-normal input and output lengths clipped to
 * the dataset's ranges.
 */
std::vector<serve::Request>
makeRequests(Rng &rng, int n, double rate)
{
    auto logNormal = [&rng](double mean, double sigma, int lo, int hi) {
        const double x = std::exp(mean + sigma * rng.normal());
        return std::clamp(static_cast<int>(std::lround(x)), lo, hi);
    };
    std::vector<serve::Request> reqs(n);
    double t = 0;
    for (int i = 0; i < n; i++) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        reqs[i].id = i;
        reqs[i].arrival = t;
        reqs[i].inputLen = logNormal(6.2, 0.5, 64, 2048);
        reqs[i].outputLen = logNormal(5.3, 0.6, 16, 1024);
    }
    return reqs;
}

struct ServedModel
{
    std::shared_ptr<const models::LlamaModel> model;
    int tp = 1;
};

/// A KV budget every (model, TP, device) accepts without clamping.
Bytes
kvBytesFor(const ServedModel &m, DeviceKind device)
{
    const Bytes weights =
        m.model->config().weightBytes(m.tp, DataType::BF16);
    return std::min<Bytes>(16ull << 30,
                           hw::deviceSpec(device).hbmCapacity - weights);
}

Op
engineOp(const ServedModel &m, const serve::EngineConfig &cfg, double rate,
         std::vector<serve::Request> requests)
{
    auto reqs = std::make_shared<const std::vector<serve::Request>>(
        std::move(requests));
    Op op;
    for (const auto &r : *reqs)
        op.simTokens += r.outputLen;
    op.label = strfmt(
        "engine %s tp=%d %s batch=%d chunk=%d kv=%s rate=%g",
        m.model->config().name.c_str(), m.tp, deviceName(cfg.device),
        cfg.maxDecodeBatch, cfg.chunkedPrefillTokens,
        cfg.kvPolicy == serve::KvPolicy::Paged ? "paged" : "contig", rate);
    op.run = [model = m.model, cfg, reqs](OpOutput &out) {
        serve::ServingMetrics sm;
        {
            Span s("serve.engine_run");
            serve::Engine engine(*model, cfg);
            sm = engine.run(*reqs);
        }
        out.add("makespan_s", sm.makespan);
        out.add("tok_per_s", sm.throughputTokensPerSec);
        out.add("ttft_s", sm.meanTtft);
        out.add("tpot_s", sm.meanTpot);
        out.add("p99_ttft_s", sm.p99Ttft);
        out.addInt("completed", sm.completed);
        out.addInt("preemptions", sm.preemptions);
        out.add("decode_batch", sm.avgDecodeBatch);
    };
    return op;
}

Workload
makeServeSweep(std::uint64_t seed)
{
    Workload w;
    w.countsTokens = true;
    w.checkedCounter = "engine.steps";
    Rng rng(seed);

    auto l8 = std::make_shared<const models::LlamaModel>(
        models::LlamaConfig::llama31_8b());
    auto l70 = std::make_shared<const models::LlamaModel>(
        models::LlamaConfig::llama31_70b());
    const std::vector<ServedModel> served = {
        {l8, 1}, {l70, 2}, {l70, 4}, {l70, 8}};
    const DeviceKind devices[] = {DeviceKind::Gaudi2, DeviceKind::A100};

    std::vector<Op> engineOps;
    for (const auto &m : served) {
        for (DeviceKind dev : devices) {
            for (int batch : {16, 64, 256}) {
                for (int chunk : {0, 512}) {
                    for (auto kv : {serve::KvPolicy::Paged,
                                    serve::KvPolicy::Contiguous}) {
                        for (double rate : {4.0, 16.0, 64.0}) {
                            serve::EngineConfig cfg;
                            cfg.device = dev;
                            cfg.maxDecodeBatch = batch;
                            cfg.tpDevices = m.tp;
                            cfg.chunkedPrefillTokens = chunk;
                            cfg.kvPolicy = kv;
                            cfg.kvCacheBytes = kvBytesFor(m, dev);
                            engineOps.push_back(engineOp(
                                m, cfg, rate,
                                makeRequests(rng, kRequests, rate)));
                        }
                    }
                }
            }
        }
    }

    // Fixed-shape batch serving points, one after every 12 engine runs.
    std::vector<Op> serveOps;
    for (const ServedModel &m : {served[0], served[2]}) {
        for (DeviceKind dev : devices) {
            for (int batch : {16, 64, 256}) {
                for (int k = 0; k < 2; k++) {
                    models::LlamaServingConfig cfg;
                    cfg.batch = batch;
                    cfg.tpDevices = m.tp;
                    cfg.inputLen = 64 + static_cast<int>(rng.below(449));
                    cfg.outputLen = 25 + static_cast<int>(rng.below(376));
                    Op op;
                    op.simTokens = static_cast<double>(batch) * cfg.outputLen;
                    op.label = strfmt(
                        "llama_serve %s tp=%d %s batch=%d in=%d out=%d",
                        m.model->config().name.c_str(), m.tp,
                        deviceName(dev), batch, cfg.inputLen,
                        cfg.outputLen);
                    auto model = m.model;
                    op.run = [model, dev, cfg](OpOutput &out) {
                        models::LlamaReport r;
                        {
                            Span s("models.llama_serve");
                            r = model->serve(dev, cfg);
                        }
                        out.add("total_s", r.totalTime);
                        out.add("tok_per_s", r.tokensPerSec);
                        out.add("energy_j", r.energy);
                    };
                    serveOps.push_back(std::move(op));
                }
            }
        }
    }
    for (std::size_t i = 0; i < engineOps.size(); i++) {
        w.ops.push_back(std::move(engineOps[i]));
        if (i % 12 == 11 && i / 12 < serveOps.size())
            w.ops.push_back(std::move(serveOps[i / 12]));
    }

    // Per-layer probe: one model step without the replay caches, on a
    // fixed sample of shapes (the cost a cache miss pays).
    w.probe = [l8, l70](std::map<std::string, double> &layer) {
        graph::ReplayCacheDisable noNodes(graph::nodeReplayCache());
        graph::ReplayCacheDisable noSteps(graph::stepReplayCache());
        constexpr int reps = 3;
        int calls = 0;
        const std::int64_t t0 = nowNs();
        for (int rep = 0; rep < reps; rep++) {
            for (const ServedModel &m : {ServedModel{l8, 1},
                                         ServedModel{l70, 4}}) {
                models::LlamaServingConfig cfg;
                cfg.tpDevices = m.tp;
                for (DeviceKind dev : {DeviceKind::Gaudi2,
                                       DeviceKind::A100}) {
                    m.model->stepReport(dev, 1, 512, 512, true, cfg);
                    m.model->stepReport(dev, 64, 1, 1024, false, cfg);
                    calls += 2;
                }
            }
        }
        layer["models.step_report_uncached.us"] =
            (nowNs() - t0) * 1e-3 / calls;
    };
    return w;
}

// ---------------------------------------------- tpc_mix: lint corpus

/// Seed-drawn design-space points per tunable TPC kernel.
constexpr int kTunableDraws = 4;

Workload
makeLintCorpus(std::uint64_t seed)
{
    Workload w;
    w.checkedCounter = "tpc.instructions";
    Rng rng(seed);

    analysis::registerBuiltinKernels();
    analysis::registerTunableKernels();
    const auto &corpus = port::migrationCorpus();

    const auto &kernels = analysis::KernelRegistry::instance();
    for (const std::string &name : kernels.names()) {
        Op op;
        op.label = "lint " + name;
        op.run = [&kernels, name](OpOutput &out) {
            analysis::TracedKernel tk;
            {
                Span s("analysis.produce");
                tk = kernels.trace(name);
            }
            analysis::StaticReport sr;
            {
                Span s("analysis.static");
                sr = analysis::analyzeProgramStatic(tk.program);
            }
            analysis::Report tr;
            {
                Span s("analysis.trace");
                tr = analysis::analyzeProgram(tk.program);
            }
            auto findings = [](const analysis::Report &r) {
                long long n = 0;
                for (const auto &[rule, summary] : r.rules)
                    n += summary.count;
                return n;
            };
            out.addInt("instrs",
                       static_cast<long long>(tk.program.instrs().size()));
            out.add("static_cycles", sr.predictedCycles());
            out.addInt("static_findings", findings(sr.report));
            out.add("trace_cycles", tr.cycles);
            out.addInt("trace_findings", findings(tr));
        };
        w.ops.push_back(std::move(op));
    }

    const auto &tunables = analysis::TunableRegistry::instance();
    for (const std::string &name : tunables.names()) {
        const analysis::TunableKernel *k = &tunables.get(name);
        if (k->kind == analysis::TuneKind::Tpc) {
            std::vector<std::int64_t> sizes = k->sizes;
            sizes.insert(sizes.end(), k->heldOutSizes.begin(),
                         k->heldOutSizes.end());
            const auto configs = analysis::enumerateConfigs(*k);
            for (int d = 0; d < kTunableDraws; d++) {
                analysis::TuneConfig cfg = configs[rng.below(configs.size())];
                cfg.size = sizes[rng.below(sizes.size())];
                Op op;
                op.label = strfmt("tunable %s size=%lld %s", name.c_str(),
                                  static_cast<long long>(cfg.size),
                                  cfg.label().c_str());
                op.run = [k, cfg](OpOutput &out) {
                    tpc::Program program;
                    {
                        Span s("analysis.produce");
                        program = k->produce(cfg);
                    }
                    analysis::StaticSchedule sched;
                    {
                        Span s("analysis.static");
                        sched = analysis::scheduleStatic(
                            analysis::liftProgram(program),
                            tpc::TpcParams::forGaudi2());
                    }
                    out.addInt("instrs", static_cast<long long>(
                                             program.instrs().size()));
                    out.add("cycles", sched.cycles);
                };
                w.ops.push_back(std::move(op));
            }
        }
        Op op;
        op.label = "autotune " + name;
        op.run = [k](OpOutput &out) {
            analysis::TuneResult r;
            {
                Span s("analysis.tune");
                r = analysis::autotuneKernel(*k);
            }
            out.add("base_cycles", r.base.exactCycles);
            out.add("best_cycles", r.best.exactCycles);
            out.addInt("screened",
                       static_cast<long long>(r.configsScreened));
        };
        w.ops.push_back(std::move(op));
    }

    for (const port::CorpusEntry &entry : corpus) {
        Op op;
        op.label = "migrate " + entry.desc.name;
        op.run = [&entry](OpOutput &out) {
            analysis::MigrateEntry m;
            {
                Span s("port.migrate");
                m = analysis::migrateKernel(entry);
            }
            long long findings = 0;
            for (const auto &[rule, summary] : m.analysis.report.rules)
                findings += summary.count;
            out.addInt("parity", m.parity ? 1 : 0);
            out.add("max_rel_err", m.maxRelError);
            out.add("ported_cycles", m.portedCycles);
            out.add("ported_s", m.portedTime);
            out.add("hand_s", m.handTime);
            out.addInt("findings", findings);
        };
        w.ops.push_back(std::move(op));
    }
    return w;
}


/**
 * The TPC workload: STREAM ops, then random-access ops, then the lint
 * corpus, at pool size 2. One workload instead of three leaves time for
 * runs long enough to outlast a shared host's slow phases.
 */
Workload
makeTpcMix(std::uint64_t seed)
{
    Workload w = makeTpcStream(seed);
    for (Workload part : {makeTpcSparse(seed), makeLintCorpus(seed)}) {
        for (Op &op : part.ops)
            w.ops.push_back(std::move(op));
    }
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"tpc_mix",
                                                   "serve_sweep"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "tpc_mix")
        return makeTpcMix(seed);
    if (name == "serve_sweep")
        return makeServeSweep(seed);
    vpanic("unknown workload %s", name.c_str());
}

} // namespace perfbench
