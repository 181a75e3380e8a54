/**
 * @file
 * Tests of the static design-space autotuner: top-1 rank agreement
 * with the exhaustive exact-static oracle (the tier-1 acceptance
 * gate), enumeration invariants, thread-count invariance of both the
 * analysis.predict.* counters and the serialized tune report, the
 * vespera-lint-tune/v1 schema, and the bridge onto the warnings
 * baseline ratchet.
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "analysis/predict/tune_report.h"
#include "analysis/predict/tuner.h"
#include "analysis/report.h"
#include "obs/counters.h"
#include "runtime/pool.h"

namespace vespera::analysis {
namespace {

struct PoolGuard
{
    ~PoolGuard() { runtime::Pool::setGlobalThreads(1); }
};

std::vector<std::string>
tpcTunables()
{
    registerTunableKernels();
    std::vector<std::string> names;
    for (const std::string &n : TunableRegistry::instance().names()) {
        if (TunableRegistry::instance().get(n).kind == TuneKind::Tpc)
            names.push_back(n);
    }
    return names;
}

TEST(PredictTuner, TopOneMatchesExhaustiveSearch)
{
    const std::vector<std::string> names = tpcTunables();
    ASSERT_EQ(names.size(), 11u);
    TunerOptions opts;
    opts.exportCounters = false;
    int agree = 0;
    for (const std::string &name : names) {
        const TunableKernel &k = TunableRegistry::instance().get(name);
        const TuneResult res = autotuneKernel(k, opts);
        const TuneCandidate oracle = exhaustiveBest(k);
        // Agreement on the achieved cycles, not the config identity:
        // distinct configs can tie exactly (e.g. TPC counts beyond
        // the row count produce identical per-TPC traces).
        if (res.best.exactCycles <= oracle.exactCycles + 1e-9)
            agree++;
        else
            ADD_FAILURE() << name << ": tuner " << res.best.exactCycles
                          << " vs exhaustive " << oracle.exactCycles;
    }
    // The acceptance gate: >= 9 of the 11 registry kernels.
    EXPECT_GE(agree, 9);
}

TEST(PredictTuner, MmeGeometryMatchesExhaustive)
{
    registerTunableKernels();
    TunerOptions opts;
    opts.exportCounters = false;
    for (const char *name : {"gemm_decode_qkv", "gemm_prefill_mlp"}) {
        const TunableKernel &k = TunableRegistry::instance().get(name);
        EXPECT_EQ(k.kind, TuneKind::Mme);
        const TuneResult res = autotuneKernel(k, opts);
        const TuneCandidate oracle = exhaustiveBest(k);
        EXPECT_LE(res.best.exactCycles, oracle.exactCycles + 1e-9)
            << name;
    }
}

TEST(PredictTuner, EnumerationInvariants)
{
    registerTunableKernels();
    for (const std::string &name : TunableRegistry::instance().names()) {
        const TunableKernel &k = TunableRegistry::instance().get(name);
        const std::vector<TuneConfig> configs = enumerateConfigs(k);
        ASSERT_FALSE(configs.empty()) << name;
        EXPECT_EQ(configs.size(), k.configCount()) << name;
        // The shipped configuration leads, exactly once.
        EXPECT_TRUE(configs.front() == k.base) << name;
        for (std::size_t i = 0; i < configs.size(); i++) {
            for (std::size_t j = i + 1; j < configs.size(); j++)
                EXPECT_FALSE(configs[i] == configs[j])
                    << name << " duplicate at " << i << "," << j;
            EXPECT_EQ(configs[i].size, k.base.size) << name;
        }
    }
}

TEST(PredictTuner, NeverRecommendsARegression)
{
    registerTunableKernels();
    TunerOptions opts;
    opts.exportCounters = false;
    for (const TuneResult &r : autotuneAll("", opts)) {
        EXPECT_LE(r.best.exactCycles, r.base.exactCycles) << r.kernel;
        EXPECT_GE(r.improvementFrac, 0.0) << r.kernel;
        EXPECT_GE(r.configsScreened, 1u) << r.kernel;
        EXPECT_GE(r.exactVerifications, 1u) << r.kernel;
    }
}

TEST(PredictTuner, ReducedAxesBoundTheSpace)
{
    registerTunableKernels();
    const TunableKernel &k =
        TunableRegistry::instance().get("stream_triad_tuned");
    const TunableKernel r = reduceAxes(k);
    EXPECT_LT(enumerateConfigs(r).size(), enumerateConfigs(k).size());
    for (const TuneConfig &c : enumerateConfigs(r)) {
        bool inFull = false;
        for (const TuneConfig &f : enumerateConfigs(k))
            inFull = inFull || f == c;
        EXPECT_TRUE(inFull || c == r.base);
    }
}

TEST(PredictTuner, CountersAreThreadCountInvariant)
{
    PoolGuard guard;
    registerTunableKernels();
    const TunableKernel &k =
        TunableRegistry::instance().get("stream_triad_tuned");
    auto &registry = obs::CounterRegistry::instance();
    auto run = [&](int threads) {
        runtime::Pool::setGlobalThreads(threads);
        for (const char *name :
             {"analysis.predict.configs_screened",
              "analysis.predict.exact_verifications",
              "analysis.predict.anchor_traces",
              "analysis.predict.proxy_error_ppm"}) {
            registry.counter(name).reset();
        }
        (void)autotuneKernel(k);
        struct View
        {
            double value;
            std::uint64_t updates;
        };
        std::vector<View> out;
        for (const char *name :
             {"analysis.predict.configs_screened",
              "analysis.predict.exact_verifications",
              "analysis.predict.anchor_traces",
              "analysis.predict.proxy_error_ppm"}) {
            const obs::Counter &c = registry.counter(name);
            out.push_back({c.value(), c.updates()});
        }
        return out;
    };
    const auto serial = run(1);
    EXPECT_GT(serial[0].value, 0);
    for (int threads : {2, 4, 8}) {
        const auto parallel = run(threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); i++) {
            EXPECT_EQ(parallel[i].value, serial[i].value)
                << "counter " << i << " at " << threads << " threads";
            EXPECT_EQ(parallel[i].updates, serial[i].updates)
                << "counter " << i << " at " << threads << " threads";
        }
    }
}

TEST(PredictTuner, ReportIsByteIdenticalAcrossThreads)
{
    PoolGuard guard;
    registerTunableKernels();
    TunerOptions opts;
    opts.exportCounters = false;
    auto reportAt = [&](int threads) {
        runtime::Pool::setGlobalThreads(threads);
        return json::serialize(
            tuneReportJson(autotuneAll("stream", opts)));
    };
    const std::string serial = reportAt(1);
    EXPECT_EQ(reportAt(4), serial);
    EXPECT_EQ(reportAt(8), serial);
    // And across repeated runs at the same thread count.
    EXPECT_EQ(reportAt(4), serial);
}

TEST(PredictTuner, TuneReportSchema)
{
    registerTunableKernels();
    TunerOptions opts;
    opts.exportCounters = false;
    const std::vector<TuneResult> results = autotuneAll("embedding", opts);
    ASSERT_EQ(results.size(), 3u);
    const json::Value doc = tuneReportJson(results);
    ASSERT_TRUE(doc.isObject());
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->str(), "vespera-lint-tune/v1");
    const json::Value *kernels = doc.find("kernels");
    ASSERT_NE(kernels, nullptr);
    ASSERT_EQ(kernels->array().size(), 3u);
    for (const json::Value &k : kernels->array()) {
        for (const char *field :
             {"kernel", "shape", "base", "best", "verified",
              "configs_screened", "exact_verifications",
              "proxy_error_ppm", "improvement_frac"}) {
            EXPECT_NE(k.find(field), nullptr) << field;
        }
        const json::Value *best = k.find("best");
        ASSERT_NE(best->find("config"), nullptr);
        EXPECT_NE(best->find("config")->find("label"), nullptr);
        EXPECT_NE(best->find("exact_cycles"), nullptr);
    }
    const json::Value *totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_DOUBLE_EQ(totals->find("kernels")->number(), 3.0);
    EXPECT_GT(totals->find("configs_screened")->number(), 0.0);
}

TuneResult
syntheticResult(double baseCycles, double bestCycles)
{
    TuneResult r;
    r.kernel = "synthetic";
    r.shape = "size=64";
    r.base.config.size = 64;
    r.base.config.unroll = 2;
    r.base.exactCycles = baseCycles;
    r.best.config.size = 64;
    r.best.config.unroll = 8;
    r.best.exactCycles = bestCycles;
    r.improvementFrac = 1.0 - bestCycles / baseCycles;
    r.configsScreened = 10;
    r.exactVerifications = 3;
    return r;
}

TEST(PredictTuner, LintEntryBridge)
{
    // >10% improvement: Warning, ratcheted by the baseline.
    {
        const std::vector<LintEntry> entries =
            tuneToLintEntries({syntheticResult(1000, 800)});
        ASSERT_EQ(entries.size(), 1u);
        ASSERT_EQ(entries[0].report.diagnostics.size(), 1u);
        const Diagnostic &d = entries[0].report.diagnostics[0];
        EXPECT_EQ(d.rule, rules::tuneOpportunity);
        EXPECT_EQ(d.severity, Severity::Warning);
        EXPECT_NE(d.fixHint.find("unroll=8"), std::string::npos);
        EXPECT_DOUBLE_EQ(d.costCycles, 200);
    }
    // 2-10%: Info (visible, not ratcheted).
    {
        const std::vector<LintEntry> entries =
            tuneToLintEntries({syntheticResult(1000, 950)});
        ASSERT_EQ(entries[0].report.diagnostics.size(), 1u);
        EXPECT_EQ(entries[0].report.diagnostics[0].severity,
                  Severity::Info);
    }
    // Already optimal: clean entry.
    {
        const std::vector<LintEntry> entries =
            tuneToLintEntries({syntheticResult(1000, 1000)});
        EXPECT_TRUE(entries[0].report.diagnostics.empty());
    }
}

TEST(PredictTuner, BaselineRatchetAppliesToTuneEntries)
{
    const std::vector<LintEntry> entries =
        tuneToLintEntries({syntheticResult(1000, 700)});
    const json::Value baseline = baselineJson(entries);
    // Same run passes against its own baseline.
    EXPECT_TRUE(checkAgainstBaseline(entries, baseline).ok);
    // A new warning on a previously clean kernel fails.
    std::vector<LintEntry> worse = entries;
    worse.push_back(tuneToLintEntries({[&] {
        TuneResult r = syntheticResult(1000, 700);
        r.kernel = "synthetic2";
        return r;
    }()})[0]);
    const BaselineCheck check = checkAgainstBaseline(worse, baseline);
    EXPECT_FALSE(check.ok);
    ASSERT_FALSE(check.failures.empty());
    EXPECT_NE(check.failures[0].find("synthetic2"), std::string::npos);
}

TEST(PredictTuner, TextReportNamesOpportunities)
{
    const std::string text =
        tuneReportText({syntheticResult(1000, 800)}, false);
    EXPECT_NE(text.find("synthetic"), std::string::npos);
    EXPECT_NE(text.find("20.0% faster"), std::string::npos);
    EXPECT_NE(text.find("1 opportunity"), std::string::npos);
}

} // namespace
} // namespace vespera::analysis
