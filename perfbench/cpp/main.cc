/**
 * @file
 * perfbench: host-performance benchmark for the vespera
 * simulator.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--threads T]
 *             [--trace 0|1] [--refs FILE | --record FILE]
 *             [--spans FILE]
 *
 * Builds the workload's op list from the seed (set-up), then runs
 * passes over the whole list until `--seconds` have elapsed at a pass
 * boundary. Each op's simulated outputs are checked: against the
 * reference file given with --refs, else against the op's outputs in
 * the first pass. Prints every metric by name and unit, then, as the
 * last line, one JSON object {correct, attempted, failed, metrics}.
 *
 * Untraced (--trace 0) metrics are end to end. Their times are in
 * calibration units (calib.h), timed after every op of an untraced
 * pass; the same in host time is printed beside them. --trace 1
 * alternates untraced and traced passes at pool size 1 and reports the
 * per-layer table built from the benchmark's own spans, counter deltas
 * and the SelfProf ledger, plus the end-to-end times in host time.
 *
 * Exit codes: 0 all outputs correct, 1 some output differed from its
 * reference, 2 bad command line or reference file.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "graph/replay_cache.h"
#include "obs/capture.h"
#include "obs/counters.h"
#include "obs/selfprof.h"
#include "runtime/pool.h"
#include "tpc/dispatcher.h"
#include "tpc/pipeline.h"

#include "calib.h"
#include "spans.h"
#include "workloads.h"

using namespace vespera;
using namespace perfbench;

namespace {

const char *const kUsage =
    "usage: perfbench --workload NAME [--seed N] [--seconds S]\n"
    "                 [--threads T] [--trace 0|1]\n"
    "                 [--refs FILE | --record FILE] [--spans FILE]\n"
    "  --workload    tpc_mix | serve_sweep\n"
    "  --seed        input seed, 0 .. 2^64-1 (default 1)\n"
    "  --seconds     measured time, 1 .. 3600 (default 10)\n"
    "  --threads     runtime pool size, 1 .. 256 (default: the "
    "workload's)\n"
    "  --trace       1 = per-layer run (pool size 1)\n"
    "  --refs        check op outputs against this reference file\n"
    "  --record      write the first pass's op outputs as references\n"
    "  --spans       traced run: write spans and per-op counters here\n";

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

/** Full-string decimal parse into [lo, hi]; no sign, no spaces. */
bool
parseUnsigned(const std::string &s, std::uint64_t lo, std::uint64_t hi,
              std::uint64_t &out)
{
    if (s.empty() || s.size() > 20)
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    if (v < lo || v > hi)
        return false;
    out = v;
    return true;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    int threads = 0; ///< 0 = the workload's own pool size.
    bool trace = false;
    std::string refs;
    std::string record;
    std::string spans;
};

Args
parseArgs(int argc, char **argv)
{
    static const std::set<std::string> valued = {
        "--workload", "--seed", "--seconds", "--threads",
        "--trace",    "--refs", "--record",  "--spans"};
    Args a;
    std::set<std::string> seen;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        std::string key = arg;
        std::string value;
        bool inlineValue = false;
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
            inlineValue = true;
        }
        if (valued.count(key) == 0)
            usageError("unknown argument '" + arg + "'");
        if (!seen.insert(key).second)
            usageError(key + " given twice");
        if (!inlineValue) {
            if (i + 1 >= argc)
                usageError(key + " needs a value");
            value = argv[++i];
        }
        std::uint64_t v = 0;
        if (key == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end())
                usageError("unknown workload '" + value + "'");
            a.workload = value;
        } else if (key == "--seed") {
            if (!parseUnsigned(value, 0, UINT64_MAX, v))
                usageError("--seed must be an integer in 0 .. 2^64-1, "
                           "got '" + value + "'");
            a.seed = v;
        } else if (key == "--seconds") {
            if (!parseUnsigned(value, 1, 3600, v))
                usageError("--seconds must be an integer in 1 .. 3600, "
                           "got '" + value + "'");
            a.seconds = static_cast<int>(v);
        } else if (key == "--threads") {
            if (!parseUnsigned(value, 1, 256, v))
                usageError("--threads must be an integer in 1 .. 256, "
                           "got '" + value + "'");
            a.threads = static_cast<int>(v);
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usageError("--trace must be 0 or 1, got '" + value + "'");
            a.trace = value == "1";
        } else if (value.empty()) {
            usageError(key + " needs a file name");
        } else if (key == "--refs") {
            a.refs = value;
        } else if (key == "--record") {
            a.record = value;
        } else {
            a.spans = value;
        }
    }
    if (a.workload.empty())
        usageError("--workload is required");
    if (!a.refs.empty() && !a.record.empty())
        usageError("--refs and --record exclude each other");
    return a;
}

std::string
refsHeader(const Args &a, std::size_t ops)
{
    return strfmt("# perfbench refs workload=%s seed=%" PRIu64 " ops=%zu",
                  a.workload.c_str(), a.seed, ops);
}

/** Reference lines, one per op, after validating the header. */
std::vector<std::string>
loadRefs(const Args &a, std::size_t ops)
{
    std::ifstream in(a.refs);
    if (!in)
        usageError("cannot read reference file '" + a.refs + "'");
    std::string line;
    std::getline(in, line);
    if (line != refsHeader(a, ops))
        usageError("reference file '" + a.refs + "' is for '" + line +
                   "', not '" + refsHeader(a, ops) + "'");
    std::vector<std::string> lines;
    while (std::getline(in, line))
        lines.push_back(line);
    if (lines.size() != ops)
        usageError(strfmt("reference file '%s' has %zu ops, expected %zu",
                          a.refs.c_str(), lines.size(), ops));
    return lines;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linearly interpolated percentile, p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Set-ups after every untraced pass; the first after a pass starts
/// with caches the pass has filled with its own data.
constexpr int kSetupsPerPass = 5;

/// Seconds per cal for setup_s: about the calibration loop's duration
/// on a quiet host of the kind the benchmark was tuned on.
constexpr double kSecondsPerCal = 100e-6;

/// Counters whose per-op deltas the traced run records.
const std::vector<std::string> kTracedCounters = {
    "tpc.instructions",  "tpc.cycles",
    "hbm.stream_bytes",  "hbm.random_txns",
    "mme.gemms",         "mme.reconfigs",
    "tc.gemms",          "runtime.tasks",
    "runtime.steals",    "graph.ops",
    "replay.node.hits",  "replay.node.misses",
    "replay.node.evictions",
    "replay.step.hits",  "replay.step.misses",
    "replay.step.evictions",
    "engine.steps",      "engine.steps_skipped",
    "engine.preemptions", "kv.grow_failures",
    "analysis.predict.configs_screened",
    "port.parity_failures"};

/** One metric of the result: value and unit. */
struct Metric
{
    double value = 0;
    const char *unit = "";
};

using Metrics = std::vector<std::pair<std::string, Metric>>;

/** Everything the traced passes measure. */
struct TraceData
{
    int passes = 0;
    std::vector<double> passS;
    std::uint64_t launches = 0;
    std::uint64_t instrsTraced = 0;
    obs::SelfLedger selfprof;
    std::vector<double> counterTotals =
        std::vector<double>(kTracedCounters.size(), 0.0);
    /// Per traced op: (op, pass, counter deltas).
    struct OpCounters
    {
        int op = 0;
        int pass = 0;
        std::vector<double> deltas;
    };
    std::vector<OpCounters> opCounters;
};

/** Time metrics of the untraced passes, in host time and in cal. */
struct Host
{
    double wallS = 0, wallCal = 0;
    double p50Ms = 0, p90Ms = 0, p50Cal = 0, p90Cal = 0;
    double workPerPass = 0, workPerS = 0, workPerCal = 0;
    double calUs = 0;  ///< Median calibration unit over the passes.
    double setupS = 0; ///< Median host time of all set-ups.
};

Host
hostTimes(const std::vector<double> &passS,
          const std::vector<double> &passCal,
          const std::vector<double> &calUs,
          const std::vector<double> &latencyMs,
          const std::vector<double> &latencyCal, double simWork,
          const std::vector<double> &setups)
{
    Host h;
    h.wallS = median(passS);
    h.wallCal = median(passCal);
    h.p50Ms = percentile(latencyMs, 50);
    h.p90Ms = percentile(latencyMs, 90);
    h.p50Cal = percentile(latencyCal, 50);
    h.p90Cal = percentile(latencyCal, 90);
    h.workPerPass = simWork / static_cast<double>(passS.size());
    h.workPerS = h.workPerPass / h.wallS;
    h.workPerCal = h.workPerPass / h.wallCal;
    h.calUs = median(calUs);
    h.setupS = median(setups);
    return h;
}

/**
 * The TPC trace observer of a traced pass: counts launches and traced
 * instructions and re-times tpc::evaluatePipeline on each observed
 * program. The re-evaluation runs under a discarded capture so that it
 * publishes no counters.
 */
tpc::TraceObserver
makeObserver(TraceData &td)
{
    return [&td](const tpc::Program &program, int tpcIndex) {
        Span s("tpc.observer");
        if (tpcIndex == 0)
            td.launches++;
        td.instrsTraced += program.instrs().size();
        obs::SideEffectLog discarded;
        obs::ScopedCapture capture(discarded);
        Span p("tpc.pipeline_eval");
        tpc::evaluatePipeline(program, tpc::TpcParams::forGaudi2());
    };
}

/** Per-layer table from the traced passes (values per pass). */
Metrics
layerMetrics(const Workload &w, const TraceData &td, const Host &host)
{
    const auto &spans = SpanLog::instance().spans();
    const double perPass = 1.0 / td.passes;
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const SpanRec &s : spans) {
        if (s.parent >= 0)
            childNs[s.parent] += s.endNs - s.startNs;
    }
    std::map<std::string, double> selfMs, pipelineMsUnder;
    double opMs = 0, pipelineMs = 0;
    for (std::size_t i = 0; i < spans.size(); i++) {
        const SpanRec &s = spans[i];
        const double durMs = (s.endNs - s.startNs) * 1e-6 * perPass;
        selfMs[s.name] += durMs - childNs[i] * 1e-6 * perPass;
        if (std::string(s.name) == "op")
            opMs += durMs;
        if (std::string(s.name) == "tpc.pipeline_eval") {
            pipelineMs += durMs;
            // Charge the estimate to the layer whose call launched the
            // kernel: the nearest ancestor that is not the observer.
            int a = s.parent;
            while (a >= 0 && std::string(spans[a].name) == "tpc.observer")
                a = spans[a].parent;
            if (a >= 0)
                pipelineMsUnder[spans[a].name] += durMs;
        }
    }
    // Functional TPC execution: self time of the kern calls that
    // launched TPC kernels, minus their re-timed pipeline evaluation.
    double functionalMs = 0;
    for (const auto &[name, ms] : pipelineMsUnder) {
        if (name.rfind("kern.", 0) == 0)
            functionalMs += selfMs[name] - ms;
    }

    auto self = [&](const char *name) {
        auto it = selfMs.find(name);
        return it == selfMs.end() ? 0.0 : it->second;
    };
    auto counter = [&](const std::string &name) {
        for (std::size_t i = 0; i < kTracedCounters.size(); i++) {
            if (kTracedCounters[i] == name)
                return td.counterTotals[i] * perPass;
        }
        return 0.0;
    };
    auto ratio = [](double hits, double misses) {
        return hits + misses > 0 ? hits / (hits + misses) : 0.0;
    };

    std::map<std::string, double> probe;
    if (w.probe)
        w.probe(probe);
    const double steps = counter("engine.steps");
    const double tracedWallS = median(td.passS);

    Metrics m = {
        {"kern.stream_gaudi.ms", {self("kern.stream_gaudi"), "ms"}},
        {"kern.gather_scatter_gaudi.ms",
         {self("kern.gather_scatter_gaudi"), "ms"}},
        {"kern.embedding_setup.ms", {self("kern.embedding_setup"), "ms"}},
        {"kern.embedding_run.ms", {self("kern.embedding_run"), "ms"}},
        {"cuda.a100_comparator.ms", {self("cuda.a100_comparator"), "ms"}},
        {"tpc.launches", {td.launches * perPass, "count"}},
        {"tpc.instrs_traced", {td.instrsTraced * perPass, "count"}},
        {"tpc.pipeline_eval.ms", {pipelineMs, "ms"}},
        {"tpc.functional.ms", {functionalMs, "ms"}},
        {"tpc.instructions", {counter("tpc.instructions"), "count"}},
        {"tpc.cycles", {counter("tpc.cycles"), "cycles"}},
        {"hbm.stream_bytes", {counter("hbm.stream_bytes"), "B"}},
        {"hbm.random_txns", {counter("hbm.random_txns"), "count"}},
        {"mme.gemms", {counter("mme.gemms"), "count"}},
        {"mme.reconfigs", {counter("mme.reconfigs"), "count"}},
        {"tc.gemms", {counter("tc.gemms"), "count"}},
        {"runtime.tasks", {counter("runtime.tasks"), "count"}},
        {"runtime.steals", {counter("runtime.steals"), "count"}},
        {"models.llama_serve.ms", {self("models.llama_serve"), "ms"}},
        {"models.dlrm_run.ms", {self("models.dlrm_run"), "ms"}},
        {"models.step_report_uncached.us",
         {probe["models.step_report_uncached.us"], "us"}},
        {"graph.ops", {counter("graph.ops"), "count"}},
        {"graph.replay.node_hit_ratio",
         {ratio(counter("replay.node.hits"), counter("replay.node.misses")),
          "ratio"}},
        {"graph.replay.step_hit_ratio",
         {ratio(counter("replay.step.hits"), counter("replay.step.misses")),
          "ratio"}},
        {"graph.replay.evictions",
         {counter("replay.node.evictions") +
              counter("replay.step.evictions"),
          "count"}},
        {"serve.engine_run.ms", {self("serve.engine_run"), "ms"}},
        {"serve.us_per_step",
         {steps > 0 ? self("serve.engine_run") * 1e3 / steps : 0.0, "us"}},
        {"engine.steps", {steps, "count"}},
        {"engine.steps_skipped", {counter("engine.steps_skipped"), "count"}},
        {"engine.preemptions", {counter("engine.preemptions"), "count"}},
        {"kv.grow_failures", {counter("kv.grow_failures"), "count"}},
        {"analysis.produce.ms", {self("analysis.produce"), "ms"}},
        {"analysis.static.ms", {self("analysis.static"), "ms"}},
        {"analysis.trace.ms", {self("analysis.trace"), "ms"}},
        {"analysis.tune.ms", {self("analysis.tune"), "ms"}},
        {"analysis.predict.configs_screened",
         {counter("analysis.predict.configs_screened"), "count"}},
        {"port.migrate.ms", {self("port.migrate"), "ms"}},
        {"port.parity_failures", {counter("port.parity_failures"), "count"}},
    };
    const double selfTotal = static_cast<double>(td.selfprof.totalNs());
    for (int c = 0; c < obs::kSelfCats; c++) {
        m.push_back({std::string("selfprof.") +
                         obs::selfCatName(static_cast<obs::SelfCat>(c)) +
                         ".ms",
                     {td.selfprof.ns[c] * 1e-6 * perPass, "ms"}});
    }
    const int other = static_cast<int>(obs::SelfCat::Other);
    m.push_back({"selfprof.other_share",
                 {selfTotal > 0 ? td.selfprof.ns[other] / selfTotal : 0.0,
                  "ratio"}});
    // Accounting: op time = layer self times + observer overhead +
    // remainder (the benchmark's own code between layer calls).
    m.push_back({"trace.op.ms", {opMs, "ms"}});
    m.push_back({"trace.observer.ms",
                 {self("tpc.observer") + pipelineMs, "ms"}});
    m.push_back({"trace.remainder.ms", {self("op"), "ms"}});
    m.push_back({"trace.remainder_share",
                 {opMs > 0 ? self("op") / opMs : 0.0, "ratio"}});
    m.push_back({"trace.wall_s", {tracedWallS, "s"}});
    m.push_back({"trace.overhead_s", {tracedWallS - host.wallS, "s"}});
    // The end-to-end times in host time, from the untraced passes.
    m.push_back({"host.wall_s", {host.wallS, "s"}});
    m.push_back({"host.op_p50_ms", {host.p50Ms, "ms"}});
    m.push_back({"host.op_p90_ms", {host.p90Ms, "ms"}});
    m.push_back({"host.sim_work_per_s", {host.workPerS, "1/s"}});
    m.push_back({"host.cal_us", {host.calUs, "us"}});
    m.push_back({"host.setup_s", {host.setupS, "s"}});

    std::printf("per-layer self time per pass (ms), %d traced pass(es):\n",
                td.passes);
    double sum = 0;
    for (const auto &[name, ms] : selfMs) {
        std::printf("  %-28s %12.3f\n", name.c_str(), ms);
        sum += ms;
    }
    std::printf("  %-28s %12.3f (op time %.3f)\n", "sum", sum, opMs);
    return m;
}

void
writeSpans(const Args &a, const TraceData &td)
{
    std::FILE *f = std::fopen(a.spans.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                     a.spans.c_str());
        std::exit(2);
    }
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                    ",\n \"spans\": [",
                 a.workload.c_str(), a.seed);
    const auto &spans = SpanLog::instance().spans();
    for (std::size_t i = 0; i < spans.size(); i++) {
        const SpanRec &s = spans[i];
        std::fprintf(f,
                     "%s\n  {\"name\": \"%s\", \"op\": %d, \"pass\": %d, "
                     "\"parent\": %d, \"start_ns\": %" PRId64
                     ", \"end_ns\": %" PRId64 "}",
                     i ? "," : "", s.name, s.op, s.pass, s.parent,
                     s.startNs, s.endNs);
    }
    std::fprintf(f, "],\n \"op_counters\": [");
    for (std::size_t i = 0; i < td.opCounters.size(); i++) {
        const auto &oc = td.opCounters[i];
        std::fprintf(f, "%s\n  {\"op\": %d, \"pass\": %d, \"deltas\": {",
                     i ? "," : "", oc.op, oc.pass);
        bool first = true;
        for (std::size_t c = 0; c < oc.deltas.size(); c++) {
            if (oc.deltas[c] == 0)
                continue;
            std::fprintf(f, "%s\"%s\": %.17g", first ? "" : ", ",
                         kTracedCounters[c].c_str(), oc.deltas[c]);
            first = false;
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "]}\n");
    if (std::ferror(f) != 0 || std::fclose(f) != 0) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                     a.spans.c_str());
        std::exit(2);
    }
}

void
printResult(bool correct, long long attempted, long long failed,
            const Metrics &metrics)
{
    std::string json = strfmt(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); i++) {
        json += strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i ? ", " : "", metrics[i].first.c_str(),
                       metrics[i].second.value, metrics[i].second.unit);
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const std::int64_t startNs = nowNs();
    const Args args = parseArgs(argc, argv);

    // Set-up: model and registry construction plus input generation.
    // This first set-up, timed from the start of main, also pays the
    // process's cold start and the one-time registry construction.
    Workload w = makeWorkload(args.workload, args.seed);
    const std::int64_t firstSetupNs = nowNs() - startNs;
    const std::size_t nops = w.ops.size();
    const std::vector<std::string> refs =
        args.refs.empty() ? std::vector<std::string>{}
                          : loadRefs(args, nops);

    const int threads = args.trace ? 1
                        : args.threads ? args.threads
                                       : w.threads;
    runtime::Pool::setGlobalThreads(threads);

    auto &registry = obs::CounterRegistry::instance();
    obs::Counter &checked = registry.counter(w.checkedCounter);
    std::vector<obs::Counter *> traced;
    for (const auto &name : kTracedCounters)
        traced.push_back(&registry.counter(name));

    std::vector<std::string> firstPass(nops);
    // Untraced passes: host time and the same in calibration units.
    Calibration cal;
    std::vector<double> passS, passCal, calUs;
    std::vector<double> latencyMs;  ///< Every untraced op sample.
    std::vector<double> latencyCal; ///< The same in calibration units.
    std::vector<std::int64_t> opNs(nops), opCalNs(nops);
    // Set-ups in host seconds, and in cal: the first, then the mean of
    // the set-ups after each untraced pass, each at that pass's unit.
    std::vector<double> setups = {firstSetupNs * 1e-9};
    std::vector<double> setupCal;
    double simWork = 0;
    long long attempted = 0, failed = 0;
    TraceData td;

    const std::int64_t budgetNs =
        static_cast<std::int64_t>(args.seconds) * 1000000000;
    const std::int64_t loopStart = nowNs();
    for (int pass = 0;; pass++) {
        // Every pass starts from empty replay caches, as a fresh sweep
        // process would.
        graph::nodeReplayCache().clear();
        graph::stepReplayCache().clear();

        const bool tracedPass = args.trace && pass % 2 == 1;
        std::optional<tpc::ScopedTraceObserver> observer;
        if (tracedPass) {
            SpanLog::instance().setEnabled(true);
            obs::SelfProf::instance().reset();
            obs::SelfProf::instance().setEnabled(true);
            observer.emplace(makeObserver(td));
        }
        std::vector<double> before(traced.size());
        std::int64_t calBlockNs = 0; ///< Calibration time in the pass.

        const std::int64_t passStart = nowNs();
        for (std::size_t i = 0; i < nops; i++) {
            SpanLog::instance().setOp(static_cast<int>(i), pass);
            if (tracedPass) {
                for (std::size_t c = 0; c < traced.size(); c++)
                    before[c] = traced[c]->value();
            }
            const double checkedBefore = checked.value();
            OpOutput out;
            const std::int64_t t0 = nowNs();
            {
                Span root("op");
                w.ops[i].run(out);
            }
            const std::int64_t t1 = nowNs();
            const double delta = checked.value() - checkedBefore;
            out.addInt(w.checkedCounter, std::llround(delta));

            if (tracedPass) {
                TraceData::OpCounters oc{static_cast<int>(i), pass, {}};
                for (std::size_t c = 0; c < traced.size(); c++) {
                    oc.deltas.push_back(traced[c]->value() - before[c]);
                    td.counterTotals[c] += oc.deltas.back();
                }
                td.opCounters.push_back(std::move(oc));
            } else {
                opNs[i] = t1 - t0;
                opCalNs[i] = cal.measureNs();
                calBlockNs += nowNs() - t1;
                simWork += w.countsTokens ? w.ops[i].simTokens : delta;
            }

            const std::string line =
                strfmt("%zu ", i) + w.ops[i].label + out.text();
            const std::string &want =
                !refs.empty() ? refs[i] : (pass == 0 ? line : firstPass[i]);
            if (pass == 0)
                firstPass[i] = line;
            attempted++;
            if (line != want) {
                if (failed < 5)
                    std::fprintf(stderr,
                                 "perfbench: op %zu pass %d output "
                                 "differs\n  want: %s\n  got:  %s\n",
                                 i, pass, want.c_str(), line.c_str());
                failed++;
            }
        }
        std::int64_t passNs = nowNs() - passStart;

        if (tracedPass) {
            observer.reset();
            SpanLog::instance().setEnabled(false);
            td.selfprof.merge(obs::SelfProf::instance().settle().ledger);
            obs::SelfProf::instance().setEnabled(false);
            td.passes++;
            td.passS.push_back(passNs * 1e-9);
        } else {
            // The pass's calibration unit is the mean of the timed runs
            // after its ops; the pass's host time leaves the calibration
            // out. The host's slowdowns switch on and off faster than a
            // pass, and the mean follows the share of the pass they
            // cover.
            double calSumNs = 0;
            for (std::int64_t c : opCalNs)
                calSumNs += static_cast<double>(c);
            const double unitNs = calSumNs / static_cast<double>(nops);
            passNs -= calBlockNs;
            for (std::int64_t t : opNs) {
                latencyMs.push_back(t * 1e-6);
                latencyCal.push_back(t / unitNs);
            }
            passS.push_back(passNs * 1e-9);
            passCal.push_back(passNs / unitNs);
            calUs.push_back(unitNs * 1e-3);
            // More set-ups after every untraced pass, so that they
            // spread over the run like the passes; setup_s is the
            // median of the per-pass means and the first set-up.
            if (setupCal.empty())
                setupCal.push_back(firstSetupNs / unitNs);
            double passSetupCal = 0;
            for (int k = 0; k < kSetupsPerPass; k++) {
                const std::int64_t t0 = nowNs();
                const Workload again =
                    makeWorkload(args.workload, args.seed);
                const std::int64_t setupNs = nowNs() - t0;
                setups.push_back(setupNs * 1e-9);
                passSetupCal += setupNs / unitNs;
            }
            setupCal.push_back(passSetupCal / kSetupsPerPass);
        }
        const bool timeUp = nowNs() - loopStart >= budgetNs;
        if (timeUp && (!args.trace || td.passes > 0))
            break;
    }

    if (!args.record.empty()) {
        std::ofstream out(args.record);
        out << refsHeader(args, nops) << "\n";
        for (const auto &line : firstPass)
            out << line << "\n";
        out.close();
        if (!out) {
            std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                         args.record.c_str());
            return 2;
        }
    }

    // The end-to-end times are in calibration units: wall_cal is the
    // median untraced pass, the op percentiles are over every untraced
    // sample of every op. The same in host time is printed beside them
    // and reported by the traced run.
    const Host host = hostTimes(passS, passCal, calUs, latencyMs,
                                latencyCal, simWork, setups);
    const double setupS = median(setupCal) * kSecondsPerCal;
    const double failRatio =
        static_cast<double>(failed) / static_cast<double>(attempted);
    const char *workName =
        w.countsTokens ? "sim_tokens" : "sim_instr";

    std::printf("workload %s seed %" PRIu64 ": %zu ops per pass, %zu "
                "untraced pass(es), pool size %d\n",
                args.workload.c_str(), args.seed, nops, passS.size(),
                threads);
    std::printf("  pass wall times (s):");
    for (double s : passS)
        std::printf(" %.3f", s);
    std::printf("\n  calibration unit (us):");
    for (double us : calUs)
        std::printf(" %.1f", us);
    std::printf("\n  setup_s           %12.6f s   (%.1f cal; host: first %.6f s, "
                "median of %zu set-ups %.6f s)\n",
                setupS, setupS / kSecondsPerCal, setups.front(),
                setups.size(), host.setupS);
    std::printf("  wall_cal          %12.1f cal (median pass; %.6f s)\n",
                host.wallCal, host.wallS);
    std::printf("  op_p50_cal        %12.2f cal (%.4f ms)\n", host.p50Cal,
                host.p50Ms);
    std::printf("  op_p90_cal        %12.2f cal (%.4f ms; %zu samples of "
                "%zu ops)\n",
                host.p90Cal, host.p90Ms, latencyMs.size(), nops);
    std::printf("  sim_work_per_cal  %12.6g 1/cal (%s: %.6g per pass, "
                "%.6g 1/s)\n",
                host.workPerCal, workName, host.workPerPass,
                host.workPerS);
    std::printf("  peak_rss_mb       %12.1f MB\n", peakRssMb());
    std::printf("  fail_ratio        %12.6f ratio (%lld of %lld ops)\n",
                failRatio, failed, attempted);

    Metrics metrics;
    if (args.trace) {
        metrics = layerMetrics(w, td, host);
        if (!args.spans.empty())
            writeSpans(args, td);
    } else {
        metrics = {
            {"setup_s", {setupS, "s"}},
            {"wall_cal", {host.wallCal, "cal"}},
            {"op_p50_cal", {host.p50Cal, "cal"}},
            {"op_p90_cal", {host.p90Cal, "cal"}},
            {"sim_work_per_cal", {host.workPerCal, "1/cal"}},
            {"peak_rss_mb", {peakRssMb(), "MB"}},
        };
    }
    std::fflush(stderr);
    printResult(failed == 0, attempted, failed, metrics);
    return failed == 0 ? 0 : 1;
}
