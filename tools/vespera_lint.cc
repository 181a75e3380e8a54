/**
 * @file
 * vespera-lint: static analysis over the repo's TPC kernels and model
 * graphs.
 *
 * Three modes share one CLI:
 *
 *  - lint (default): runs every kernel registered in
 *    analysis::KernelRegistry under trace capture, lifts each recorded
 *    tpc::Program to SSA IR and runs the static passes
 *    (analysis/static/) — the one kernel rule engine — plus the static
 *    cost model, without consuming a simulator cycle. It also lints
 *    the DLRM dense graph at raw and compiled stages. Reports use
 *    schema "vespera-lint-static/v1" (per-finding fix hints, IR shape,
 *    predicted-cycle breakdown).
 *
 *  - migrate: lowers every CUDA kernel desc in the migration corpus
 *    (port/corpus.h) onto tpc::Program, checks functional parity
 *    against the lockstep CUDA reference interpreter, measures the
 *    achieved fraction of the hand-written TPC-C comparator's
 *    performance, and attributes the gap with the migration-aware
 *    static-analyzer passes. Reports use schema
 *    "vespera-lint-migrate/v1"; the baseline ratchet
 *    ("vespera-lint-migrate-baseline/v1") pins parity and achieved
 *    fraction so they can only improve.
 *
 *  - tune: runs the static design-space autotuner
 *    (analysis/predict/) over every registered tunable kernel —
 *    proxy-screens the knob cross product, exact-verifies the top-k,
 *    and reports the best configuration found as a fix hint. Reports
 *    use schema "vespera-lint-tune/v1". `tune --calibrate=PATH`
 *    refits the proxy coefficients against the exact static scheduler
 *    and writes the versioned artifact instead of tuning.
 *
 * CI runs all modes with checked-in warnings baselines: any
 * error-severity finding, or any warning count above the baseline,
 * fails the build.
 *
 * Usage:
 *   vespera-lint [tune|migrate] [--list] [--kernel=SUBSTR]
 *                [--json[=PATH]] [--baseline=PATH]
 *                [--write-baseline=PATH] [--update-baseline]
 *                [--fail-on=error|warning|none] [--verbose]
 *                [--top-k=N] [--coeffs=PATH] [--calibrate=PATH]
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/kernel_registry.h"
#include "analysis/migrate/migrate_report.h"
#include "analysis/migrate/scorecard.h"
#include "analysis/predict/calibrate.h"
#include "analysis/predict/proxy.h"
#include "analysis/predict/tune_report.h"
#include "analysis/predict/tuner.h"
#include "analysis/report.h"
#include "analysis/static/static_analyzer.h"
#include "analysis/static/static_report.h"
#include "common/parse.h"
#include "graph/compiler.h"
#include "graph/lint.h"
#include "models/dlrm.h"
#include "port/corpus.h"

namespace {

using vespera::analysis::Diagnostic;
using vespera::analysis::LintEntry;
using vespera::analysis::Severity;
using vespera::analysis::StaticLintEntry;

struct Options
{
    bool tuneMode = false;    ///< "tune" subcommand.
    bool migrateMode = false; ///< "migrate" subcommand.
    int topK = 5;            ///< Exact verifications per kernel (tune).
    std::string coeffsPath;  ///< Proxy coefficients ("" = builtin).
    /// Refit the proxy and write coefficients here instead of tuning.
    std::string calibratePath;
    bool list = false;
    bool verbose = false;
    bool json = false;
    std::string jsonPath;          ///< "" = stdout.
    std::string kernelFilter;
    std::string baselinePath;
    std::string writeBaselinePath;
    /// Rewrite --baseline's file in place from this run instead of
    /// comparing against it (the ratchet update).
    bool updateBaseline = false;
    Severity failOn = Severity::Error;
    bool failOnNothing = false;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [tune|migrate] [options]\n"
        "  migrate                CUDA->TPC migration scorecard:\n"
        "                         lower the CUDA corpus, check parity\n"
        "                         vs the reference interpreter, report\n"
        "                         achieved fraction of hand-written\n"
        "                         performance and migration findings\n"
        "  tune                   static design-space autotuner:\n"
        "                         proxy-screen knob cross products,\n"
        "                         exact-verify the top-k\n"
        "  --top-k=N              tune: exact verifications per kernel\n"
        "  --coeffs=PATH          tune: proxy coefficients JSON\n"
        "                         (default: built-in artifact)\n"
        "  --calibrate=PATH       tune: refit the proxy against the\n"
        "                         static scheduler, write coefficients\n"
        "                         to PATH, and exit\n"
        "  --list                 list registered kernels and exit\n"
        "  --kernel=SUBSTR        only kernels whose name contains "
        "SUBSTR\n"
        "  --json[=PATH]          emit JSON report (stdout or PATH)\n"
        "  --baseline=PATH        fail when warnings exceed baseline\n"
        "  --write-baseline=PATH  write the current warnings baseline\n"
        "  --update-baseline      rewrite --baseline's file in place\n"
        "                         from this run (skips the check;\n"
        "                         not with --kernel)\n"
        "  --fail-on=SEV          error (default) | warning | none\n"
        "  --verbose              per-trace stats even when clean\n",
        argv0);
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&arg](const char *flag) -> const char * {
            const std::size_t n = std::strlen(flag);
            if (arg.compare(0, n, flag) == 0 && arg.size() > n &&
                arg[n] == '=') {
                return arg.c_str() + n + 1;
            }
            return nullptr;
        };
        if (arg == "tune") {
            opt.tuneMode = true;
        } else if (arg == "migrate") {
            opt.migrateMode = true;
        } else if (const char *v = value("--top-k")) {
            long long k = 0;
            if (!vespera::parseInt(v, k) || k < 1 || k > (1 << 20)) {
                std::fprintf(stderr, "--top-k: expected a positive "
                                     "integer, got '%s'\n", v);
                return false;
            }
            opt.topK = static_cast<int>(k);
        } else if (const char *v = value("--coeffs")) {
            opt.coeffsPath = v;
        } else if (const char *v = value("--calibrate")) {
            opt.calibratePath = v;
        } else if (arg == "--list") {
            opt.list = true;
        } else if (arg == "--verbose") {
            opt.verbose = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--update-baseline") {
            opt.updateBaseline = true;
        } else if (const char *v = value("--json")) {
            opt.json = true;
            opt.jsonPath = v;
        } else if (const char *v = value("--kernel")) {
            opt.kernelFilter = v;
        } else if (const char *v = value("--baseline")) {
            opt.baselinePath = v;
        } else if (const char *v = value("--write-baseline")) {
            opt.writeBaselinePath = v;
        } else if (const char *v = value("--fail-on")) {
            if (std::strcmp(v, "error") == 0) {
                opt.failOn = Severity::Error;
            } else if (std::strcmp(v, "warning") == 0) {
                opt.failOn = Severity::Warning;
            } else if (std::strcmp(v, "none") == 0) {
                opt.failOnNothing = true;
            } else {
                return false;
            }
        } else {
            return false;
        }
    }
    // --update-baseline without a --baseline has nothing to rewrite,
    // and under --kernel it would drop every other kernel from it.
    if (opt.updateBaseline &&
        (opt.baselinePath.empty() || !opt.kernelFilter.empty()))
        return false;
    // The subcommands are mutually exclusive; calibration is a tune
    // operation.
    if (opt.tuneMode && opt.migrateMode)
        return false;
    if (!opt.calibratePath.empty() && !opt.tuneMode)
        return false;
    return true;
}

/** Lint the DLRM dense graph at raw and compiled stages; the findings
 *  share the render / baseline path with kernel traces. */
void
appendGraphEntries(const Options &opt,
                   std::vector<StaticLintEntry> &entries)
{
    using vespera::models::DlrmConfig;
    using vespera::models::DlrmModel;
    using vespera::models::DlrmRunConfig;

    struct Stage
    {
        const char *name;
        bool compiled;
    };
    static constexpr Stage stages[] = {
        {"graph:dlrm_rm1:raw", false},
        {"graph:dlrm_rm1:compiled", true},
    };
    for (const Stage &stage : stages) {
        if (!opt.kernelFilter.empty() &&
            std::string(stage.name).find(opt.kernelFilter) ==
                std::string::npos) {
            continue;
        }
        DlrmModel model(DlrmConfig::rm1());
        vespera::graph::Graph g =
            model.buildDenseGraph(DlrmRunConfig{});
        if (stage.compiled)
            vespera::graph::Compiler().compile(g);
        StaticLintEntry e;
        e.kernel = stage.name;
        e.shape = "rm1 batch=1024";
        vespera::analysis::Report &r = e.report.report;
        r.kernel = stage.name;
        for (Diagnostic &d : vespera::graph::lintGraph(g)) {
            vespera::analysis::RuleSummary &s = r.rules[d.rule];
            s.count++;
            s.costCycles += d.costCycles;
            s.wastedBytes += d.wastedBytes;
            r.diagnostics.push_back(std::move(d));
        }
        entries.push_back(std::move(e));
    }
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    out << content << "\n";
    return true;
}

/** Read and parse the JSON file at `path`; `what` names it in the
 *  error message. */
bool
loadJson(const std::string &path, const char *what,
         vespera::json::Value &out)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s %s\n", what, path.c_str());
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!vespera::json::parse(buf.str(), out, &error)) {
        std::fprintf(stderr, "%s %s: %s\n", what, path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

/**
 * The baseline half of every mode: write `doc` to --write-baseline,
 * rewrite --baseline in place (--update-baseline; comparing against
 * the file just written would be vacuous, so the check is skipped),
 * or compare against --baseline with `check`. Returns 0, 1 on a
 * regression, 2 on an I/O error.
 */
template <class Check>
int
baselineStep(const Options &opt, const vespera::json::Value &doc,
             Check check)
{
    const std::string text = vespera::json::serialize(doc);
    if (!opt.writeBaselinePath.empty() &&
        !writeFile(opt.writeBaselinePath, text)) {
        return 2;
    }
    if (opt.updateBaseline) {
        if (!writeFile(opt.baselinePath, text))
            return 2;
        std::fprintf(stderr, "baseline %s updated\n",
                     opt.baselinePath.c_str());
        return 0;
    }
    if (opt.baselinePath.empty())
        return 0;
    vespera::json::Value baseline;
    if (!loadJson(opt.baselinePath, "baseline", baseline))
        return 2;
    const vespera::analysis::BaselineCheck result = check(baseline);
    for (const std::string &failure : result.failures)
        std::fprintf(stderr, "BASELINE: %s\n", failure.c_str());
    return result.ok ? 0 : 1;
}

/** True (after saying so) when `report` has a finding at or above
 *  --fail-on. */
bool
failsOn(const Options &opt, const std::string &kernel,
        const vespera::analysis::Report &report)
{
    if (opt.failOnNothing || !report.hasSeverity(opt.failOn))
        return false;
    std::fprintf(stderr, "FAIL: %s has findings at or above %s\n",
                 kernel.c_str(),
                 vespera::analysis::severityName(opt.failOn));
    return true;
}

/** Baseline step and --fail-on gate of the warnings-baseline modes
 *  (lint and tune). Returns the process exit code. */
int
finishRun(const Options &opt, const std::vector<LintEntry> &entries)
{
    int rc = baselineStep(
        opt, vespera::analysis::baselineJson(entries),
        [&entries](const vespera::json::Value &baseline) {
            return vespera::analysis::checkAgainstBaseline(entries,
                                                           baseline);
        });
    if (rc == 2)
        return rc;
    for (const LintEntry &e : entries) {
        if (failsOn(opt, e.kernel, e.report))
            rc = 1;
    }
    return rc;
}

/** Emit `doc` per the --json options. */
int
emitJson(const Options &opt, const vespera::json::Value &doc)
{
    const std::string text = vespera::json::serialize(doc);
    if (opt.jsonPath.empty()) {
        std::puts(text.c_str());
        return 0;
    }
    return writeFile(opt.jsonPath, text) ? 0 : 2;
}

/** The default mode: the static passes over every registered kernel,
 *  plus the graph lint. */
int
runLint(const Options &opt)
{
    std::vector<StaticLintEntry> entries;
    for (vespera::analysis::TracedKernel &t :
         vespera::analysis::KernelRegistry::instance().traceAll(
             opt.kernelFilter)) {
        StaticLintEntry e;
        e.kernel = t.name;
        e.shape = t.shape;
        e.report = vespera::analysis::analyzeProgramStatic(t.program);
        entries.push_back(std::move(e));
    }
    appendGraphEntries(opt, entries);
    if (entries.empty()) {
        std::fprintf(stderr, "no kernels match filter '%s'\n",
                     opt.kernelFilter.c_str());
        return 2;
    }

    if (!opt.json || !opt.jsonPath.empty()) {
        std::fputs(vespera::analysis::staticLintReportText(
                       entries, opt.verbose)
                       .c_str(),
                   stdout);
    }
    if (opt.json) {
        const int rc = emitJson(
            opt, vespera::analysis::staticLintReportJson(entries));
        if (rc != 0)
            return rc;
    }
    return finishRun(opt,
                     vespera::analysis::toLintEntries(entries));
}

/** tune --calibrate=PATH: refit, report per-family error, write the
 *  coefficient artifact. */
int
runCalibrate(const Options &opt)
{
    const vespera::analysis::CalibrationReport report =
        vespera::analysis::calibrateProxy(opt.kernelFilter);
    for (const vespera::analysis::CalibrationFamily &f :
         report.families) {
        std::printf("%-24s %3zu samples: calibration %5.1f%%, "
                    "held-out %5.1f%%\n",
                    f.name.c_str(), f.samples,
                    f.maxCalibrationErr * 100.0,
                    f.maxHeldOutErr * 100.0);
    }
    std::printf("worst held-out error: %.1f%%\n",
                report.maxHeldOutErr() * 100.0);
    const std::string doc =
        vespera::json::serialize(report.model.toJson());
    if (!writeFile(opt.calibratePath, doc))
        return 2;
    std::fprintf(stderr, "coefficients written to %s\n",
                 opt.calibratePath.c_str());
    // The ±15% contract is a test-time gate too, but failing it at
    // fit time makes a bad refit impossible to commit silently.
    return report.maxHeldOutErr() <= 0.15 ? 0 : 1;
}

int
runTune(const Options &opt)
{
    if (!opt.calibratePath.empty())
        return runCalibrate(opt);

    vespera::analysis::ProxyModel loaded;
    vespera::analysis::TunerOptions topts;
    topts.topK = opt.topK;
    if (!opt.coeffsPath.empty()) {
        vespera::json::Value doc;
        if (!loadJson(opt.coeffsPath, "coeffs", doc))
            return 2;
        std::string error;
        if (!vespera::analysis::ProxyModel::fromJson(doc, loaded,
                                                     &error)) {
            std::fprintf(stderr, "coeffs %s: %s\n",
                         opt.coeffsPath.c_str(), error.c_str());
            return 2;
        }
        topts.model = &loaded;
    }

    const std::vector<vespera::analysis::TuneResult> results =
        vespera::analysis::autotuneAll(opt.kernelFilter, topts);
    if (results.empty()) {
        std::fprintf(stderr, "no tunables match filter '%s'\n",
                     opt.kernelFilter.c_str());
        return 2;
    }

    if (!opt.json || !opt.jsonPath.empty()) {
        std::fputs(
            vespera::analysis::tuneReportText(results, opt.verbose)
                .c_str(),
            stdout);
    }
    if (opt.json) {
        const int rc = emitJson(
            opt, vespera::analysis::tuneReportJson(results));
        if (rc != 0)
            return rc;
    }
    return finishRun(opt,
                     vespera::analysis::tuneToLintEntries(results));
}

/**
 * migrate: the CUDA->TPC porting scorecard. The baseline format
 * ("vespera-lint-migrate-baseline/v1", per-kernel parity + achieved
 * fraction) differs from the warnings baseline, and parity failures
 * gate too, so this mode has its own finish path instead of
 * finishRun.
 */
int
runMigrate(const Options &opt)
{
    std::vector<vespera::analysis::MigrateEntry> entries;
    for (vespera::analysis::MigrateEntry &e :
         vespera::analysis::runMigrationCorpus({})) {
        if (!opt.kernelFilter.empty() &&
            e.kernel.find(opt.kernelFilter) == std::string::npos) {
            continue;
        }
        entries.push_back(std::move(e));
    }
    if (entries.empty()) {
        std::fprintf(stderr, "no kernels match filter '%s'\n",
                     opt.kernelFilter.c_str());
        return 2;
    }

    if (!opt.json || !opt.jsonPath.empty()) {
        std::fputs(vespera::analysis::migrateReportText(entries,
                                                        opt.verbose)
                       .c_str(),
                   stdout);
    }
    if (opt.json) {
        const int rc = emitJson(
            opt, vespera::analysis::migrateReportJson(entries));
        if (rc != 0)
            return rc;
    }

    int rc = baselineStep(
        opt, vespera::analysis::migrateBaselineJson(entries),
        [&entries](const vespera::json::Value &baseline) {
            return vespera::analysis::checkMigrateBaseline(entries,
                                                           baseline);
        });
    if (rc == 2)
        return rc;
    // Parity failures are always fatal; analyzer findings gate at the
    // usual --fail-on severity.
    for (const vespera::analysis::MigrateEntry &e : entries) {
        if (!opt.failOnNothing && !e.parity) {
            std::fprintf(stderr, "FAIL: %s fails parity\n",
                         e.kernel.c_str());
            rc = 1;
        }
        if (failsOn(opt, e.kernel, e.analysis.report))
            rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage(argv[0]);

    vespera::analysis::registerBuiltinKernels();
    vespera::analysis::registerTunableKernels();
    vespera::analysis::KernelRegistry &reg =
        vespera::analysis::KernelRegistry::instance();

    if (opt.list) {
        if (opt.migrateMode) {
            for (const vespera::port::CorpusEntry &e :
                 vespera::port::migrationCorpus()) {
                std::printf("%s [%s]\n", e.desc.name.c_str(),
                            e.desc.shape.c_str());
            }
            return 0;
        }
        if (opt.tuneMode) {
            const vespera::analysis::TunableRegistry &tunables =
                vespera::analysis::TunableRegistry::instance();
            for (const std::string &name : tunables.names()) {
                std::printf(
                    "%s (%zu configs)\n", name.c_str(),
                    tunables.get(name).configCount());
            }
            return 0;
        }
        for (const std::string &name : reg.names())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    if (opt.migrateMode)
        return runMigrate(opt);
    if (opt.tuneMode)
        return runTune(opt);
    return runLint(opt);
}
