#include "analysis/analyzer.h"

#include "analysis/static/passes.h"
#include "obs/counters.h"

namespace vespera::analysis {

namespace {

/** Publish per-rule totals into the process-wide counter registry. */
void
exportRuleCounters(const Report &report)
{
    obs::CounterRegistry &reg = obs::CounterRegistry::instance();
    reg.counter("analysis.programs").add(1.0);
    for (const auto &[rule, summary] : report.rules) {
        reg.counter(std::string("analysis.diag.") + rule)
            .add(summary.count);
    }
}

} // namespace

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Info:
        return "info";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "?";
}

bool
Report::hasSeverity(Severity s) const
{
    for (const Diagnostic &d : diagnostics) {
        if (d.severity >= s)
            return true;
    }
    return false;
}

int
Report::countFor(const std::string &rule) const
{
    auto it = rules.find(rule);
    return it == rules.end() ? 0 : it->second.count;
}

Report
analyzeProgram(const tpc::Program &program,
               const StaticAnalyzerOptions &options)
{
    StaticReport st = runPasses(program, kernelRulePasses);
    Report report = std::move(st.report);
    report.predictedStallCycles =
        report.dependencyStallCycles + report.memoryStallCycles +
        report.slotStallCycles + report.drainStallCycles;

    // A malformed trace cannot be replayed: the pipeline indexes its
    // ready-time array by value id.
    if (report.countFor(rules::invalidSsa) == 0 && !program.empty()) {
        const tpc::PipelineResult pr = tpc::evaluatePipeline(
            program, tpc::TpcParams::forGaudi2());
        report.cycles = pr.cycles;
        report.measuredStallCycles = pr.stallCycles;
    }

    if (options.exportCounters)
        exportRuleCounters(report);
    return report;
}

} // namespace vespera::analysis
