#include "analysis/analyzer.h"

#include <algorithm>

#include "analysis/static/static_analyzer.h"
#include "obs/counters.h"

namespace vespera::analysis {

namespace {

/** The rules analyzeProgram reports (declared in analyzer.h). */
bool
isReportedRule(const std::string &rule)
{
    for (const char *r :
         {rules::exposedLatency, rules::narrowAccess,
          rules::randomShouldStream, rules::slotImbalance,
          rules::deadValue, rules::redundantReload, rules::localOverflow,
          rules::invalidSsa}) {
        if (rule == r)
            return true;
    }
    return false;
}

/** Longest def-use chain in cycles (infinite-resource schedule). */
double
criticalPath(const tpc::Program &program, const tpc::TpcParams &params)
{
    std::vector<double> finish(
        static_cast<std::size_t>(program.numValues()), 0.0);
    double longest = 0;
    for (const tpc::Instr &instr : program.instrs()) {
        double start = 0;
        for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
            if (src >= 0)
                start = std::max(start,
                                 finish[static_cast<std::size_t>(src)]);
        }
        const double done =
            start + std::max(tpc::resultLatency(instr, params), 1.0);
        if (instr.dst >= 0)
            finish[static_cast<std::size_t>(instr.dst)] = done;
        longest = std::max(longest, done);
    }
    return longest;
}

/** Measured cycles and per-cause stall attribution of one replay. */
void
attributeStalls(const tpc::Program &program,
                const tpc::TpcParams &params, Report &report)
{
    tpc::IssueTrace trace;
    const tpc::PipelineResult pr =
        tpc::evaluatePipeline(program, params, &trace);
    report.cycles = pr.cycles;
    report.measuredStallCycles = pr.stallCycles;
    for (const tpc::IssuedInstr &rec : trace.instrs) {
        switch (rec.cause) {
          case tpc::StallCause::Dependency:
            report.dependencyStallCycles += rec.stallCycles;
            break;
          case tpc::StallCause::Memory:
            report.memoryStallCycles += rec.stallCycles;
            break;
          case tpc::StallCause::SlotBusy:
            report.slotStallCycles += rec.stallCycles;
            break;
          case tpc::StallCause::None:
            break;
        }
    }
    report.drainStallCycles = trace.drainStall;
    report.predictedStallCycles =
        report.dependencyStallCycles + report.memoryStallCycles +
        report.slotStallCycles + report.drainStallCycles;
    report.criticalPathCycles = criticalPath(program, params);
}

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
    StaticAnalyzerOptions inner = options;
    inner.exportCounters = false; // This call exports analysis.diag.*.
    StaticReport st = analyzeProgramStatic(program, inner);

    Report report;
    report.kernel = program.kernelName();
    report.instructions = program.instrs().size();
    report.slotCounts = st.report.slotCounts;
    report.localBytesUsed = st.report.localBytesUsed;
    for (const auto &[rule, summary] : st.report.rules) {
        if (isReportedRule(rule))
            report.rules.emplace(rule, summary);
    }
    for (Diagnostic &d : st.report.diagnostics) {
        if (isReportedRule(d.rule))
            report.diagnostics.push_back(std::move(d));
    }

    // A malformed trace cannot be replayed: the pipeline indexes its
    // ready-time array by value id.
    if (report.countFor(rules::invalidSsa) == 0 && !program.empty())
        attributeStalls(program, options.params, report);

    if (options.exportCounters)
        exportRuleCounters(report);
    return report;
}

} // namespace vespera::analysis
