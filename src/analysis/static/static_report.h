/**
 * @file
 * Rendering of static-analyzer results: human-readable text, the
 * "vespera-lint-static/v1" JSON schema (per-finding fix hints, IR
 * shape, and the cost model's predicted-cycle breakdown), and the
 * bridge to the warnings baseline ratchet (report.h).
 */

#ifndef VESPERA_ANALYSIS_STATIC_STATIC_REPORT_H
#define VESPERA_ANALYSIS_STATIC_STATIC_REPORT_H

#include "analysis/report.h"
#include "analysis/static/static_analyzer.h"

namespace vespera::analysis {

/** One statically analyzed trace in a lint run (kernel x shape). */
struct StaticLintEntry
{
    std::string kernel;
    /// Human-readable shape tag ("rows=48 cols=1024"); may be "".
    std::string shape;
    StaticReport report;
};

/** Full static lint run as JSON (schema "vespera-lint-static/v1"). */
json::Value
staticLintReportJson(const std::vector<StaticLintEntry> &entries);

/** Human-readable report. `verbose` includes per-trace stats even for
 *  clean traces; otherwise clean traces get one summary line. */
std::string
staticLintReportText(const std::vector<StaticLintEntry> &entries,
                     bool verbose);

/**
 * Project onto LintEntry records (dropping the schedule and IR shape)
 * so baselineJson / checkAgainstBaseline apply.
 */
std::vector<LintEntry>
toLintEntries(const std::vector<StaticLintEntry> &entries);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_STATIC_STATIC_REPORT_H
