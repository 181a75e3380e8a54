/**
 * @file
 * Rendering of autotuner results: human-readable text, the
 * "vespera-lint-tune/v1" JSON schema (best-found configuration per
 * kernel as a machine-readable fix hint, exact and proxy cycles,
 * screening/verification counts), and the bridge onto the trace
 * report machinery so the warnings baseline ratchet applies to tune
 * runs (tools/lint_tune_baseline.json) exactly as it does to the
 * trace and static lint modes.
 *
 * Everything serialized here is deterministic — cycles come from the
 * static scheduler and the proxy's pure arithmetic, never wall clock —
 * so vespera-stat can diff two tune documents byte-for-byte
 * reproducibly (the bench-trajectory job does).
 */

#ifndef VESPERA_ANALYSIS_PREDICT_TUNE_REPORT_H
#define VESPERA_ANALYSIS_PREDICT_TUNE_REPORT_H

#include <string>
#include <vector>

#include "analysis/predict/tuner.h"
#include "analysis/report.h"
#include "common/json.h"

namespace vespera::analysis {

namespace rules {
/// The shipped configuration is beaten by another point of its own
/// tuning space (fix hint carries the better configuration).
inline constexpr const char *tuneOpportunity = "tune-opportunity";
} // namespace rules

/// Improvement fraction above which a tune-opportunity is a Warning
/// (baseline-ratcheted); between info and warn it is an Info.
inline constexpr double kTuneWarnImprovement = 0.10;
inline constexpr double kTuneInfoImprovement = 0.02;

/** Full tune run as JSON (schema "vespera-lint-tune/v1"). */
json::Value tuneReportJson(const std::vector<TuneResult> &results);

/** Human-readable report; layout mirrors staticLintReportText. */
std::string tuneReportText(const std::vector<TuneResult> &results,
                           bool verbose);

/**
 * Project tune results onto LintEntry records so
 * baselineJson / checkAgainstBaseline apply verbatim: one
 * tune-opportunity diagnostic per kernel whose best configuration
 * improves on the shipped one.
 */
std::vector<LintEntry>
tuneToLintEntries(const std::vector<TuneResult> &results);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_PREDICT_TUNE_REPORT_H
