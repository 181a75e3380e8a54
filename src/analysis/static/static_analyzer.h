/**
 * @file
 * Pre-execution static analyzer over recorded TPC kernel traces: the
 * one kernel rule engine.
 *
 * analyzeProgramStatic lifts the trace to SSA IR
 * (analysis/static/ir.h), runs dataflow passes over that IR, and
 * predicts issue cycles with the static cost model
 * (analysis/static/cost_model.h), which runs the simulator's issue
 * schedule without its telemetry. analyzeProgram (analysis/analyzer.h)
 * runs only the passes of the rules declared there and adds the
 * simulator's measured cycles. Two passes are static-only:
 * register-pressure (live-range analysis against the TPC local-memory
 * budget) and swp-opportunity (loops whose achieved initiation
 * interval trails their recurrence/resource bound, i.e. software
 * pipelining would pay); the migration-aware passes fire on ported
 * traces only.
 */

#ifndef VESPERA_ANALYSIS_STATIC_STATIC_ANALYZER_H
#define VESPERA_ANALYSIS_STATIC_STATIC_ANALYZER_H

#include "analysis/analyzer.h"
#include "analysis/static/cost_model.h"
#include "analysis/static/ir.h"

namespace vespera::analysis {

namespace rules {
/// Peak live SSA state near/over the TPC local-memory budget
/// (static-only: live-range analysis).
inline constexpr const char *registerPressure = "register-pressure";
/// Loop whose achieved initiation interval exceeds its
/// recurrence/resource lower bound: software pipelining would pay
/// (static-only).
inline constexpr const char *swpOpportunity = "swp-opportunity";

/// @name Migration-aware rules (ported "port:*"-labelled traces only).
/// @{
/// Predicated CUDA lanes emulated with mask + select instructions.
inline constexpr const char *divergenceEmulation =
    "divergence-emulation";
/// Warp accesses that lost coalescing in the port: shattered into
/// per-lane transactions, or vectorized below the TPC granule.
inline constexpr const char *coalescingLoss = "coalescing-loss";
/// __shared__ staging of unmodified global loads, ported verbatim.
inline constexpr const char *stagingRedundancy = "staging-redundancy";
/// Thread-order issue exposing latencies the GPU's warp scheduler
/// hid; strip-level software pipelining would recover them.
inline constexpr const char *loweredPipelining = "lowered-pipelining";
/// @}
} // namespace rules

/** Everything the static pipeline learned about one trace. */
struct StaticReport
{
    /// Diagnostics / per-rule summaries / slot counts, in the same
    /// shape analyzeProgram emits (predictedStallCycles and the
    /// per-cause stalls come from the cost model; measuredStallCycles
    /// stays 0 — no simulator replay).
    Report report;
    /// The full static schedule (per-instruction issue prediction).
    StaticSchedule schedule;

    /// @name IR shape.
    /// @{
    std::size_t blockCount = 0;
    std::size_t loopCount = 0;
    int maxLoopDepth = 0;
    /// @}

    /// @name Live-range analysis results.
    /// @{
    std::uint64_t maxLiveValues = 0;
    Bytes peakLiveBytes = 0;
    /// @}

    /// Predicted issue cycles (schedule.cycles).
    double predictedCycles() const { return schedule.cycles; }
};

/** Analyze one recorded trace with every static pass. Never calls
 *  tpc::evaluatePipeline, so the tpc.* counters do not move. */
StaticReport
analyzeProgramStatic(const tpc::Program &program,
                     const StaticAnalyzerOptions &options = {});

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_STATIC_STATIC_ANALYZER_H
