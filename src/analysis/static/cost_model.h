/**
 * @file
 * Static cost model: predicts per-kernel issue cycles from the lifted
 * SSA IR, before the cycle simulator runs.
 *
 * The model re-derives the TPC's issue discipline from first
 * principles over the IR — in-order issue, one instruction per VLIW
 * slot per cycle, result latencies from tpc::resultLatency, and a
 * global-memory interface moving whole granules at a bounded rate —
 * and schedules every IR instruction under those rules. It never
 * consults tpc::IssueTrace; the pipeline replay behind analyzeProgram
 * and this model are two independent predictors of the same machine,
 * and tests/analysis/test_static_cost.cc cross-validates them against
 * each other on every registered kernel (tolerance: ±10%; in practice
 * they agree to round-off, and any divergence is a bug in the
 * simulator or the model — that is the point of having both).
 *
 * Alongside the scheduled estimate the model reports three analytic
 * lower bounds — dependence height, busiest-slot resource bound, and
 * memory-interface bound — whose max is the roofline no schedule can
 * beat; the gap between the scheduled estimate and that max is the
 * statically-visible optimization headroom.
 */

#ifndef VESPERA_ANALYSIS_STATIC_COST_MODEL_H
#define VESPERA_ANALYSIS_STATIC_COST_MODEL_H

#include <vector>

#include "analysis/static/ir.h"
#include "tpc/pipeline.h"

namespace vespera::analysis {

/** Per-instruction outcome of the static schedule. */
struct ScheduledInstr
{
    double issueCycle = 0;
    double stallCycles = 0;
    tpc::StallCause cause = tpc::StallCause::None;
    /// Source value whose latency bound the issue (Dependency only).
    std::int32_t criticalSrc = -1;
};

/** The static schedule and its cycle prediction. */
struct StaticSchedule
{
    std::vector<ScheduledInstr> instrs;
    /// Predicted total issue cycles (the cross-validated number).
    double cycles = 0;
    double stallCycles = 0;
    double dependencyStallCycles = 0;
    double memoryStallCycles = 0;
    double slotStallCycles = 0;
    /// Result/memory drain past the last issue.
    double drainStallCycles = 0;

    /// @name Analytic lower bounds (roofline terms).
    /// @{
    /// Longest def-use chain height in cycles.
    double criticalPathBound = 0;
    /// Busiest VLIW slot: one issue per slot per cycle.
    double slotResourceBound = 0;
    /// Global-memory interface: granule transactions x issue interval.
    double memoryBound = 0;
    /// @}

    /// max(criticalPath, slotResource, memory) — the roofline.
    double lowerBound() const
    {
        double b = criticalPathBound;
        b = b > slotResourceBound ? b : slotResourceBound;
        b = b > memoryBound ? b : memoryBound;
        return b;
    }
};

/**
 * Schedule `ir` under the static machine model. The IR must be valid
 * (no SSA violations); an empty program yields an all-zero schedule.
 */
StaticSchedule scheduleStatic(const StaticIr &ir,
                              const tpc::TpcParams &params);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_STATIC_COST_MODEL_H
