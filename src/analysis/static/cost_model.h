/**
 * @file
 * Static cost model: per-kernel issue cycles and roofline bounds from
 * the lifted SSA IR.
 *
 * The issue schedule is tpc::scheduleIssue's — the one TPC issue loop
 * (in-order issue, one instruction per VLIW slot per cycle, result
 * latencies from tpc::resultLatency, a global-memory interface moving
 * whole granules at a bounded rate) — without the simulator's
 * telemetry. The model adds the per-cause stall sums the passes read
 * and three analytic lower bounds — dependence height, busiest-slot
 * resource bound, and memory-interface bound — whose max is the
 * roofline no schedule can beat; the gap between the scheduled cycles
 * and that max is the statically-visible optimization headroom.
 */

#ifndef VESPERA_ANALYSIS_STATIC_COST_MODEL_H
#define VESPERA_ANALYSIS_STATIC_COST_MODEL_H

#include <vector>

#include "analysis/static/ir.h"
#include "tpc/pipeline.h"

namespace vespera::analysis {

/** The static schedule and its cycle prediction. */
struct StaticSchedule
{
    /// Per-instruction issue records, indexed like the program.
    std::vector<tpc::IssuedInstr> instrs;
    /// Predicted total issue cycles.
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
