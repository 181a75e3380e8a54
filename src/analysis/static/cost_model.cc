#include "analysis/static/cost_model.h"

#include <algorithm>
#include <array>

#include "common/logging.h"

namespace vespera::analysis {

StaticSchedule
scheduleStatic(const StaticIr &ir, const tpc::TpcParams &params)
{
    vassert(ir.valid(), "cannot schedule IR with SSA violations");
    StaticSchedule sched;
    if (ir.program == nullptr || ir.program->empty())
        return sched;

    tpc::IssueTrace trace;
    const tpc::PipelineResult pr =
        tpc::scheduleIssue(*ir.program, params, &trace);
    sched.instrs = std::move(trace.instrs);
    sched.cycles = pr.cycles;
    sched.stallCycles = pr.stallCycles;
    sched.drainStallCycles = trace.drainStall;

    // Per-cause stall sums, plus the analytic roofline terms: the
    // longest def-use chain with unbounded resources, the busiest
    // slot's issue count, and the memory interface's total occupancy.
    const auto &instrs = ir.program->instrs();
    std::vector<double> finish(
        static_cast<std::size_t>(ir.program->numValues()), 0.0);
    std::array<std::uint64_t, tpc::numSlots> slot_count{};
    for (std::size_t i = 0; i < instrs.size(); i++) {
        const tpc::IssuedInstr &rec = sched.instrs[i];
        switch (rec.cause) {
          case tpc::StallCause::Dependency:
            sched.dependencyStallCycles += rec.stallCycles;
            break;
          case tpc::StallCause::Memory:
            sched.memoryStallCycles += rec.stallCycles;
            break;
          case tpc::StallCause::SlotBusy:
            sched.slotStallCycles += rec.stallCycles;
            break;
          case tpc::StallCause::None:
            break;
        }

        const tpc::Instr &instr = instrs[i];
        double start = 0;
        for (std::int32_t src : {instr.src0, instr.src1, instr.src2}) {
            if (src >= 0) {
                start = std::max(start,
                                 finish[static_cast<std::size_t>(src)]);
            }
        }
        const double done =
            start + std::max(tpc::resultLatency(instr, params), 1.0);
        if (instr.dst >= 0)
            finish[static_cast<std::size_t>(instr.dst)] = done;
        sched.criticalPathBound = std::max(sched.criticalPathBound, done);
        slot_count[static_cast<std::size_t>(instr.slot)]++;
        if (tpc::isGlobalMemAccess(instr)) {
            const std::uint64_t txns =
                (instr.memBytes + params.granule - 1) / params.granule;
            sched.memoryBound += static_cast<double>(txns) *
                                 params.memIssueIntervalCycles;
        }
    }
    for (std::uint64_t count : slot_count) {
        sched.slotResourceBound =
            std::max(sched.slotResourceBound, static_cast<double>(count));
    }
    return sched;
}

} // namespace vespera::analysis
