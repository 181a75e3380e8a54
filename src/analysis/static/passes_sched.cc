/**
 * @file
 * Schedule-shape passes: dependence-height analysis (exposed latency),
 * static VLIW packing (slot imbalance), live-range / register-pressure
 * estimation, and software-pipelining opportunity detection. The first
 * two read the static schedule — the pipeline's own issue schedule
 * (tpc::scheduleIssue); the last two are static-only
 * (they need loop and live-range structure the IssueTrace does not
 * carry).
 */

#include <algorithm>
#include <array>

#include "analysis/static/passes.h"
#include "common/logging.h"

namespace vespera::analysis {

namespace {

const char *
slotName(tpc::Slot slot)
{
    switch (slot) {
      case tpc::Slot::Load:
        return "load";
      case tpc::Slot::Store:
        return "store";
      case tpc::Slot::Vector:
        return "vector";
      case tpc::Slot::Scalar:
        return "scalar";
    }
    return "?";
}

} // namespace

void
passExposedLatency(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    struct Candidate
    {
        std::size_t index;
        double stall;
        std::int32_t src;
    };
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < ctx.schedule.instrs.size(); i++) {
        const tpc::IssuedInstr &rec = ctx.schedule.instrs[i];
        if (rec.cause == tpc::StallCause::Dependency &&
            rec.stallCycles >= kMinStallCycles) {
            candidates.push_back({i, rec.stallCycles, rec.criticalSrc});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate &a, const Candidate &b) {
                  return a.stall > b.stall;
              });
    for (const Candidate &c : candidates) {
        const tpc::Instr &instr = program.instrs()[c.index];
        Diagnostic d;
        d.rule = rules::exposedLatency;
        d.severity = Severity::Warning;
        d.instrIndex = static_cast<std::int64_t>(c.index);
        d.opLabel = program.label(instr.opLabel);
        d.costCycles = c.stall;
        std::string producer = "an earlier value";
        if (c.src >= 0 &&
            ctx.ir.defIndex[static_cast<std::size_t>(c.src)] >= 0) {
            const auto def =
                ctx.ir.defIndex[static_cast<std::size_t>(c.src)];
            producer = strfmt(
                "v%d (%s @ %lld)", static_cast<int>(c.src),
                program
                    .label(program.instrs()[static_cast<std::size_t>(
                                                def)]
                               .opLabel)
                    .c_str(),
                static_cast<long long>(def));
        }
        std::string where;
        if (const Loop *loop = ctx.ir.innermostLoopAt(c.index)) {
            where = strfmt(" inside loop #%d",
                           static_cast<int>(loop->id));
        }
        d.message = strfmt(
            "predicted %.0f-cycle dependence stall waiting on %s%s; "
            "the chain is shorter than the %d-cycle latency window",
            c.stall, producer.c_str(), where.c_str(),
            ctx.params.vectorLatency);
        d.fixHint = "interleave independent work: unroll deeper or "
                    "rotate across more accumulators";
        ctx.sink.add(std::move(d));
    }
}

void
passSlotImbalance(PassContext &ctx)
{
    // Degenerate-trace guard: occupancy and stall fractions are
    // meaningless below two instructions.
    if (ctx.schedule.cycles <= 0 || ctx.ir.size() < 2)
        return;
    const tpc::Program &program = *ctx.ir.program;
    std::array<std::uint64_t, tpc::numSlots> slot_counts{};
    for (const tpc::Instr &instr : program.instrs())
        slot_counts[static_cast<std::size_t>(instr.slot)]++;

    double best_occ = 0;
    int best_slot = 0;
    for (int s = 0; s < tpc::numSlots; s++) {
        const double occ =
            static_cast<double>(
                slot_counts[static_cast<std::size_t>(s)]) /
            ctx.schedule.cycles;
        if (occ > best_occ) {
            best_occ = occ;
            best_slot = s;
        }
    }
    const double stall_frac =
        ctx.schedule.stallCycles / ctx.schedule.cycles;

    if (best_occ > 0.85) {
        std::string idle;
        for (int s = 0; s < tpc::numSlots; s++) {
            const double occ =
                static_cast<double>(
                    slot_counts[static_cast<std::size_t>(s)]) /
                ctx.schedule.cycles;
            if (s != best_slot && occ < 0.25 * best_occ) {
                if (!idle.empty())
                    idle += ", ";
                idle += slotName(static_cast<tpc::Slot>(s));
            }
        }
        if (!idle.empty()) {
            Diagnostic d;
            d.rule = rules::slotImbalance;
            d.severity = Severity::Info;
            d.message = strfmt(
                "static packing predicts the %s slot saturated "
                "(%.0f%% occupancy) while %s slot%s idle",
                slotName(static_cast<tpc::Slot>(best_slot)),
                100.0 * best_occ, idle.c_str(),
                idle.find(',') == std::string::npos ? " is"
                                                    : "s are");
            d.fixHint = strfmt(
                "move work across slots or accept the %s-bound "
                "roofline",
                slotName(static_cast<tpc::Slot>(best_slot)));
            ctx.sink.add(std::move(d));
        }
    } else if (stall_frac > 0.3 && best_occ < 0.5) {
        Diagnostic d;
        d.rule = rules::slotImbalance;
        d.severity = Severity::Warning;
        d.costCycles = ctx.schedule.stallCycles;
        d.message = strfmt(
            "no VLIW slot exceeds %.0f%% predicted occupancy while "
            "%.0f%% of cycles stall: the body exposes too little ILP",
            100.0 * best_occ, 100.0 * stall_frac);
        d.fixHint = "unroll deeper or add independent accumulator "
                    "chains";
        ctx.sink.add(std::move(d));
    }
}

void
passRegisterPressure(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    const auto &instrs = program.instrs();
    if (instrs.empty())
        return;

    // Live range of value v: [defIndex[v], last user]. Values with no
    // users die at their definition (still live for one point — the
    // producer must hold them somewhere).
    struct Event
    {
        std::size_t index;
        std::int64_t deltaValues;
        std::int64_t deltaBytes;
    };
    std::vector<Event> events;
    events.reserve(
        static_cast<std::size_t>(program.numValues()) * 2);
    for (std::size_t v = 0;
         v < static_cast<std::size_t>(program.numValues()); v++) {
        const std::int64_t def = ctx.ir.defIndex[v];
        if (def < 0)
            continue;
        std::int64_t last = def;
        if (!ctx.ir.users[v].empty())
            last = ctx.ir.users[v].back();
        const tpc::Instr &producer =
            instrs[static_cast<std::size_t>(def)];
        // A vector value occupies one 4-byte element per lane in the
        // register file / vector local memory; scalars one element.
        const auto bytes = static_cast<std::int64_t>(
            std::max<std::int64_t>(producer.lanes, 1) * 4);
        events.push_back(
            {static_cast<std::size_t>(def), 1, bytes});
        events.push_back(
            {static_cast<std::size_t>(last) + 1, -1, -bytes});
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.index != b.index)
                      return a.index < b.index;
                  return a.deltaValues < b.deltaValues; // Kills first.
              });

    std::int64_t live = 0, live_bytes = 0;
    std::int64_t peak = 0, peak_bytes = 0;
    std::size_t peak_index = 0;
    for (const Event &e : events) {
        live += e.deltaValues;
        live_bytes += e.deltaBytes;
        if (live_bytes > peak_bytes) {
            peak_bytes = live_bytes;
            peak = live;
            peak_index = e.index;
        }
    }
    ctx.report.maxLiveValues = static_cast<std::uint64_t>(peak);
    ctx.report.peakLiveBytes = static_cast<Bytes>(peak_bytes);

    const double frac =
        static_cast<double>(peak_bytes) /
        static_cast<double>(tpc::kLocalMemoryBytes);
    if (frac <= kRegisterPressureInfoFrac)
        return;
    const bool warn = frac > kRegisterPressureWarnFrac;
    Diagnostic d;
    d.rule = rules::registerPressure;
    d.severity = warn ? Severity::Warning : Severity::Info;
    d.instrIndex = static_cast<std::int64_t>(
        std::min(peak_index, instrs.size() - 1));
    d.opLabel = program.label(
        instrs[static_cast<std::size_t>(d.instrIndex)].opLabel);
    d.wastedBytes =
        static_cast<Bytes>(peak_bytes) > tpc::kLocalMemoryBytes
            ? static_cast<Bytes>(peak_bytes) -
                  tpc::kLocalMemoryBytes
            : 0;
    d.message = strfmt(
        "peak live SSA state is %lld values / %lld B, %.0f%% of the "
        "%llu B vector local memory",
        static_cast<long long>(peak),
        static_cast<long long>(peak_bytes), 100.0 * frac,
        static_cast<unsigned long long>(tpc::kLocalMemoryBytes));
    d.fixHint = warn ? "shorten live ranges (consume values sooner) "
                       "or tile before the allocator starts spilling"
                     : "live state is over half the budget; further "
                       "unrolling may spill";
    ctx.sink.add(std::move(d));
}

void
passSwpOpportunity(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    if (ctx.schedule.instrs.size() != program.instrs().size())
        return;
    // Child-bearing loops are pipelined by pipelining their inner
    // loops first; only analyze leaves.
    std::vector<char> has_child(ctx.ir.loops.size(), 0);
    for (const Loop &loop : ctx.ir.loops) {
        if (loop.parent >= 0)
            has_child[static_cast<std::size_t>(loop.parent)] = 1;
    }
    for (const Loop &loop : ctx.ir.loops) {
        if (has_child[static_cast<std::size_t>(loop.id)] ||
            loop.tripCount < 4 || loop.bodyLength < 2) {
            continue;
        }
        // Achieved initiation interval: issue-cycle distance between
        // the first instructions of the first and last iterations.
        const std::size_t first = loop.first;
        const std::size_t last_iter_first =
            loop.first +
            loop.bodyLength *
                static_cast<std::size_t>(loop.tripCount - 1);
        if (last_iter_first >= ctx.schedule.instrs.size())
            continue;
        const double achieved_ii =
            (ctx.schedule.instrs[last_iter_first].issueCycle -
             ctx.schedule.instrs[first].issueCycle) /
            static_cast<double>(loop.tripCount - 1);

        // Lower bounds no schedule beats: resource (busiest slot per
        // iteration; the memory interface's sustained rate) and
        // recurrence (the worst loop-carried latency).
        std::array<std::uint64_t, tpc::numSlots> body_slots{};
        std::uint64_t body_txns = 0;
        for (std::size_t i = first; i < first + loop.bodyLength; i++) {
            const tpc::Instr &instr = program.instrs()[i];
            body_slots[static_cast<std::size_t>(instr.slot)]++;
            if (tpc::isGlobalMemAccess(instr)) {
                body_txns += (instr.memBytes +
                              ctx.params.granule - 1) /
                             ctx.params.granule;
            }
        }
        double resource_ii = 0;
        for (std::uint64_t c : body_slots) {
            resource_ii =
                std::max(resource_ii, static_cast<double>(c));
        }
        resource_ii = std::max(
            resource_ii,
            static_cast<double>(body_txns) *
                ctx.params.memIssueIntervalCycles);
        const double bound =
            std::max(resource_ii, loop.recurrenceLatency());
        if (bound <= 0)
            continue;

        const double saved =
            (achieved_ii - bound) *
            static_cast<double>(loop.tripCount - 1);
        if (achieved_ii <= kSwpGapFactor * bound ||
            saved < kSwpMinSavedCycles) {
            continue;
        }
        Diagnostic d;
        d.rule = rules::swpOpportunity;
        d.severity = Severity::Info;
        d.instrIndex = static_cast<std::int64_t>(first);
        d.opLabel =
            program.label(program.instrs()[first].opLabel);
        d.costCycles = saved;
        d.message = strfmt(
            "loop #%d (%lld trips, %zu-instr body) achieves a "
            "%.1f-cycle initiation interval against a %.1f-cycle "
            "recurrence/resource bound: software pipelining could "
            "save ~%.0f cycles",
            static_cast<int>(loop.id),
            static_cast<long long>(loop.tripCount), loop.bodyLength,
            achieved_ii, bound, saved);
        d.fixHint = "overlap iterations: hoist next-trip loads above "
                    "this trip's compute (modulo-schedule the body)";
        ctx.sink.add(std::move(d));
    }
}

} // namespace vespera::analysis
