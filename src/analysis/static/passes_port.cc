/**
 * @file
 * Migration-aware passes: explain why a CUDA kernel lowered by
 * port::lowerAndRun trails its hand-written TPC-C counterpart.
 *
 * The port layer labels every instruction it emits with a "port:*" tag
 * naming the lowering decision that produced it (port:pred-mask,
 * port:ld-shatter, port:shared-st, ...). These passes read those tags
 * and attribute the ported program's overhead to the CUDA idiom that
 * caused it — SIMT divergence emulated with mask/select, coalesced
 * warp accesses shattered into per-lane transactions, shared-memory
 * staging that is redundant on a TPC, and thread-order issue that
 * forfeits the latency hiding the GPU's warp scheduler provided.
 * Every pass no-ops on programs without port labels, so hand-written
 * kernel findings are untouched.
 */

#include <algorithm>
#include <map>
#include <string_view>

#include "analysis/static/passes.h"
#include "common/logging.h"

namespace vespera::analysis {

namespace {

bool
isPortLabel(std::string_view label)
{
    return label.rfind("port:", 0) == 0;
}

/** True when the trace was emitted by the CUDA->TPC port layer. */
bool
isPortedProgram(const tpc::Program &program)
{
    return std::any_of(
        program.labels().begin(), program.labels().end(),
        [](const std::string &l) { return isPortLabel(l); });
}

bool
hasLabel(const tpc::Program &program, const tpc::Instr &instr,
         std::string_view label)
{
    return program.label(instr.opLabel) == label;
}

/** Issue + stall cycles the schedule charged to instruction i. */
double
instrCycles(const StaticSchedule &schedule, std::size_t i)
{
    if (i >= schedule.instrs.size())
        return 1.0;
    return 1.0 + schedule.instrs[i].stallCycles;
}

} // namespace

void
passDivergenceEmulation(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    if (!isPortedProgram(program))
        return;
    int masks = 0, blends = 0;
    double cost = 0;
    std::int64_t first = -1;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        const bool mask = hasLabel(program, instr, "port:pred-mask");
        const bool blendI =
            hasLabel(program, instr, "port:pred-blend");
        if (!mask && !blendI)
            continue;
        if (first < 0)
            first = static_cast<std::int64_t>(i);
        masks += mask ? 1 : 0;
        blends += blendI ? 1 : 0;
        cost += instrCycles(ctx.schedule, i);
    }
    if (masks + blends == 0)
        return;
    Diagnostic d;
    d.rule = rules::divergenceEmulation;
    d.severity = Severity::Warning;
    d.instrIndex = first;
    d.opLabel = blends > 0 ? "port:pred-blend" : "port:pred-mask";
    d.costCycles = cost;
    d.message = strfmt(
        "SIMT divergence emulated in software: %d mask and %d "
        "blend/merge instructions (predicated CUDA lanes have no TPC "
        "branch equivalent, so every divergent path executes and "
        "merges by select)",
        masks, blends);
    d.fixHint = "restructure the kernel branch-free (fold the "
                "predicate into arithmetic, pad the data layout) or "
                "keep predicates strip-uniform so whole strips skip "
                "the path";
    ctx.sink.add(std::move(d));
}

void
passCoalescingLoss(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    if (!isPortedProgram(program))
        return;
    const Bytes granule = ctx.params.granule;

    // Flavor 1: warp accesses the lowering had to shatter into
    // per-lane transactions (strided / data-dependent addressing).
    struct Shatter
    {
        std::int64_t first = -1;
        int count = 0;
        Bytes wasted = 0;
        int randoms = 0;
    };
    std::map<std::int16_t, Shatter> shattered;
    // Flavor 2: warp-wide accesses that stayed vectorized but fill
    // only part of the granule (warpSize * 4 B < granule).
    struct Narrow
    {
        std::int64_t first = -1;
        int count = 0;
        Bytes wasted = 0;
        Bytes bytes = 0;
    };
    std::map<std::int16_t, Narrow> narrow;

    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (!tpc::isGlobalMemAccess(instr))
            continue;
        const std::string &label = program.label(instr.opLabel);
        if (label == "port:ld-shatter" ||
            label == "port:st-shatter") {
            Shatter &s = shattered[instr.opLabel];
            if (s.first < 0)
                s.first = static_cast<std::int64_t>(i);
            s.count++;
            s.wasted += granule > instr.memBytes
                            ? granule - instr.memBytes
                            : 0;
            s.randoms += instr.access == tpc::Access::Random ? 1 : 0;
        } else if ((label == "port:ld-warp" ||
                    label == "port:st-warp" ||
                    label == "port:ld-uniform") &&
                   instr.memBytes < granule) {
            Narrow &n = narrow[instr.opLabel];
            if (n.first < 0) {
                n.first = static_cast<std::int64_t>(i);
                n.bytes = instr.memBytes;
            }
            n.count++;
            n.wasted += granule - instr.memBytes;
        }
    }

    for (const auto &[label, s] : shattered) {
        Diagnostic d;
        d.rule = rules::coalescingLoss;
        d.severity = Severity::Warning;
        d.instrIndex = s.first;
        d.opLabel = program.label(label);
        d.wastedBytes = s.wasted;
        d.costCycles = static_cast<double>(s.count) *
                       ctx.params.memIssueIntervalCycles;
        d.message = strfmt(
            "%d warp access%s lost coalescing in the port: the lane "
            "addresses are not unit-stride, so each became a per-lane "
            "4 B transaction (%d of them full-latency random)",
            s.count, s.count == 1 ? "" : "es", s.randoms);
        d.fixHint = strfmt(
            "re-lay the data so consecutive lanes touch consecutive "
            "addresses (the CUDA coalescing rule is the TPC "
            "vectorization rule), letting one %llu B vector access "
            "replace the lane transactions",
            static_cast<unsigned long long>(granule));
        ctx.sink.add(std::move(d));
    }
    for (const auto &[label, n] : narrow) {
        Diagnostic d;
        d.rule = rules::coalescingLoss;
        d.severity = Severity::Info;
        d.instrIndex = n.first;
        d.opLabel = program.label(label);
        d.wastedBytes = n.wasted;
        d.costCycles = static_cast<double>(n.count) *
                       ctx.params.memIssueIntervalCycles *
                       (1.0 - static_cast<double>(n.bytes) /
                                  static_cast<double>(granule));
        d.message = strfmt(
            "%d warp-wide access%s of %llu B each: a 32-lane CUDA "
            "warp fills only part of the %llu B TPC granule",
            n.count, n.count == 1 ? "" : "es",
            static_cast<unsigned long long>(n.bytes),
            static_cast<unsigned long long>(granule));
        d.fixHint = "lower with LowerOptions::warpsPerStrip = 2 to "
                    "fuse two warps into one full-granule strip";
        ctx.sink.add(std::move(d));
    }
}

void
passStagingRedundancy(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    if (!isPortedProgram(program))
        return;
    bool any_shared_load = false;
    for (const tpc::Instr &instr : program.instrs())
        if (hasLabel(program, instr, "port:shared-ld"))
            any_shared_load = true;
    if (!any_shared_load)
        return;

    // Shared stores whose stored value is exactly a global load's
    // result: the classic CUDA staging idiom (global -> shared ->
    // consume), redundant on a TPC where the loaded vector is already
    // register-resident.
    int staged = 0;
    Bytes bytes = 0;
    std::int64_t first = -1;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (!hasLabel(program, instr, "port:shared-st") ||
            instr.slot != tpc::Slot::Store || instr.src0 < 0)
            continue;
        const auto value = static_cast<std::size_t>(instr.src0);
        if (value >= ctx.ir.defIndex.size())
            continue;
        const std::int64_t def = ctx.ir.defIndex[value];
        if (def < 0)
            continue;
        const tpc::Instr &producer =
            program.instrs()[static_cast<std::size_t>(def)];
        if (producer.slot != tpc::Slot::Load ||
            !tpc::isGlobalMemAccess(producer))
            continue;
        if (first < 0)
            first = static_cast<std::int64_t>(i);
        staged++;
        bytes += instr.memBytes;
    }
    if (staged == 0)
        return;
    Diagnostic d;
    d.rule = rules::stagingRedundancy;
    d.severity = Severity::Info;
    d.instrIndex = first;
    d.opLabel = "port:shared-st";
    d.wastedBytes = 2 * bytes; // Written once, read back once.
    d.costCycles = 2.0 * static_cast<double>(staged) *
                   ctx.params.loadLatencyLocal;
    d.message = strfmt(
        "%d shared-memory store%s stage unmodified global-load "
        "results (__shared__ tiling ported verbatim): on a TPC the "
        "loaded vector is already register-resident, so the local "
        "round-trip of %llu B buys nothing",
        staged, staged == 1 ? "" : "s",
        static_cast<unsigned long long>(bytes));
    d.fixHint = "forward the loaded value directly to its consumers "
                "and drop the __shared__ tile (keep local memory for "
                "genuinely reused or transposed data)";
    ctx.sink.add(std::move(d));
}

void
passLoweredPipelining(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    if (!isPortedProgram(program))
        return;
    if (ctx.schedule.cycles <= 0)
        return;
    const double frac =
        ctx.schedule.dependencyStallCycles / ctx.schedule.cycles;
    if (frac < kPortStallFrac)
        return;
    // Anchor the finding at the worst dependency stall.
    std::int64_t worst = -1;
    double worst_stall = 0;
    for (std::size_t i = 0; i < ctx.schedule.instrs.size(); i++) {
        const tpc::IssuedInstr &s = ctx.schedule.instrs[i];
        if (s.cause == tpc::StallCause::Dependency &&
            s.stallCycles > worst_stall) {
            worst_stall = s.stallCycles;
            worst = static_cast<std::int64_t>(i);
        }
    }
    Diagnostic d;
    d.rule = rules::loweredPipelining;
    d.severity = Severity::Warning;
    d.instrIndex = worst;
    if (worst >= 0) {
        const tpc::Instr &instr =
            program.instrs()[static_cast<std::size_t>(worst)];
        d.opLabel = program.label(instr.opLabel);
    }
    d.costCycles = ctx.schedule.dependencyStallCycles;
    d.message = strfmt(
        "%.0f%% of issue cycles stall on dependences: the port "
        "replays each CUDA thread's chain in order, losing the "
        "latency hiding the GPU's warp scheduler provided for free",
        100.0 * frac);
    d.fixHint = "re-lower with LowerOptions::stripUnroll >= 4 so "
                "independent strips interleave and hide the "
                "load/vector latencies (software pipelining)";
    ctx.sink.add(std::move(d));
}

} // namespace vespera::analysis
