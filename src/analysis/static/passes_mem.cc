/**
 * @file
 * Memory-shape passes: symbolic stride / footprint analysis over the
 * IR's access provenance (memStream / memOffset / memBytes). None of
 * these rules needs the IssueTrace; the IR adds loop context (which
 * loop walks the stream, at what affine stride) to the messages and
 * fix hints.
 */

#include <map>

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

/** "in loop #k (body N instrs, T trips)" or "" outside loops. */
std::string
loopContext(const StaticIr &ir, std::size_t index)
{
    const Loop *loop = ir.innermostLoopAt(index);
    if (loop == nullptr)
        return "";
    return strfmt(" in loop #%d (body %zu instrs, %lld trips)",
                  static_cast<int>(loop->id), loop->bodyLength,
                  static_cast<long long>(loop->tripCount));
}

} // namespace

void
passNarrowAccess(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    const Bytes granule = ctx.params.granule;
    struct Group
    {
        std::int64_t first = -1;
        int count = 0;
        Bytes wasted = 0;
        tpc::Slot slot = tpc::Slot::Load;
    };
    // One finding per distinct (label, size) call-site shape.
    std::map<std::pair<std::int16_t, Bytes>, Group> groups;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (!tpc::isGlobalMemAccess(instr) || instr.memBytes >= granule)
            continue;
        Group &g = groups[{instr.opLabel, instr.memBytes}];
        if (g.first < 0) {
            g.first = static_cast<std::int64_t>(i);
            g.slot = instr.slot;
        }
        g.count++;
        g.wasted += granule - instr.memBytes;
    }
    for (const auto &[key, g] : groups) {
        const Bytes bytes = key.second;
        const double waste_frac =
            1.0 - static_cast<double>(bytes) /
                      static_cast<double>(granule);
        Diagnostic d;
        d.rule = rules::narrowAccess;
        d.severity = Severity::Warning;
        d.instrIndex = g.first;
        d.opLabel = program.label(key.first);
        d.wastedBytes = g.wasted;
        d.costCycles = g.count *
                       ctx.params.memIssueIntervalCycles *
                       waste_frac;
        d.message = strfmt(
            "%d global %s access%s of %llu B each%s, below the %llu B "
            "granularity: %.0f%% of the bus traffic is discarded",
            g.count, slotName(g.slot), g.count == 1 ? "" : "es",
            static_cast<unsigned long long>(bytes),
            loopContext(ctx.ir, static_cast<std::size_t>(g.first))
                .c_str(),
            static_cast<unsigned long long>(granule),
            100.0 * waste_frac);
        d.fixHint = strfmt(
            "widen the access to the %llu B granule or batch "
            "neighbouring elements into one load/store",
            static_cast<unsigned long long>(granule));
        ctx.sink.add(std::move(d));
    }
}

void
passRandomShouldStream(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    struct Run
    {
        std::int64_t first = -1;
        int length = 0;
    };
    struct StreamState
    {
        std::int64_t nextOffset = -1;
        Run current;
        Run best;
        int sequential = 0;
    };
    // Sequential-run analysis over the IR's per-stream offsets.
    std::map<std::uint32_t, StreamState> streams;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (!tpc::isGlobalMemAccess(instr) ||
            instr.access != tpc::Access::Random ||
            instr.memOffset < 0 || instr.memStream == 0) {
            continue;
        }
        StreamState &st = streams[instr.memStream];
        if (st.nextOffset == instr.memOffset && st.current.length > 0) {
            st.current.length++;
            st.sequential++;
        } else {
            if (st.current.length > st.best.length)
                st.best = st.current;
            st.current = {static_cast<std::int64_t>(i), 1};
        }
        st.nextOffset =
            instr.memOffset + static_cast<std::int64_t>(instr.memBytes);
    }
    for (auto &[id, st] : streams) {
        if (st.current.length > st.best.length)
            st.best = st.current;
        if (st.best.length < kMinSequentialRun)
            continue;
        const auto first_index =
            static_cast<std::size_t>(st.best.first);
        const tpc::Instr &first = program.instrs()[first_index];
        // Symbolic confirmation: when the run sits in a recovered
        // loop whose stride analysis proved the walk affine and
        // contiguous, say so — the fix is then provably safe.
        std::string affine_note;
        if (const Loop *loop = ctx.ir.innermostLoopAt(first_index)) {
            for (const AffineAccess &a : loop->accesses) {
                if (a.stream == id && a.affine &&
                    a.stride ==
                        static_cast<std::int64_t>(a.bytes)) {
                    affine_note = strfmt(
                        "; loop #%d walks it at a provably affine "
                        "+%lld B/trip stride",
                        static_cast<int>(loop->id),
                        static_cast<long long>(a.stride));
                    break;
                }
            }
        }
        const int saved = ctx.params.loadLatencyRandom -
                          ctx.params.loadLatencyStream;
        Diagnostic d;
        d.rule = rules::randomShouldStream;
        d.severity = Severity::Warning;
        d.instrIndex = st.best.first;
        d.opLabel = program.label(first.opLabel);
        d.costCycles = static_cast<double>(st.best.length) * saved;
        d.message = strfmt(
            "%d Random-tagged accesses on stream #%u walk sequential "
            "addresses (longest run %d)%s",
            st.sequential + 1, id, st.best.length,
            affine_note.c_str());
        d.fixHint = strfmt(
            "tag the access Access::Stream so hardware prefetch "
            "applies, saving up to %d cycles of latency per access",
            saved);
        ctx.sink.add(std::move(d));
    }
}

void
passDeadValue(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    struct Group
    {
        std::int64_t first = -1;
        int count = 0;
        bool isLoad = false;
    };
    std::map<std::int16_t, Group> groups;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (instr.dst < 0 ||
            !ctx.ir.users[static_cast<std::size_t>(instr.dst)].empty())
            continue;
        Group &g = groups[instr.opLabel];
        if (g.first < 0) {
            g.first = static_cast<std::int64_t>(i);
            g.isLoad = instr.slot == tpc::Slot::Load ||
                       (instr.slot == tpc::Slot::Scalar &&
                        instr.memBytes > 0);
        }
        g.count++;
    }
    for (const auto &[label, g] : groups) {
        Diagnostic d;
        d.rule = rules::deadValue;
        d.severity = g.isLoad ? Severity::Info : Severity::Warning;
        d.instrIndex = g.first;
        d.opLabel = program.label(label);
        d.message = strfmt(
            "%d %s result%s with an empty use list%s", g.count,
            program.label(label).empty() ? "instruction"
                                         : program.label(label).c_str(),
            g.count == 1 ? "" : "s",
            g.isLoad ? " (prefetch staging, or a wasted load)"
                     : " — dead compute occupies a VLIW slot for "
                       "nothing");
        d.fixHint = g.isLoad
                        ? "drop the load, or consume it — prefetch "
                          "staging should feed a later iteration"
                        : "delete the computation or store its result";
        ctx.sink.add(std::move(d));
    }
}

void
passRedundantReload(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    struct StreamState
    {
        std::map<std::pair<std::int64_t, Bytes>, int> loads;
        Bytes uniqueBytes = 0;
        Bytes reloadedBytes = 0;
        int reloads = 0;
        std::int64_t firstReload = -1;
        std::int16_t label = -1;
    };
    std::map<std::uint32_t, StreamState> streams;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (instr.slot != tpc::Slot::Load ||
            !tpc::isGlobalMemAccess(instr) || instr.memOffset < 0 ||
            instr.memStream == 0) {
            continue;
        }
        StreamState &st = streams[instr.memStream];
        int &count = st.loads[{instr.memOffset, instr.memBytes}];
        if (count == 0) {
            st.uniqueBytes += instr.memBytes;
        } else {
            st.reloadedBytes += instr.memBytes;
            st.reloads++;
            if (st.firstReload < 0) {
                st.firstReload = static_cast<std::int64_t>(i);
                st.label = instr.opLabel;
            }
        }
        count++;
    }
    for (const auto &[id, st] : streams) {
        if (st.reloads == 0)
            continue;
        const bool fits =
            st.uniqueBytes <= tpc::kLocalMemoryBytes;
        Diagnostic d;
        d.rule = rules::redundantReload;
        d.severity = fits ? Severity::Warning : Severity::Info;
        d.instrIndex = st.firstReload;
        d.opLabel = program.label(st.label);
        d.wastedBytes = st.reloadedBytes;
        d.costCycles =
            static_cast<double>(
                (st.reloadedBytes + ctx.params.granule - 1) /
                ctx.params.granule) *
            ctx.params.memIssueIntervalCycles;
        d.message = strfmt(
            "%d loads re-read %llu B already loaded from stream #%u "
            "(unique working set %llu B %s the %llu B local memory)",
            st.reloads,
            static_cast<unsigned long long>(st.reloadedBytes), id,
            static_cast<unsigned long long>(st.uniqueBytes),
            fits ? "fits in" : "exceeds",
            static_cast<unsigned long long>(
                tpc::kLocalMemoryBytes));
        d.fixHint = fits
                        ? "stage the reused block once in local memory"
                        : "tile the working set through local memory";
        ctx.sink.add(std::move(d));
    }
}

void
passLocalOverflow(PassContext &ctx)
{
    const tpc::Program &program = *ctx.ir.program;
    Bytes high_water = 0;
    std::int64_t worst = -1;
    std::int16_t label = -1;
    for (std::size_t i = 0; i < program.instrs().size(); i++) {
        const tpc::Instr &instr = program.instrs()[i];
        if (instr.access != tpc::Access::Local || instr.memOffset < 0)
            continue;
        const Bytes end =
            static_cast<Bytes>(instr.memOffset) + instr.memBytes;
        if (end > high_water) {
            high_water = end;
            worst = static_cast<std::int64_t>(i);
            label = instr.opLabel;
        }
    }
    ctx.report.report.localBytesUsed = high_water;
    if (high_water == 0)
        return;
    const double frac =
        static_cast<double>(high_water) /
        static_cast<double>(tpc::kLocalMemoryBytes);
    if (frac <= 0.9)
        return;
    Diagnostic d;
    d.rule = rules::localOverflow;
    d.severity = frac > 1.0 ? Severity::Error : Severity::Warning;
    d.instrIndex = worst;
    d.opLabel = program.label(label);
    d.wastedBytes = high_water > tpc::kLocalMemoryBytes
                        ? high_water - tpc::kLocalMemoryBytes
                        : 0;
    d.message = strfmt(
        "local-memory working set %llu B %s the %llu B capacity "
        "(%.0f%%)",
        static_cast<unsigned long long>(high_water),
        frac > 1.0 ? "exceeds" : "approaches",
        static_cast<unsigned long long>(tpc::kLocalMemoryBytes),
        100.0 * frac);
    d.fixHint = frac > 1.0
                    ? "the kernel would fault on hardware; tile the "
                      "staging buffer"
                    : "leave headroom or spills will follow the next "
                      "shape bump";
    ctx.sink.add(std::move(d));
}

} // namespace vespera::analysis
