#include "analysis/static/static_analyzer.h"

#include "analysis/static/passes.h"
#include "common/logging.h"
#include "obs/counters.h"

namespace vespera::analysis {

namespace {

/** Emit one Error diagnostic per SSA violation. */
void
reportViolations(const StaticIr &ir, DiagnosticSink &sink)
{
    const tpc::Program &program = *ir.program;
    for (const SsaViolation &v : ir.violations) {
        const tpc::Instr &instr = program.instrs()[v.instrIndex];
        Diagnostic d;
        d.rule = rules::invalidSsa;
        d.severity = Severity::Error;
        d.instrIndex = static_cast<std::int64_t>(v.instrIndex);
        d.opLabel = program.label(instr.opLabel);
        switch (v.kind) {
          case SsaViolation::Kind::UseBeforeDef:
            d.message = strfmt("source value v%d used before its "
                               "definition",
                               static_cast<int>(v.value));
            d.fixHint = "record the producing instruction before its "
                        "consumer";
            break;
          case SsaViolation::Kind::UseOutOfRange:
            d.message = strfmt("source value v%d used but never "
                               "allocated",
                               static_cast<int>(v.value));
            d.fixHint = "allocate SSA ids through Program::newValue";
            break;
          case SsaViolation::Kind::Redefinition:
            d.message = strfmt("destination value v%d redefined (SSA "
                               "requires fresh ids)",
                               static_cast<int>(v.value));
            d.fixHint = "every definition needs a fresh SSA id";
            break;
          case SsaViolation::Kind::DefOutOfRange:
            d.message = strfmt("destination value v%d out of range "
                               "(SSA requires fresh ids)",
                               static_cast<int>(v.value));
            d.fixHint = "allocate SSA ids through Program::newValue";
            break;
        }
        sink.add(std::move(d));
    }
}

void
exportRuleCounters(const Report &report,
                   const StaticAnalyzerOptions &options)
{
    if (!options.exportCounters)
        return;
    obs::CounterRegistry &reg = obs::CounterRegistry::instance();
    reg.counter("analysis.static.programs").add(1.0);
    for (const auto &[rule, summary] : report.rules) {
        reg.counter(std::string("analysis.static.diag.") + rule)
            .add(summary.count);
    }
}

} // namespace

StaticReport
analyzeProgramStatic(const tpc::Program &program,
                     const StaticAnalyzerOptions &options)
{
    StaticReport out;
    Report &report = out.report;
    report.kernel = program.kernelName();
    report.instructions = program.instrs().size();
    for (const tpc::Instr &instr : program.instrs())
        report.slotCounts[static_cast<std::size_t>(instr.slot)]++;
    DiagnosticSink sink(report, options.maxDiagnosticsPerRule);

    LiftOptions lift;
    lift.maxLoopPeriod = options.maxLoopPeriod;
    lift.maxLoopNesting = options.maxLoopNesting;
    const StaticIr ir = liftProgram(program, lift);
    if (!ir.valid()) {
        // Malformed traces get the SSA errors and nothing else — the
        // cost model (like the pipeline replay) indexes ready-time
        // state by value id and must not run on them.
        reportViolations(ir, sink);
        exportRuleCounters(report, options);
        return out;
    }

    out.blockCount = ir.blocks.size();
    out.loopCount = ir.loops.size();
    out.maxLoopDepth = ir.maxLoopDepth();

    out.schedule = scheduleStatic(ir, options.params);
    report.cycles = out.schedule.cycles;
    report.predictedStallCycles = out.schedule.stallCycles;
    report.dependencyStallCycles =
        out.schedule.dependencyStallCycles;
    report.memoryStallCycles = out.schedule.memoryStallCycles;
    report.slotStallCycles = out.schedule.slotStallCycles;
    report.drainStallCycles = out.schedule.drainStallCycles;
    report.criticalPathCycles = out.schedule.criticalPathBound;
    // measuredStallCycles stays 0: nothing was measured.

    PassContext ctx{ir, out.schedule, options, out, sink};
    passExposedLatency(ctx);
    passNarrowAccess(ctx);
    passRandomShouldStream(ctx);
    passSlotImbalance(ctx);
    passDeadValue(ctx);
    passRedundantReload(ctx);
    passLocalOverflow(ctx);
    passRegisterPressure(ctx);
    passSwpOpportunity(ctx);
    passDivergenceEmulation(ctx);
    passCoalescingLoss(ctx);
    passStagingRedundancy(ctx);
    passLoweredPipelining(ctx);

    exportRuleCounters(report, options);
    return out;
}

} // namespace vespera::analysis
