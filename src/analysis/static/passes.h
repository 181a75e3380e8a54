/**
 * @file
 * Dataflow passes over the lifted SSA IR.
 *
 * Each pass implements one kernel lint rule from the IR and the
 * static schedule alone. The passes for the rules declared in
 * analysis/analyzer.h also supply analyzeProgram's findings; the two
 * static-only passes (register-pressure, swp-opportunity) reason
 * about structure the pipeline replay does not expose.
 */

#ifndef VESPERA_ANALYSIS_STATIC_PASSES_H
#define VESPERA_ANALYSIS_STATIC_PASSES_H

#include <span>

#include "analysis/static/static_analyzer.h"

namespace vespera::analysis {

/// @name Rule thresholds.
/// @{
/// Predicted dependency stall (cycles) below which no exposed-latency
/// diagnostic is emitted.
inline constexpr double kMinStallCycles = 3.0;
/// Minimum run of address-sequential random accesses to flag
/// (random-should-stream).
inline constexpr int kMinSequentialRun = 4;
/// Peak live bytes / local memory above which register-pressure
/// reports Info resp. Warning.
inline constexpr double kRegisterPressureInfoFrac = 0.5;
inline constexpr double kRegisterPressureWarnFrac = 0.9;
/// Achieved II must exceed bound * this factor to flag SWP ...
inline constexpr double kSwpGapFactor = 1.2;
/// ... and the projected saving must reach this many cycles.
inline constexpr double kSwpMinSavedCycles = 16;
/// Dependency-stall fraction of total cycles at or above which
/// lowered-pipelining fires on a ported program.
inline constexpr double kPortStallFrac = 0.10;
/// @}

/** Collects findings into a StaticReport, enforcing the per-rule
 *  emission cap (the per-rule RuleSummary still counts everything). */
class DiagnosticSink
{
  public:
    explicit DiagnosticSink(Report &report) : report_(report) {}

    void
    add(Diagnostic d)
    {
        RuleSummary &s = report_.rules[d.rule];
        s.count++;
        s.costCycles += d.costCycles;
        s.wastedBytes += d.wastedBytes;
        if (s.count <= kMaxDiagnosticsPerRule) {
            d.kernel = report_.kernel;
            report_.diagnostics.push_back(std::move(d));
        }
    }

  private:
    Report &report_;
};

/** Everything a pass may read and write. */
struct PassContext
{
    const StaticIr &ir;
    const StaticSchedule &schedule;
    const tpc::TpcParams &params;
    StaticReport &report; ///< For side outputs (live ranges, ...).
    DiagnosticSink &sink;
};

/// @name The rules analyzeProgram reports.
/// @{
/// Dependence-height analysis: predicted dependency stalls exposing
/// the latency window (rules::exposedLatency).
void passExposedLatency(PassContext &ctx);
/// Sub-granule global accesses (rules::narrowAccess).
void passNarrowAccess(PassContext &ctx);
/// Random-tagged streams with affine, contiguous strides
/// (rules::randomShouldStream).
void passRandomShouldStream(PassContext &ctx);
/// Static VLIW packing: slot saturation / ILP starvation
/// (rules::slotImbalance).
void passSlotImbalance(PassContext &ctx);
/// SSA values with empty use lists (rules::deadValue).
void passDeadValue(PassContext &ctx);
/// Re-loaded (stream, offset, size) triples (rules::redundantReload).
void passRedundantReload(PassContext &ctx);
/// Local-memory high-water vs capacity (rules::localOverflow).
void passLocalOverflow(PassContext &ctx);
/// @}

/// @name Static-only passes.
/// @{
/// Live-range / register-pressure estimation against the TPC
/// local-memory budget (rules::registerPressure).
void passRegisterPressure(PassContext &ctx);
/// Software-pipelining opportunity detection over recovered loops
/// (rules::swpOpportunity).
void passSwpOpportunity(PassContext &ctx);
/// @}

/// @name Migration-aware passes (passes_port.cc). Each no-ops unless
/// the trace carries "port:*" labels from port::lowerAndRun, so
/// hand-written kernels keep their finding sets byte-identical.
/// @{
/// Mask/select divergence emulation (rules::divergenceEmulation).
void passDivergenceEmulation(PassContext &ctx);
/// Shattered or sub-granule warp accesses (rules::coalescingLoss).
void passCoalescingLoss(PassContext &ctx);
/// Verbatim __shared__ staging of global loads
/// (rules::stagingRedundancy).
void passStagingRedundancy(PassContext &ctx);
/// Thread-order issue vs strip software pipelining
/// (rules::loweredPipelining).
void passLoweredPipelining(PassContext &ctx);
/// @}

using Pass = void (*)(PassContext &ctx);

/// The passes for the rules analyzeProgram reports, in report order.
inline constexpr Pass kernelRulePasses[] = {
    passExposedLatency, passNarrowAccess,   passRandomShouldStream,
    passSlotImbalance,  passDeadValue,      passRedundantReload,
    passLocalOverflow,
};

/// Every pass, in report order: analyzeProgramStatic's list.
inline constexpr Pass allPasses[] = {
    passExposedLatency,      passNarrowAccess,
    passRandomShouldStream,  passSlotImbalance,
    passDeadValue,           passRedundantReload,
    passLocalOverflow,       passRegisterPressure,
    passSwpOpportunity,      passDivergenceEmulation,
    passCoalescingLoss,      passStagingRedundancy,
    passLoweredPipelining,
};

/**
 * Lift `program`, schedule it with the static cost model and run
 * `passes` in order. A malformed trace gets one invalid-ssa Error per
 * SSA violation and no schedule or pass. Publishes no counter.
 */
StaticReport runPasses(const tpc::Program &program,
                       std::span<const Pass> passes);

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_STATIC_PASSES_H
