/**
 * @file
 * The CUDA->TPC migration scorecard (vespera-lint migrate).
 *
 * For every kernel in the migration corpus (port/corpus.h) the
 * scorecard answers the three questions a porting effort asks:
 *
 *  1. Is the port *correct*? The lowered program's outputs are
 *     compared element-wise against the lockstep CUDA reference
 *     interpreter (port/reference.h).
 *  2. How *fast* is it? The lowered program's simulated time is
 *     divided into the hand-written TPC-C comparator's time — the
 *     achieved fraction of hand performance — and contrasted with the
 *     A100 SIMT cost-model estimate.
 *  3. *Why* is it slow? The captured trace runs through the static
 *     analyzer, whose migration-aware passes (passes_port.cc)
 *     attribute the gap to the CUDA idiom that caused it, each with a
 *     concrete fix hint.
 *
 * Publishes port.kernels / port.parity_failures / port.findings
 * counters (serial capture path only; no dispatcher worker touches the
 * registry).
 */

#ifndef VESPERA_ANALYSIS_MIGRATE_SCORECARD_H
#define VESPERA_ANALYSIS_MIGRATE_SCORECARD_H

#include <string>
#include <vector>

#include "analysis/static/static_analyzer.h"
#include "port/corpus.h"

namespace vespera::analysis {

/// Max per-element relative error the parity check accepts (the
/// lowering is lane-exact in practice; the tolerance absorbs
/// reassociated reductions).
inline constexpr double kParityTolerance = 2e-3;

/** Scorecard options. */
struct MigrateOptions
{
    /// Publish port.* counters to obs::CounterRegistry.
    bool exportCounters = true;
};

/** One corpus kernel's migration outcome. */
struct MigrateEntry
{
    std::string kernel;
    std::string shape;
    /// What migration artifact the kernel exercises (from the corpus).
    std::string notes;

    /// @name Functional parity vs the CUDA reference interpreter.
    /// @{
    bool parity = false;
    double maxRelError = 0;
    /// @}

    /// @name Performance.
    /// @{
    Seconds portedTime = 0;
    /// Static cost model's predicted issue cycles for the trace.
    double portedCycles = 0;
    Seconds handTime = 0;
    /// handTime / portedTime: 1.0 = matches hand-written TPC-C.
    double achievedFraction = 0;
    Seconds a100Time = 0;
    /// portedTime / a100Time (informational; the paper's cross-ISA
    /// comparisons are throughput-normalized, this one is not).
    double slowdownVsA100 = 0;
    /// @}

    /// Full static analysis of the lowered trace (migration-aware
    /// findings included).
    StaticReport analysis;
};

/** Migrate one corpus entry: lower, run, check parity, time, analyze. */
MigrateEntry migrateKernel(const port::CorpusEntry &entry,
                           const MigrateOptions &options = {});

/** Run the whole corpus, in corpus order (deterministic). */
std::vector<MigrateEntry>
runMigrationCorpus(const MigrateOptions &options = {});

} // namespace vespera::analysis

#endif // VESPERA_ANALYSIS_MIGRATE_SCORECARD_H
