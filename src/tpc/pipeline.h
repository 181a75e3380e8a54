/**
 * @file
 * VLIW timing model for a single TPC.
 *
 * Replays a recorded Program trace under the TPC's issue rules:
 * in-order issue, one instruction per VLIW slot per cycle, a 4-cycle
 * architectural latency on vector results (the paper's motivation for
 * loop unrolling), and a global-memory interface that moves data in
 * 256 B granules at a bounded per-TPC rate.
 */

#ifndef VESPERA_TPC_PIPELINE_H
#define VESPERA_TPC_PIPELINE_H

#include "common/types.h"
#include "hw/device_spec.h"
#include "tpc/program.h"

namespace vespera::tpc {

/** Microarchitectural parameters of the simulated TPC. */
struct TpcParams
{
    Hertz clock = 1.79e9;
    /// Architectural latency of vector-ALU results (paper: 4 cycles).
    int vectorLatency = 4;
    /// Latency of scalar-unit results.
    int scalarLatency = 2;
    /// Load-to-use latency for streaming global loads (prefetched).
    int loadLatencyStream = 6;
    /// Load-to-use latency for random global loads (full HBM round trip).
    int loadLatencyRandom = 130;
    /// Load-to-use latency for TPC-local memory.
    int loadLatencyLocal = 2;
    /// Sustained cycles per 256 B global-memory transaction per TPC.
    double memIssueIntervalCycles = 2.2;
    /// Minimum global access granularity.
    Bytes granule = 256;

    /** Parameters derived from the Gaudi-2 spec. */
    static TpcParams forGaudi2();
};

/** Timing outcome of one TPC's trace. */
struct PipelineResult
{
    double cycles = 0;
    Seconds time = 0;
    Flops flops = 0;
    /// Cycles in which no instruction issued (dependency latency,
    /// slot conflicts, or memory-interface backpressure) — the stat
    /// the paper's unrolling analysis is about.
    double stallCycles = 0;
    /// Instructions issued.
    std::uint64_t instructions = 0;
    /// Global bus bytes moved (payload rounded up to granules).
    Bytes busBytes = 0;
    /// Granule transactions issued by random accesses (bus traffic).
    std::uint64_t randomTxns = 0;
    /// Random accesses issued (scattered requests; each pays one DRAM
    /// activation regardless of how many granules it spans).
    std::uint64_t randomAccesses = 0;
    /// Little's-law estimate of this TPC's in-flight random requests.
    double memConcurrency = 0;
};

/** Why an instruction could not issue in the cycle after its
 *  predecessor (the constraint that set its issue time). */
enum class StallCause : std::uint8_t {
    None,       ///< Issued back-to-back; no stall.
    Dependency, ///< Waited on a source value's result latency.
    SlotBusy,   ///< Waited for its VLIW slot to free up.
    Memory,     ///< Waited on global-memory interface backpressure.
};

/** Per-instruction issue record (produced alongside PipelineResult). */
struct IssuedInstr
{
    double issueCycle = 0;    ///< Cycle the instruction issued.
    double stallCycles = 0;   ///< Idle cycles before this issue.
    StallCause cause = StallCause::None; ///< Binding constraint.
    /// Source value id whose ready time bound the issue (Dependency
    /// stalls only); -1 otherwise.
    std::int32_t criticalSrc = -1;
};

/**
 * Full issue schedule of one trace. `instrs[i]` corresponds to
 * `program.instrs()[i]`; the per-instruction stalls plus `drainStall`
 * sum exactly to PipelineResult::stallCycles, which is what lets the
 * analyzers attribute every stall cycle to a cause.
 */
struct IssueTrace
{
    std::vector<IssuedInstr> instrs;
    /// Result/memory drain time past the last issue (also stall).
    double drainStall = 0;
};

/**
 * Schedule the trace under the timing model: the one TPC issue loop
 * the simulator and the static analyzers share. When `trace` is
 * non-null it is filled with the per-instruction issue schedule. Pure:
 * no counter, span, profiler sample or self-profile charge.
 */
PipelineResult scheduleIssue(const Program &program,
                             const TpcParams &params,
                             IssueTrace *trace = nullptr);

/**
 * scheduleIssue plus the simulator's telemetry: adds the result to the
 * tpc.* counters and, while the profiler traces, samples the
 * cumulative tpc.stall_cycles track every 64 instructions.
 */
PipelineResult evaluatePipeline(const Program &program,
                                const TpcParams &params,
                                IssueTrace *trace = nullptr);

/// @name Timing-rule hooks shared with the analyzers.
/// Exactly the rules scheduleIssue applies, exported so the static
/// passes (src/analysis/static/) and the predictor features
/// (src/analysis/predict/) consume one definition.
/// @{

/** True when `instr` touches memory at all (loads, stores, scalar
 *  accesses carrying payload bytes — local or global). */
bool isMemAccess(const Instr &instr);

/** True when `instr` moves bytes through the global-memory interface
 *  (isMemAccess and not TPC-local). */
bool isGlobalMemAccess(const Instr &instr);

/** Cycles an in-order consumer waits for `instr`'s result: the vector/
 *  scalar ALU latency, or the access-class load-to-use latency for
 *  loads. 0 for results nobody can wait on (stores, dst < 0 loads). */
double resultLatency(const Instr &instr, const TpcParams &params);

/// @}

} // namespace vespera::tpc

#endif // VESPERA_TPC_PIPELINE_H
