/**
 * @file
 * CUDA→TPC lowering: maps a CudaKernelDesc onto a tpc::Program.
 *
 * The mapping mirrors what Habana's GPU Migration toolkit does for
 * real kernels (SNIPPETS.md §1–3), made explicit:
 *
 *  - thread blocks → index-space members along dim 1, partitioned
 *    across the 24 TPCs by the dispatcher;
 *  - a warp → one 32-lane vector *strip* (128 B of fp32), so
 *    warp-wide contiguous accesses become single vector loads — at
 *    half the TPC's 256 B granule, the first migration penalty;
 *  - strided / data-dependent warp accesses shatter into per-lane
 *    4 B transactions staged through local-memory scratch;
 *  - predicated branches → compute-plus-blend (mask via v_iota/v_cmp,
 *    merge via v_sel): SIMT divergence emulated at full vector cost;
 *  - shared memory → TPC local memory (v_st_local/v_ld_local);
 *  - __syncthreads() → a strip-serialization barrier: between
 *    barriers each strip executes its whole segment serially (the
 *    naive port), which is what exposes the 4-cycle dependency
 *    latency a hand-written kernel hides by unrolling.
 *
 * Every emitted instruction carries a "port:*" op label so the
 * migration-aware analyzer passes (analysis/static/passes_port.cc) can
 * attribute the performance gap to specific lowering artifacts.
 *
 * LowerOptions exposes the two fix-hint knobs the scorecard's findings
 * suggest: warpsPerStrip=2 fuses two warps into a full-granule 256 B
 * strip (elementwise kernels only), and stripUnroll>=4 interleaves
 * independent strips to hide result latency.
 */

#ifndef VESPERA_PORT_LOWER_H
#define VESPERA_PORT_LOWER_H

#include <memory>
#include <vector>

#include "port/cuda_desc.h"
#include "tpc/dispatcher.h"
#include "tpc/tensor.h"

namespace vespera::port {

/** Lowering knobs (the migration fix-hint surface). */
struct LowerOptions
{
    /// Warps fused into one vector strip. 1 = faithful warp-width
    /// lowering (128 B accesses); 2 = full-granule 256 B strips,
    /// legal only for kernels without warp/shared/lane-addressed ops.
    int warpsPerStrip = 1;
    /// Strips interleaved instruction-by-instruction within a
    /// barrier-delimited segment. 1 = naive serial port; >=4 hides
    /// the 4-cycle vector latency.
    int stripUnroll = 1;
    /// TPCs offered to the dispatcher (clamped to the grid size).
    int numTpcs = 24;
};

/** Outcome of lowering + launching one desc. */
struct PortRun
{
    tpc::LaunchResult launch;
    /// Final global-buffer tensors, indexed like desc.buffers.
    std::shared_ptr<std::vector<tpc::Tensor>> tensors;
};

/**
 * Lower `desc` and launch it on the simulated TPC array. The per-TPC
 * Program traces are observable via tpc::ScopedTraceObserver exactly
 * like hand-written kernels (analysis::captureTrace works unchanged).
 */
PortRun lowerAndRun(const CudaKernelDesc &desc,
                    const LowerOptions &options = {});

} // namespace vespera::port

#endif // VESPERA_PORT_LOWER_H
