/**
 * @file
 * GUPS-inspired vector gather/scatter microbenchmarks (Section 3.3,
 * Figure 9): read (gather) or write (scatter) vectors at random
 * locations of a large 2D vector array.
 */

#ifndef VESPERA_KERN_GATHER_SCATTER_H
#define VESPERA_KERN_GATHER_SCATTER_H

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"

namespace vespera::kern {

/** Workload configuration. */
struct GatherScatterConfig
{
    /// Vectors in the 2D array (paper: 4M; tests use fewer).
    std::uint64_t numVectors = 4ull << 20;
    /// Vector size in bytes (Figure 9 x-groups: 16..2048).
    Bytes vectorBytes = 256;
    /// Fraction of the vectors accessed, in random order (Figure 9
    /// x-axis within each group).
    double accessFraction = 1.0;
    /// Scatter (write) instead of gather (read).
    bool scatter = false;
    DataType dt = DataType::BF16;
    /// Unroll factor of the TPC kernel (memory-level parallelism).
    /// Random-access kernels need deeper unrolling than streaming ones
    /// to cover the full HBM round-trip latency.
    int unroll = 16;
    /// Independent accumulator chains (breaks the reduction's
    /// 4-cycle-latency dependency chain).
    int accumulators = 4;
    int numTpcs = 24;
};

/** Outcome. */
struct GatherScatterResult
{
    Seconds time = 0;
    Bytes usefulBytes = 0;
    double hbmUtilization = 0;
};

/**
 * Run on the simulated Gaudi-2 as a TPC-C kernel (functional: gathered
 * data is checked against the source array; a scatter's written rows
 * and untouched rows are checked after the launch).
 */
GatherScatterResult runGatherScatterGaudi(const GatherScatterConfig &c,
                                          Rng &rng);

/** Cost the equivalent CUDA kernel on the A100 model. */
GatherScatterResult runGatherScatterA100(const GatherScatterConfig &c);

} // namespace vespera::kern

#endif // VESPERA_KERN_GATHER_SCATTER_H
