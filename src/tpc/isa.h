/**
 * @file
 * Instruction trace representation for the simulated TPC.
 *
 * Each TPC-C intrinsic invoked by a kernel appends one Instr to the
 * per-TPC Program trace; tpc::evaluatePipeline later replays the trace
 * against the VLIW timing model.
 */

#ifndef VESPERA_TPC_ISA_H
#define VESPERA_TPC_ISA_H

#include <cstdint>

#include "common/types.h"

namespace vespera::tpc {

/** VLIW issue slots of the TPC (Figure 1: load, store, scalar, vector). */
enum class Slot : std::uint8_t {
    Load,
    Store,
    Vector,
    Scalar,
};

constexpr int numSlots = 4;

/** TPC-private vector local memory capacity (Gaudi-2: 80 KB per TPC). */
inline constexpr Bytes kLocalMemoryBytes = 80 * 1024;

/** Memory access locality class for loads/stores. */
enum class Access : std::uint8_t {
    Stream,  ///< Sequential addresses; HW prefetch hides HBM latency.
    Random,  ///< Data-dependent addresses (gather/scatter); full latency.
    Local,   ///< TPC-private scalar/vector local memory.
};

/** One traced instruction. Value ids are SSA: every result is fresh. */
struct Instr
{
    Slot slot;
    std::int32_t dst = -1;        ///< Result value id; -1 if none.
    std::int32_t src0 = -1;       ///< Operand value ids; -1 if unused.
    std::int32_t src1 = -1;
    std::int32_t src2 = -1;
    Bytes memBytes = 0;           ///< Useful payload for load/store.
    Access access = Access::Stream;
    float flopsPerLane = 0;       ///< 1 = add/mul, 2 = mac, 0 otherwise.
    std::int32_t lanes = 0;       ///< Vector lanes carried.

    /// @name Provenance, consumed by the static analyzer (tpc::analysis).
    /// @{
    /// Byte offset of the first byte accessed within the stream named
    /// by `memStream`; -1 when unknown (hand-built traces).
    std::int64_t memOffset = -1;
    /// Opaque id of the tensor / local-memory region accessed; 0 when
    /// unknown. Offsets are only comparable within one stream.
    std::uint32_t memStream = 0;
    /// Index into the owning Program's interned label table (the
    /// intrinsic name or a kernel-set phase label); -1 when untagged.
    std::int16_t opLabel = -1;
    /// @}
};

} // namespace vespera::tpc

#endif // VESPERA_TPC_ISA_H
