/**
 * @file
 * Per-TPC instruction trace container with flop / traffic accounting.
 */

#ifndef VESPERA_TPC_PROGRAM_H
#define VESPERA_TPC_PROGRAM_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mem/arena.h"
#include "obs/selfprof.h"
#include "tpc/isa.h"

namespace vespera::tpc {

/** The recorded instruction stream of one TPC's kernel invocation. */
class Program
{
  public:
    /** Append an instruction, returning its position. */
    std::size_t
    append(const Instr &instr)
    {
        // Running totals, summed in trace order: bit-identical to a
        // rescan of instrs().
        flops_ += static_cast<double>(instr.flopsPerLane) * instr.lanes;
        if (instr.slot == Slot::Load || instr.slot == Slot::Store) {
            if (instr.access == Access::Stream)
                streamBytes_ += instr.memBytes;
            else if (instr.access == Access::Random)
                randomBytes_ += instr.memBytes;
        }
        // Trace-vector growth is the simulator's dominant allocation
        // source; report reallocations to the self-profile (one branch
        // on a relaxed atomic when --selfprof is off).
        if (obs::SelfProf::instance().enabled()) {
            const std::size_t cap = instrs_.capacity();
            instrs_.push_back(instr);
            obs::selfRecordGrowth(instrs_, cap);
        } else {
            instrs_.push_back(instr);
        }
        return instrs_.size() - 1;
    }

    /** Allocate a fresh SSA value id. */
    std::int32_t newValue() { return nextValue_++; }

    /// Trace storage: arena-backed when the program is recorded
    /// inside a mem::ScopedArena (the dispatcher's hot path), heap
    /// otherwise — including whenever a trace observer may copy the
    /// program into long-lived storage.
    using InstrVec = std::vector<Instr, mem::ArenaAllocator<Instr>>;

    const InstrVec &instrs() const { return instrs_; }
    std::int32_t numValues() const { return nextValue_; }
    bool empty() const { return instrs_.empty(); }

    /// @name Diagnostic provenance (who recorded this trace).
    /// @{
    /** Source-kernel tag; diagnostics name this, not an instr index. */
    void setKernelName(std::string name) { kernelName_ = std::move(name); }
    const std::string &kernelName() const { return kernelName_; }

    /**
     * Intern an op label ("v_ld_tnsr", a kernel phase name, ...) and
     * return its index for Instr::opLabel. Idempotent per string.
     */
    std::int16_t internLabel(std::string_view label);

    /** Label text for an Instr::opLabel index ("" for -1/invalid). */
    const std::string &label(std::int16_t index) const;

    /** The interned label table (IR-lifting hook: analysis/static/). */
    const std::vector<std::string> &labels() const { return labels_; }
    /// @}

    /** Total useful flops executed by the trace. */
    Flops flops() const { return flops_; }

    /** Useful payload bytes moved to/from global memory, by class. */
    Bytes streamBytes() const { return streamBytes_; }
    Bytes randomBytes() const { return randomBytes_; }

    /** Number of random-access global transactions (for MLP modeling). */
    std::uint64_t randomTransactions(Bytes granule) const;

    /** Bus bytes for the given granule (payload rounded up per access). */
    Bytes busBytes(Bytes granule) const;

    /** Instruction-mix statistics (for kernel tuning / debugging). */
    struct Stats
    {
        std::uint64_t loads = 0;
        std::uint64_t stores = 0;
        std::uint64_t vectorOps = 0;
        std::uint64_t scalarOps = 0;
        std::uint64_t streamAccesses = 0;
        std::uint64_t randomAccesses = 0;
        std::uint64_t localAccesses = 0;

        std::uint64_t
        total() const
        {
            return loads + stores + vectorOps + scalarOps;
        }
    };

    Stats stats() const;

  private:
    InstrVec instrs_;
    Flops flops_ = 0;
    Bytes streamBytes_ = 0;
    Bytes randomBytes_ = 0;
    std::int32_t nextValue_ = 0;
    std::string kernelName_;
    std::vector<std::string> labels_;
};

} // namespace vespera::tpc

#endif // VESPERA_TPC_PROGRAM_H
