#include "tpc/program.h"

#include "common/logging.h"

namespace vespera::tpc {

std::int16_t
Program::internLabel(std::string_view label)
{
    for (std::size_t i = 0; i < labels_.size(); i++) {
        if (labels_[i] == label)
            return static_cast<std::int16_t>(i);
    }
    vassert(labels_.size() < 0x7fff, "label table overflow");
    labels_.emplace_back(label);
    return static_cast<std::int16_t>(labels_.size() - 1);
}

const std::string &
Program::label(std::int16_t index) const
{
    static const std::string empty;
    if (index < 0 || static_cast<std::size_t>(index) >= labels_.size())
        return empty;
    return labels_[static_cast<std::size_t>(index)];
}

std::uint64_t
Program::randomTransactions(Bytes granule) const
{
    vassert(granule > 0, "zero granule");
    std::uint64_t txns = 0;
    for (const auto &i : instrs_) {
        if ((i.slot == Slot::Load || i.slot == Slot::Store) &&
            i.access == Access::Random) {
            txns += (i.memBytes + granule - 1) / granule;
        }
    }
    return txns;
}

Bytes
Program::busBytes(Bytes granule) const
{
    vassert(granule > 0, "zero granule");
    Bytes total = 0;
    for (const auto &i : instrs_) {
        if (i.slot != Slot::Load && i.slot != Slot::Store)
            continue;
        if (i.access == Access::Local)
            continue;
        total += (i.memBytes + granule - 1) / granule * granule;
    }
    return total;
}

Program::Stats
Program::stats() const
{
    Stats s;
    for (const auto &i : instrs_) {
        switch (i.slot) {
          case Slot::Load:
            s.loads++;
            break;
          case Slot::Store:
            s.stores++;
            break;
          case Slot::Vector:
            s.vectorOps++;
            break;
          case Slot::Scalar:
            s.scalarOps++;
            break;
        }
        if (i.memBytes > 0) {
            switch (i.access) {
              case Access::Stream:
                s.streamAccesses++;
                break;
              case Access::Random:
                s.randomAccesses++;
                break;
              case Access::Local:
                s.localAccesses++;
                break;
            }
        }
    }
    return s;
}

} // namespace vespera::tpc
