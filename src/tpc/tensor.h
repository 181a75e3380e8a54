/**
 * @file
 * Simulated global-memory tensor for TPC-C kernel execution.
 *
 * Tensors live in simulated device global memory (HBM or on-chip shared
 * memory) and are accessed by TPC programs through the load/store
 * intrinsics in tpc::TpcContext. Storage is FP32 regardless of the
 * declared data type; the declared type drives sizing and timing only
 * (BF16 numerics are irrelevant to the paper's performance analysis).
 *
 * Dimension 0 is the fastest-varying (contiguous) dimension, matching
 * the TPC-C convention where the "depth" dimension determines memory
 * access granularity (Figure 3 of the paper).
 */

#ifndef VESPERA_TPC_TENSOR_H
#define VESPERA_TPC_TENSOR_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace vespera::tpc {

/** Up-to-5-dimensional coordinate, matching TPC-C's int5. */
using Int5 = std::array<std::int64_t, 5>;

/** A tensor resident in simulated device global memory. */
class Tensor
{
  public:
    /** Construct a zero-filled tensor. Trailing dims default to 1. */
    Tensor(std::vector<std::int64_t> shape, DataType dt);

    std::int64_t dim(int d) const { return shape_.at(d); }
    int rank() const { return static_cast<int>(shape_.size()); }
    std::int64_t numElements() const { return numElements_; }
    DataType dtype() const { return dtype_; }
    Bytes bytes() const { return numElements_ * dtypeSize(dtype_); }

    /** Flatten a coordinate (dim 0 fastest) to an element offset. */
    std::int64_t flatten(const Int5 &coord) const;

    /** Element access by flat offset, bounds-checked. */
    float &at(std::int64_t flat);
    float at(std::int64_t flat) const;

    /** Element access by coordinate. */
    float &at(const Int5 &coord) { return at(flatten(coord)); }
    float at(const Int5 &coord) const { return at(flatten(coord)); }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Fill with values from a callable f(flat_index) -> float. */
    template <typename F>
    void
    fill(F &&f)
    {
        for (std::int64_t i = 0; i < numElements_; i++)
            data_[static_cast<std::size_t>(i)] = f(i);
    }

    /** Fill each dim-0 row with one value from f(row_index) -> float. */
    template <typename F>
    void
    fillRows(F &&f)
    {
        const std::int64_t row = shape_[0];
        for (std::int64_t r = 0; r * row < numElements_; r++)
            std::fill_n(data_.begin() + r * row, row, f(r));
    }

  private:
    std::vector<std::int64_t> shape_;
    std::vector<std::int64_t> strides_; ///< In elements; stride[0] == 1.
    std::int64_t numElements_;
    DataType dtype_;
    std::vector<float> data_;
};

} // namespace vespera::tpc

#endif // VESPERA_TPC_TENSOR_H
