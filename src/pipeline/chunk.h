#ifndef RADIX_PIPELINE_CHUNK_H_
#define RADIX_PIPELINE_CHUNK_H_

#include <cstddef>
#include <vector>

#include "common/macros.h"
#include "common/types.h"
#include "storage/column.h"

namespace radix::pipeline {

class MemoryGauge;

/// One unit of streamed work: the rows [row_begin, row_end) of an
/// order-preserving stream.
struct ChunkDesc {
  size_t row_begin = 0;
  size_t row_end = 0;
};

/// The full chunk schedule of one streamed gather.
struct ChunkPlan {
  std::vector<ChunkDesc> chunks;
};

/// Split a plain row range [0, n) into fixed-size chunks; the plan for
/// order-preserving streams (left projections, the right side's "u"
/// strategy) where no clustering is involved.
ChunkPlan MakeRowChunks(size_t n, size_t target_rows);

/// A gauge-tracked block of `columns` value buffers of `capacity_rows`
/// each: the operator layer's chunk buffers and the materializing decluster
/// side's clustered value column. Column a occupies
/// [column(a), column(a) + capacity_rows).
class ChunkArena {
 public:
  ChunkArena() = default;
  ~ChunkArena();
  RADIX_DISALLOW_COPY_AND_ASSIGN(ChunkArena);

  /// (Re)allocate; registers the byte delta with `gauge`, or with the
  /// process-wide MemoryGauge::Instance() when gauge is nullptr. The arena
  /// remembers the gauge so the destructor unregisters against the same
  /// one — which is how an engine's private admission gauge sees exactly
  /// its own queries' buffers.
  void Reset(size_t columns, size_t capacity_rows,
             MemoryGauge* gauge = nullptr);

  value_t* column(size_t a) {
    RADIX_DCHECK(a < columns_);
    return data_.data() + a * capacity_rows_;
  }
  const value_t* column(size_t a) const {
    RADIX_DCHECK(a < columns_);
    return data_.data() + a * capacity_rows_;
  }

  size_t columns() const { return columns_; }
  size_t capacity_rows() const { return capacity_rows_; }

 private:
  storage::Column<value_t> data_;
  size_t columns_ = 0;
  size_t capacity_rows_ = 0;
  MemoryGauge* gauge_ = nullptr;  ///< resolved at Reset; Instance() default
};

}  // namespace radix::pipeline

#endif  // RADIX_PIPELINE_CHUNK_H_
