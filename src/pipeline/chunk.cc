#include "pipeline/chunk.h"

#include <algorithm>

#include "pipeline/memory_gauge.h"

namespace radix::pipeline {

ChunkPlan MakeRowChunks(size_t n, size_t target_rows) {
  ChunkPlan plan;
  if (n == 0) return plan;
  if (target_rows == 0) target_rows = n;
  for (size_t begin = 0; begin < n; begin += target_rows) {
    plan.chunks.push_back({begin, std::min(n, begin + target_rows)});
  }
  return plan;
}

ChunkArena::~ChunkArena() {
  if (gauge_ != nullptr) gauge_->Sub(data_.size_bytes());
}

void ChunkArena::Reset(size_t columns, size_t capacity_rows,
                       MemoryGauge* gauge) {
  if (gauge == nullptr) gauge = &MemoryGauge::Instance();
  // A re-Reset against a different gauge moves the existing bytes over.
  if (gauge_ != nullptr) gauge_->Sub(data_.size_bytes());
  gauge_ = gauge;
  columns_ = columns;
  capacity_rows_ = capacity_rows;
  data_.Resize(columns * capacity_rows);
  gauge_->Add(data_.size_bytes());
}

}  // namespace radix::pipeline
