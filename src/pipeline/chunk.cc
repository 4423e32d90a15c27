#include "pipeline/chunk.h"

#include "pipeline/memory_gauge.h"

namespace radix::pipeline {

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
