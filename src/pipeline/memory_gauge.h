#ifndef RADIX_PIPELINE_MEMORY_GAUGE_H_
#define RADIX_PIPELINE_MEMORY_GAUGE_H_

#include <atomic>
#include <cstddef>

#include "common/macros.h"

namespace radix::pipeline {

/// Instrumentation of the value intermediates a query keeps resident:
/// every ChunkArena registers its bytes here — the operator layer's chunk
/// buffers and the materializing decluster side's clustered value column
/// (N * sizeof(value_t) bytes). The streamed decluster side fuses its
/// gather into the merge and registers nothing. An engine injects its own
/// gauge so the bytes its admission controller reserves are the bytes
/// this instrument measures; Instance() is the process-wide default.
class MemoryGauge {
 public:
  static MemoryGauge& Instance();

  MemoryGauge() = default;
  RADIX_DISALLOW_COPY_AND_ASSIGN(MemoryGauge);

  void Add(size_t bytes);
  void Sub(size_t bytes);

  /// Start a fresh measurement window: peak := current. Buffers registered
  /// before the reset stay accounted in current_bytes().
  void ResetPeak();

  size_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> current_{0};
  std::atomic<size_t> peak_{0};
};

}  // namespace radix::pipeline

#endif  // RADIX_PIPELINE_MEMORY_GAUGE_H_
