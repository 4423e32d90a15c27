// Layer-by-layer replays for the traced run: the same public layer calls the
// engine's executor makes, each wrapped in a span, plus kernel probes on the
// workload's own columns.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstddef>
#include <cstdint>

#include "engine/engine.h"
#include "trace.h"

namespace perfbench {

// Span names, one per layer call the replay wraps.
inline constexpr const char* kSpanQuery = "query";
inline constexpr const char* kSpanJoin = "join";
inline constexpr const char* kSpanPartition = "join.partition";
inline constexpr const char* kSpanCluster = "cluster";
inline constexpr const char* kSpanGather = "gather";
inline constexpr const char* kSpanDecluster = "decluster";
inline constexpr const char* kSpanDeclusterVarchar = "decluster.varchar";
inline constexpr const char* kSpanChecksum = "checksum";
inline constexpr const char* kSpanOps = "ops";
inline constexpr const char* kSpanPrepare = "engine.prepare";
inline constexpr const char* kSpanExecute = "engine.execute";

struct ReplayOutcome {
  uint64_t checksum = 0;
  size_t rows = 0;
  /// Insertion window of the fixed-width decluster (0: no decluster side).
  size_t window_elems = 0;
  /// Bytes the fixed-width gathers moved: per value its oid (or oid pair)
  /// read, the value read and the value written.
  double gather_bytes = 0;
};

/// Replays one DSM post-projection query (materializing, whatever mode the
/// engine chose) with the sides `ex` resolved, under one "query" span.
/// The checksum follows the engine's row-digest construction, so it must
/// equal the engine's checksum for the same query.
ReplayOutcome ReplayDsmPost(const radix::workload::JoinWorkload& w,
                            const radix::engine::QuerySpec& spec,
                            const radix::engine::Explanation& ex,
                            const radix::hardware::MemoryHierarchy& hw,
                            radix::ThreadPool* pool, SpanRecorder* rec);

/// Radix bits of the engine's partitioned join for this workload
/// (cluster::PartitionedJoinBits); 0 means the serial unpartitioned join.
uint32_t JoinBits(const radix::workload::JoinWorkload& w,
                  const radix::hardware::MemoryHierarchy& hw);

/// join::ClusterKeyOid over both key columns at the join's bits and passes,
/// under a "join.partition" span; returns milliseconds. 0 when the join
/// does not partition (JoinBits() == 0).
double PartitionMs(const radix::workload::JoinWorkload& w,
                   const radix::hardware::MemoryHierarchy& hw,
                   radix::ThreadPool* pool, SpanRecorder* rec);

struct KernelRate {
  double gbps = 0;     ///< computed bytes moved / dispatched time
  double speedup = 0;  ///< scalar-table time / dispatched-table time
};

struct KernelRates {
  KernelRate radix_count;
  KernelRate gather;
  KernelRate scatter;
  int isa = 0;  ///< 0 scalar, 1 avx2, 2 avx512 (cpu::ActiveIsa())
};

/// Single-threaded dispatched-vs-scalar kernel probes on the workload's own
/// columns: the histogram over the right keys, the gather of a right payload
/// column at the left keys (a permutation of the row ids at hit rate 1) and
/// the clustering scatter of the right (key, oid) pairs. Median of `reps`.
KernelRates MeasureKernels(const radix::workload::JoinWorkload& w,
                           const radix::hardware::MemoryHierarchy& hw,
                           int reps);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
