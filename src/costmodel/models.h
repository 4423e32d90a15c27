#ifndef RADIX_COSTMODEL_MODELS_H_
#define RADIX_COSTMODEL_MODELS_H_

#include <cstddef>

#include "common/types.h"
#include "costmodel/compose.h"
#include "hardware/memory_hierarchy.h"

namespace radix::costmodel {

/// Per-algorithm cost functions built by composing the Appendix-A access
/// patterns; these draw the "modeled" lines of Figs. 7 and 9. Each returns
/// a CostEstimate: predicted misses plus predicted elapsed seconds.
struct CostEstimate {
  MissVector misses;
  double seconds = 0;
};

/// CPU constants (ns per tuple of pure in-cache work). Defaults are rough
/// figures for a modern OoO core; Tune() scales them from a micro-probe so
/// modeled totals land in the measured ballpark on any machine.
struct CpuCosts {
  double cluster_ns_per_tuple = 1.2;   ///< histogram+scatter, per pass
  double hash_build_ns_per_tuple = 2.5;
  double hash_probe_ns_per_tuple = 3.0;
  double pos_join_ns_per_tuple = 0.8;
  double decluster_ns_per_tuple = 1.5;
  double jive_sort_ns_per_tuple = 9.0;  ///< comparison sort within clusters

  static CpuCosts Default() { return {}; }
};

/// radix_cluster(B, P) over N tuples of `width` bytes: per pass,
/// s_trav(input) ⊙ nest(output clusters, 2^Bp).
CostEstimate RadixClusterCost(const hardware::MemoryHierarchy& hw,
                              const CpuCosts& cpu, size_t tuples,
                              size_t width, radix_bits_t total_bits,
                              uint32_t passes);

/// Partitioned Hash-Join of two clustered inputs (2^B cluster pairs),
/// inner cluster + hash table random-traversed, outer sequential. bits==0
/// models the naive unpartitioned join.
CostEstimate PartitionedHashJoinCost(const hardware::MemoryHierarchy& hw,
                                     const CpuCosts& cpu, size_t left_tuples,
                                     size_t right_tuples, size_t tuple_width,
                                     radix_bits_t bits);

/// Positional-Join of an index clustered on `bits` bits into a column of
/// `column_tuples` x `width`: per cluster, random access confined to a
/// column region of size bytes/2^B (bits==0: unclustered random access;
/// fully sorted: pass `sorted=true` for s_trav behaviour).
CostEstimate ClusteredPositionalJoinCost(const hardware::MemoryHierarchy& hw,
                                         const CpuCosts& cpu,
                                         size_t index_tuples,
                                         size_t column_tuples, size_t width,
                                         radix_bits_t bits, bool sorted);

/// Radix-Decluster of N tuples from 2^B clusters with an insertion window
/// of `window_elems` elements of `width` bytes (paper Appendix A):
///   #w windows x [ per-cluster sequential slices ⊙ window rr_trav ]
///   ⊕ rs_trav(#w, cluster borders).
CostEstimate RadixDeclusterCost(const hardware::MemoryHierarchy& hw,
                                const CpuCosts& cpu, size_t tuples,
                                size_t width, radix_bits_t bits,
                                size_t window_elems);

/// Three-phase varchar Radix-Decluster (paper §5 / Fig. 12), the cost of
/// declustering variable-size values that cannot be inserted by position
/// directly. Composes, sequentially (⊕):
///   1. a Radix-Decluster of the 4-byte *lengths* into a positionally
///      addressable array (the extra SIZE_VALUES pass);
///   2. a sequential prefix-sum pass over the lengths producing each
///      tuple's byte position (s_trav read ⊕ s_trav write);
///   3. a Radix-Decluster whose window holds avg_len-byte values — the
///      heap-byte traffic: the sequential source stream and the windowed
///      random writes both scale with avg_len, not sizeof(value_t).
/// This is the "paged-decluster" term the engine's Explain() reports per
/// varchar column of a decluster-side projection.
CostEstimate VarcharRadixDeclusterCost(const hardware::MemoryHierarchy& hw,
                                       const CpuCosts& cpu, size_t tuples,
                                       size_t avg_len, radix_bits_t bits,
                                       size_t window_elems);

/// Radix-Decluster fused with its Positional-Join
/// (decluster::RadixDeclusterGather, the streamed decluster side) for one
/// column: `tuples` result rows cut into ranges of `range_rows` (at least
/// one row per cluster, at most all of them), fetching from a column of
/// `column_tuples` x `width` bytes through 2^bits clusters. Per range:
///   s_trav(ids slice) ⊕ s_trav(positions slice)
///   ⊕ 2^B x r_acc(segment, column / 2^B)   (each cluster's segment)
///   ⊕ rr_trav(2^B, range)                   (writes inside the range)
/// plus a binary-search seek per cluster and range. No value buffer is
/// written or read back, so at range_rows >= tuples this is about the
/// materializing gather + RadixDeclusterCost with the window set to the
/// whole result, minus that buffer's two traversals. While the range's
/// writes stay resident at the same cache levels the cost falls as the
/// range grows — smaller ranges cut each cluster's column region into
/// colder segments and pay more seeks — and each level the range outgrows
/// is a cliff, as for the insertion window.
CostEstimate RadixDeclusterGatherCost(const hardware::MemoryHierarchy& hw,
                                      const CpuCosts& cpu, size_t tuples,
                                      size_t column_tuples, size_t width,
                                      radix_bits_t bits, size_t range_rows);

/// Left Jive-Join: merge of the (sorted) join index with the left input
/// (both s_trav) fanning out into 2^B clusters (nest) for both outputs.
CostEstimate LeftJiveJoinCost(const hardware::MemoryHierarchy& hw,
                              const CpuCosts& cpu, size_t index_tuples,
                              size_t left_tuples, size_t width,
                              radix_bits_t bits);

/// Right Jive-Join: per cluster, sort + fetch from a right-table region of
/// bytes/2^B (cacheable if B high enough) + random writes to the result.
CostEstimate RightJiveJoinCost(const hardware::MemoryHierarchy& hw,
                               const CpuCosts& cpu, size_t index_tuples,
                               size_t right_tuples, size_t width,
                               radix_bits_t bits);

}  // namespace radix::costmodel

#endif  // RADIX_COSTMODEL_MODELS_H_
