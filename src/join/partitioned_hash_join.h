#ifndef RADIX_JOIN_PARTITIONED_HASH_JOIN_H_
#define RADIX_JOIN_PARTITIONED_HASH_JOIN_H_

#include <span>

#include "cluster/radix_cluster.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "hardware/memory_hierarchy.h"
#include "join/join_index.h"

namespace radix::join {

/// Options for Partitioned Hash-Join [SKN94] paired with Radix-Cluster
/// [BMK99] (paper §2): both inputs are radix-clustered on the same B bits
/// of hash(key), then matching clusters are hash-joined; each inner cluster
/// (plus hash table) fits the cache.
struct PartitionedHashJoinOptions {
  /// Total radix bits B; kAutoBits picks from cache geometry.
  static constexpr radix_bits_t kAutoBits = ~radix_bits_t{0};
  radix_bits_t radix_bits = kAutoBits;
  /// Per-pass fan-out cap (cursor/TLB constraint); 0 = from hardware.
  radix_bits_t max_pass_bits = 0;
  /// Worker pool: clustering runs the parallel multi-pass driver and the
  /// per-cluster hash joins fan out as independent work items (clusters
  /// are disjoint by construction — the same independence Radix-Decluster
  /// exploits). null or size-1 runs the byte-identical serial path.
  ThreadPool* pool = nullptr;
};

/// Join key columns, emitting the [left-oid, right-oid] join index. With
/// radix_bits == 0 this degenerates to naive HashJoin (the "0 = unclustered"
/// point of Figs. 9b). Equal to PartitionedHashJoinShards(...).Concat().
JoinIndex PartitionedHashJoin(std::span<const value_t> left_keys,
                              std::span<const value_t> right_keys,
                              const hardware::MemoryHierarchy& hw,
                              const PartitionedHashJoinOptions& options = {});

/// The same join, stopping before the per-cluster outputs are concatenated:
/// the parallel path returns one shard per join cluster, in cluster order;
/// the serial and unpartitioned paths return a single shard. The row count
/// (shards.size()) is known before any concatenation, so a planner can pick
/// the projection strategy first and let the left side's Radix-Cluster
/// consume the shards directly.
JoinShards PartitionedHashJoinShards(
    std::span<const value_t> left_keys, std::span<const value_t> right_keys,
    const hardware::MemoryHierarchy& hw,
    const PartitionedHashJoinOptions& options = {});

/// The clustering phase in isolation: materialize (key, oid) pairs and
/// radix-cluster them on hash(key) into `out`. The join itself runs this
/// code. Exposed for benchmarks (Fig. 9a) and for strategies that
/// interleave clustering with payload handling. A non-null pool with >1
/// thread fills the pairs in row slices and runs the parallel cluster
/// driver (byte-identical output). The fill goes to whichever buffer makes
/// the last pass write `out`, so no pass count needs a copy-back.
cluster::ClusterBorders ClusterKeyOid(std::span<const value_t> keys,
                                      std::span<cluster::KeyOid> out,
                                      radix_bits_t total_bits, uint32_t passes,
                                      ThreadPool* pool = nullptr);

}  // namespace radix::join

#endif  // RADIX_JOIN_PARTITIONED_HASH_JOIN_H_
