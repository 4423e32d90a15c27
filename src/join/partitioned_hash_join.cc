#include "join/partitioned_hash_join.h"
#include "common/overflow.h"

#include <algorithm>

#include "cluster/partition_plan.h"
#include "common/hash.h"
#include "join/hash_join.h"
#include "storage/column.h"

namespace radix::join {

using cluster::ClusterBorders;
using cluster::ClusterSpec;
using cluster::KeyOid;

cluster::ClusterBorders ClusterKeyOid(std::span<const value_t> keys,
                                      std::span<cluster::KeyOid> out,
                                      radix_bits_t total_bits, uint32_t passes,
                                      ThreadPool* pool) {
  RADIX_CHECK(out.size() == keys.size());
  CheckOidCapacity(keys.size());
  ClusterSpec spec;
  spec.total_bits = total_bits;
  spec.ignore_bits = 0;
  spec.passes = std::max<uint32_t>(1, passes);
  RADIX_CHECK(cluster::ValidateClusterSpec(spec).ok());
  const size_t n = keys.size();
  ThreadPool* p = SliceCount(pool, n) > 1 ? pool : nullptr;
  auto key_oid = [&](size_t i) {
    return KeyOid{keys[i], static_cast<oid_t>(i)};
  };
  ClusterBorders borders;
  borders.offsets = {0, n};
  if (spec.total_bits == 0) {
    ForEachSlice(p, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) out[i] = key_oid(i);
    });
    return borders;
  }

  // The first pass reads the keys directly and builds each (key, oid) pair
  // as it scatters it, so no filled copy is written first. Later passes
  // alternate buffers; the first pass writes the one that makes the last
  // pass end in `out`, so no pass count needs a copy-back.
  const radix_bits_t first = spec.PassBits()[0];
  const ClusterSpec tail = spec.Tail();
  storage::Column<KeyOid> scratch(tail.total_bits > 0 ? n : 0);
  KeyOid* first_out =
      tail.EffectivePasses() % 2 == 1 ? scratch.data() : out.data();
  KeyOid* other = first_out == out.data() ? scratch.data() : out.data();
  auto radix = [](const KeyOid& t) -> uint64_t { return KeyHash{}(t.key); };
  borders.offsets = cluster::RadixClusterPassRows(
      n, key_oid, radix, spec.total_bits - first, first,
      [&](uint64_t at, const KeyOid& t) { first_out[at] = t; }, p);
  const KeyOid* result = cluster::RadixRefineClusters(
      first_out, other, &borders, radix, tail, p);
  RADIX_CHECK(result == out.data());
  return borders;
}

JoinShards PartitionedHashJoinShards(std::span<const value_t> left_keys,
                                     std::span<const value_t> right_keys,
                                     const hardware::MemoryHierarchy& hw,
                                     const PartitionedHashJoinOptions& options) {
  radix_bits_t bits = options.radix_bits;
  if (bits == PartitionedHashJoinOptions::kAutoBits) {
    bits = cluster::PartitionedJoinBits(right_keys.size(), sizeof(KeyOid), hw);
  }
  if (bits == 0) {
    return JoinShards(HashJoin(left_keys, right_keys));
  }
  radix_bits_t per_pass =
      options.max_pass_bits != 0 ? options.max_pass_bits : cluster::MaxPassBits(hw);
  uint32_t passes = (bits + per_pass - 1) / per_pass;

  ThreadPool* pool = KernelPool(options.pool);

  storage::Column<KeyOid> left(left_keys.size());
  storage::Column<KeyOid> right(right_keys.size());
  ClusterBorders lb = ClusterKeyOid(left_keys, left.span(), bits, passes, pool);
  ClusterBorders rb =
      ClusterKeyOid(right_keys, right.span(), bits, passes, pool);

  size_t clusters = lb.num_clusters();
  RADIX_CHECK(clusters == rb.num_clusters());

  if (pool == nullptr) {
    JoinIndex out;
    out.Reserve(std::max(left_keys.size(), right_keys.size()));
    for (size_t c = 0; c < clusters; ++c) {
      std::span<const KeyOid> lc{left.data() + lb.start(c),
                                 static_cast<size_t>(lb.size(c))};
      std::span<const KeyOid> rc{right.data() + rb.start(c),
                                 static_cast<size_t>(rb.size(c))};
      if (lc.empty() || rc.empty()) continue;
      HashJoinKeyOid(lc, rc, &out);
    }
    return JoinShards(std::move(out));
  }

  // Parallel join phase: clusters are disjoint, so each one joins into a
  // private shard; the shards in cluster order are the serial output.
  std::vector<OidPairs> shards(clusters);
  pool->ParallelFor(clusters, [&](size_t c) {
    std::span<const KeyOid> lc{left.data() + lb.start(c),
                               static_cast<size_t>(lb.size(c))};
    std::span<const KeyOid> rc{right.data() + rb.start(c),
                               static_cast<size_t>(rb.size(c))};
    if (lc.empty() || rc.empty()) return;
    JoinIndex local;
    HashJoinKeyOid(lc, rc, &local);
    shards[c] = std::move(local.pairs());
  });
  return JoinShards(std::move(shards));
}

JoinIndex PartitionedHashJoin(std::span<const value_t> left_keys,
                              std::span<const value_t> right_keys,
                              const hardware::MemoryHierarchy& hw,
                              const PartitionedHashJoinOptions& options) {
  return PartitionedHashJoinShards(left_keys, right_keys, hw, options)
      .Concat(options.pool);
}

}  // namespace radix::join
