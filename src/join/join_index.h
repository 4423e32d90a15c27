#ifndef RADIX_JOIN_JOIN_INDEX_H_
#define RADIX_JOIN_JOIN_INDEX_H_

#include <span>
#include <vector>

#include "cluster/radix_cluster.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "common/uninit_vector.h"

namespace radix::join {

using cluster::OidPair;

/// The storage of a join index: its resize() does not zero-fill, because
/// every producer overwrites the whole array.
using OidPairs = UninitVector<OidPair>;

/// A join index [Val87]: the matching (left-oid, right-oid) pairs produced
/// by the join phase of a post-projection strategy. Stored as an array of
/// 8-byte pairs, the same layout the paper's experiments use.
class JoinIndex {
 public:
  JoinIndex() = default;
  explicit JoinIndex(OidPairs pairs) : pairs_(std::move(pairs)) {}

  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  OidPair* data() { return pairs_.data(); }
  const OidPair* data() const { return pairs_.data(); }
  OidPair& operator[](size_t i) { return pairs_[i]; }
  const OidPair& operator[](size_t i) const { return pairs_[i]; }

  std::span<OidPair> span() { return pairs_; }
  std::span<const OidPair> span() const { return pairs_; }

  OidPairs& pairs() { return pairs_; }
  const OidPairs& pairs() const { return pairs_; }

  void Reserve(size_t n) { pairs_.reserve(n); }
  void Append(oid_t left, oid_t right) { pairs_.push_back({left, right}); }

  /// Copy out the right side as a plain oid column. The projectors read
  /// the sides straight off the index instead.
  std::vector<oid_t> RightOids() const;

 private:
  OidPairs pairs_;
};

/// A join index still in pieces: the per-cluster outputs of a partitioned
/// join, in cluster order. Their concatenation is the join index. A
/// consumer that reorders the index anyway — the left side's c/d
/// Radix-Cluster — reads the shards directly (RadixClusterPassSegments), so
/// the concatenating copy disappears into its first pass.
class JoinShards {
 public:
  JoinShards() = default;
  /// Shards in cluster order; empty shards are allowed.
  explicit JoinShards(std::vector<OidPairs> shards);
  /// A whole index as a single shard (moved, not copied).
  explicit JoinShards(JoinIndex index);

  /// Total pairs over all shards.
  size_t size() const { return size_; }

  /// The shards in cluster order, each cut into pieces of at most
  /// `max_rows` pairs (order kept) so one large shard cannot serialize a
  /// segment-parallel pass.
  std::vector<std::span<const OidPair>> Segments(size_t max_rows) const;

  /// The join index: a lone shard is moved out; several are copied into one
  /// fresh array, shard-parallel on `pool` past the row-count threshold
  /// (kParallelSliceRows). Leaves this object empty.
  JoinIndex Concat(ThreadPool* pool);

  /// Frees the shards.
  void Clear();

 private:
  std::vector<OidPairs> shards_;
  size_t size_ = 0;
};

}  // namespace radix::join

#endif  // RADIX_JOIN_JOIN_INDEX_H_
