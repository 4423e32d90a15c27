#ifndef RADIX_PROJECT_DSM_POST_H_
#define RADIX_PROJECT_DSM_POST_H_

#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "common/uninit_vector.h"
#include "hardware/memory_hierarchy.h"
#include "join/join_index.h"
#include "project/strategy.h"
#include "storage/dsm.h"
#include "storage/varchar.h"

namespace radix::pipeline {
class MemoryGauge;
}  // namespace radix::pipeline

namespace radix::project {

/// DSM post-projection (paper §3): given a join index, materialize the
/// result columns with per-side strategies u/s/c/d. The left ("larger")
/// side may be reordered (s or c), which changes the result order; the
/// right side then projects in that same order, either unsorted (u) or via
/// cluster + positional join + Radix-Decluster (d).
struct DsmPostOptions {
  SideStrategy left = SideStrategy::kClustered;
  SideStrategy right = SideStrategy::kDecluster;
  /// Radix bits for partial clustering; kAuto derives from cache geometry
  /// per §3.1's formula.
  static constexpr radix_bits_t kAuto = ~radix_bits_t{0};
  radix_bits_t left_bits = kAuto;
  radix_bits_t right_bits = kAuto;
  /// Insertion window in elements; 0 = WindowPolicy default.
  size_t window_elems = 0;
  /// How a d right side merges. 0 = materialize: gather each column in
  /// clustered order into a value buffer, then Radix-Decluster it with the
  /// insertion window. Otherwise the d side's result range in rows: the
  /// positional join runs inside the merge (decluster::RadixDeclusterGather),
  /// one result range per grain, so no value buffer exists and the window
  /// is not used. Every other step, the varchar columns included, is the
  /// same in both modes.
  size_t chunk_rows = 0;
  /// Caller-owned pool to run the parallel kernels on (the engine's
  /// session pool). nullptr (default) or a one-thread pool runs the exact
  /// serial kernels — required for MemTracer runs; a larger pool runs the
  /// parallel kernels (byte-identical output). No pool is constructed
  /// inside the projector.
  ThreadPool* pool = nullptr;
  /// Gauge the materializing decluster side's clustered value column
  /// (N * sizeof(value_t) bytes) registers with; nullptr = the process-wide
  /// pipeline::MemoryGauge::Instance(). A streamed d side (chunk_rows != 0)
  /// keeps no value intermediate and registers nothing.
  pipeline::MemoryGauge* gauge = nullptr;
};

/// Variable-size columns riding along a DSM post-projection (paper §5):
/// pointers into the caller's base varchar columns, one entry per
/// projected varchar column per side.
struct VarcharProjection {
  std::vector<const storage::VarcharColumn*> left;
  std::vector<const storage::VarcharColumn*> right;

  bool empty() const { return left.empty() && right.empty(); }
};

/// Execute the projection phase. `index` is consumed (may be reordered in
/// place; after the call it holds each result row's oid pair in result
/// order). Projects attributes 1..pi of each relation. Returns the result
/// columns plus phase timings; the result columns are byte-identical
/// whatever options.chunk_rows is. A streamed d side reports the fused
/// merge's busy time in phases->decluster_seconds and the wall time of its
/// decluster phase in phases->pipeline_wall_seconds.
///
/// The glue between the kernels runs on the pool too: the left reorder
/// scatters into a fresh array and keeps whichever buffer its last pass
/// wrote; a right side u gathers straight off the index; a right side d
/// packs (right oid, result position) off the index in row slices.
///
/// `varchar`, when non-null, projects the listed variable-size columns
/// alongside the fixed ones into DsmResult::{left,right}_varchars, in the
/// same result order: left varchars gather off the reordered index; right
/// varchars follow the right side's strategy — a positional gather for u,
/// or the paper's Fig. 12 three-phase scheme for d (decluster the lengths,
/// prefix-sum into heap positions, decluster the bytes), reusing the
/// fixed columns' cluster pass. The varchar kernels are serial; only the
/// fixed-width kernels use `options.pool`.
storage::DsmResult DsmPostProject(join::JoinIndex& index,
                                  const storage::DsmRelation& left,
                                  const storage::DsmRelation& right,
                                  size_t pi_left, size_t pi_right,
                                  const hardware::MemoryHierarchy& hw,
                                  const DsmPostOptions& options,
                                  PhaseBreakdown* phases = nullptr,
                                  const VarcharProjection* varchar = nullptr);

/// DsmPostProject straight off a join's shards (join::PartitionedHashJoin-
/// Shards), byte-identical to concatenating them first. For a c/d left side
/// the shards are scattered in cluster order as the first left-oid
/// Radix-Cluster pass (the paper's §3 partial cluster applied to the radix
/// join's output), so the concatenating copy never happens; the scatter
/// counts in phases->cluster_seconds. For u/s the shards are concatenated,
/// which counts in phases->join_seconds.
storage::DsmResult DsmPostProject(join::JoinShards shards,
                                  const storage::DsmRelation& left,
                                  const storage::DsmRelation& right,
                                  size_t pi_left, size_t pi_right,
                                  const hardware::MemoryHierarchy& hw,
                                  const DsmPostOptions& options,
                                  PhaseBreakdown* phases = nullptr,
                                  const VarcharProjection* varchar = nullptr);

/// Project one side only, with an explicit strategy; benchmarked in
/// isolation in Fig. 8. s and c reorder `ids` in place; for kDecluster the
/// ids are clustered into a copy and `out[a]` receives column `columns[a]`
/// fetched at `ids` in result order. Every strategy has a parallel path
/// on a multi-thread `pool`; nullptr runs the serial kernels.
void ProjectSide(std::vector<oid_t>& ids, SideStrategy strategy,
                 const std::vector<std::span<const value_t>>& columns,
                 const std::vector<std::span<value_t>>& out,
                 size_t column_cardinality,
                 const hardware::MemoryHierarchy& hw, radix_bits_t bits,
                 size_t window_elems, PhaseBreakdown* phases,
                 ThreadPool* pool = nullptr);

/// A cache-sized streamed range: one column's result range fills the target
/// cache, so the fused merge's random writes stay cache-resident.
size_t DefaultChunkRows(const hardware::MemoryHierarchy& hw);

namespace detail {

/// Plumbing shared by DsmPostProject, the ops/ join operator and the
/// benchmarks that replay the projector's steps.

cluster::ClusterSpec SpecFor(SideStrategy strategy, size_t index_tuples,
                             size_t column_cardinality,
                             const hardware::MemoryHierarchy& hw,
                             radix_bits_t bits);

/// Reorder `ids` by a (partial or full) radix cluster on the oid values,
/// returning the borders. Keeps a parallel permutation `perm` in sync so
/// callers can track where each result row went (needed by the decluster
/// side). `perm` may be empty to skip that bookkeeping. A non-null `pool`
/// runs the parallel kernels (byte-identical output). With `perm`, this is
/// the fused (id, perm) cluster of ClusterIdsWithPositions, copied back in
/// row slices.
cluster::ClusterBorders ClusterIds(std::vector<oid_t>& ids,
                                   std::vector<oid_t>& perm,
                                   const cluster::ClusterSpec& spec,
                                   ThreadPool* pool);

/// One projection side's ids after the decluster side's Radix-Cluster:
/// the ids in clustered order, each one's result position, and the
/// cluster borders — the inputs of the clustered gather and of
/// Radix-Decluster (paper Fig. 4).
struct ClusteredIds {
  UninitVector<oid_t> ids;
  UninitVector<oid_t> result_pos;
  cluster::ClusterBorders borders;
};

/// Cluster `ids` with result position i for row i. The positions are
/// written while packing the (id, position) pairs, so no position column
/// is filled first.
ClusteredIds ClusterIdsWithPositions(std::span<const oid_t> ids,
                                     const cluster::ClusterSpec& spec,
                                     ThreadPool* pool);

/// The right side's d pack off a join index: (index[i].right, i), packed
/// in row slices on `pool` straight from the index, then clustered. The
/// one helper behind DsmPostProject and the ops/ join.
ClusteredIds ClusterIndexRight(std::span<const cluster::OidPair> index,
                               const cluster::ClusterSpec& spec,
                               ThreadPool* pool);

/// The join index in the left side's result order, straight from the
/// join's shards. c and d scatter the shards in cluster order as the first
/// left-oid Radix-Cluster pass and run any remaining passes in place of a
/// copy-back (timed in ph->cluster_seconds); u concatenates and s
/// concatenates and sorts (the concatenation timed in ph->join_seconds).
/// `ph` may be null.
join::JoinIndex IndexInLeftOrder(join::JoinShards shards,
                                 size_t left_cardinality,
                                 const hardware::MemoryHierarchy& hw,
                                 SideStrategy left, radix_bits_t left_bits,
                                 ThreadPool* pool, PhaseBreakdown* ph);

/// The left-side index reorder of DsmPostProject (sort, or cluster on the
/// left oids carrying the right oids along); no-op for kUnsorted. The
/// index as a single shard through IndexInLeftOrder.
void ReorderIndexLeft(join::JoinIndex& index, size_t left_cardinality,
                      const hardware::MemoryHierarchy& hw, SideStrategy left,
                      radix_bits_t left_bits, ThreadPool* pool);

/// The right side of a post-projection, in the result order `index` fixes:
/// u gathers straight off the index's right oids; d clusters them
/// (ClusterIndexRight), then either gathers in clustered order and
/// Radix-Declusters into `out` (chunk_rows == 0) or drains result ranges
/// of `chunk_rows` rows through the fused gather + merge (see
/// DsmPostOptions::chunk_rows). Unless `keep_index`, d frees `index` once
/// its oids are packed, so the index and the decluster's buffers are not
/// resident at the same time. s and c would reorder the result, so they
/// run as d (paper §4.1). `var_columns` / `var_out` carry the side's
/// variable-size projections (paper §5): gathered off the index for u, or
/// run through the three-phase varchar Radix-Decluster for d, in either
/// mode. `pool` may be null (serial kernels), and so may `phases`. A
/// materializing d side's clustered value column registers its bytes with
/// `gauge` (nullptr = MemoryGauge::Instance()).
void ProjectIndexRight(
    join::JoinIndex& index, bool keep_index, SideStrategy strategy,
    const std::vector<std::span<const value_t>>& columns,
    const std::vector<std::span<value_t>>& out, size_t column_cardinality,
    const hardware::MemoryHierarchy& hw, radix_bits_t bits,
    size_t window_elems, size_t chunk_rows, PhaseBreakdown* phases,
    ThreadPool* pool,
    const std::vector<const storage::VarcharColumn*>& var_columns = {},
    std::vector<storage::VarcharColumn>* var_out = nullptr,
    pipeline::MemoryGauge* gauge = nullptr);

}  // namespace detail

}  // namespace radix::project

#endif  // RADIX_PROJECT_DSM_POST_H_
