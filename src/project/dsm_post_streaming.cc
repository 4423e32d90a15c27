// Streamed DSM post-projection. The blocking prefix (index reorder,
// right-side cluster) runs exactly as in the materializing projector,
// through the same helpers. Downstream nothing is materialized: the
// order-preserving gathers run over row chunks straight into the result,
// and the decluster side runs decluster::RadixDeclusterGather, which
// fetches each value inside the merge, one result range per grain — so no
// value intermediate exists at any chunk size.

#include <atomic>

#include "common/timer.h"
#include "decluster/radix_decluster.h"
#include "join/positional_join.h"
#include "pipeline/chunk.h"
#include "project/dsm_post.h"

namespace radix::project {

namespace {

/// Gather `cols` off one side of `index` in index order, one row chunk per
/// grain, straight into `outs`. Summed grain time goes to
/// ph->projection_seconds, wall time to ph->pipeline_wall_seconds.
template <bool kLeft>
void GatherInRowChunks(std::span<const cluster::OidPair> index,
                       const std::vector<std::span<const value_t>>& cols,
                       const std::vector<std::span<value_t>>& outs,
                       size_t chunk_rows, ThreadPool* pool,
                       PhaseBreakdown* ph) {
  const pipeline::ChunkPlan plan =
      pipeline::MakeRowChunks(index.size(), chunk_rows);
  std::atomic<uint64_t> busy_nanos{0};
  auto gather = [&](size_t k) {
    Timer timer;
    const pipeline::ChunkDesc& d = plan.chunks[k];
    for (size_t a = 0; a < cols.size(); ++a) {
      join::PositionalJoinPairsRange<value_t, kLeft>(
          index, d.row_begin, d.row_end, cols[a], outs[a].data() + d.row_begin);
    }
    busy_nanos.fetch_add(timer.ElapsedNanos(), std::memory_order_relaxed);
  };
  Timer wall;
  if (pool == nullptr) {
    for (size_t k = 0; k < plan.chunks.size(); ++k) gather(k);
  } else {
    pool->ParallelFor(plan.chunks.size(), gather);
  }
  ph->pipeline_wall_seconds += wall.ElapsedSeconds();
  ph->projection_seconds += 1e-9 * busy_nanos.load();
}

/// DsmPostProjectStreaming off shards; `ordered`, when non-null, receives
/// the index in result order.
storage::DsmResult StreamShards(join::JoinShards shards,
                                const storage::DsmRelation& left,
                                const storage::DsmRelation& right,
                                size_t pi_left, size_t pi_right,
                                const hardware::MemoryHierarchy& hw,
                                const DsmPostOptions& options,
                                size_t chunk_rows, PhaseBreakdown* phases,
                                join::JoinIndex* ordered) {
  RADIX_CHECK(pi_left + 1 <= left.num_attrs());
  RADIX_CHECK(pi_right + 1 <= right.num_attrs());
  size_t n = shards.size();
  if (chunk_rows == 0) chunk_rows = DefaultChunkRows(hw);

  storage::DsmResult result;
  result.cardinality = n;
  result.left_columns.resize(pi_left);
  result.right_columns.resize(pi_right);
  for (auto& c : result.left_columns) c.Resize(n);
  for (auto& c : result.right_columns) c.Resize(n);

  PhaseBreakdown local;
  PhaseBreakdown* ph = phases != nullptr ? phases : &local;
  ThreadPool* pool = KernelPool(options.pool);

  // Blocking prefix, identical to DsmPostProject: byte-identical inputs to
  // the streamed stages guarantee byte-identical output columns.
  join::JoinIndex index =
      detail::IndexInLeftOrder(std::move(shards), left.cardinality(), hw,
                               options.left, options.left_bits, pool, ph);

  // Left projections preserve the (reordered) index order.
  std::vector<std::span<const value_t>> cols(pi_left);
  std::vector<std::span<value_t>> outs(pi_left);
  for (size_t a = 0; a < pi_left; ++a) {
    cols[a] = left.attr(1 + a).span();
    outs[a] = result.left_columns[a].span();
  }
  GatherInRowChunks</*kLeft=*/true>(index.span(), cols, outs, chunk_rows,
                                    pool, ph);

  cols.resize(pi_right);
  outs.resize(pi_right);
  for (size_t a = 0; a < pi_right; ++a) {
    cols[a] = right.attr(1 + a).span();
    outs[a] = result.right_columns[a].span();
  }
  if (options.right == SideStrategy::kUnsorted) {
    // Result order is index order: gather off the index's right oids.
    GatherInRowChunks</*kLeft=*/false>(index.span(), cols, outs, chunk_rows,
                                       pool, ph);
  } else {
    // Decluster side — s and c too, by the same §4.1 rule as the
    // materializing projector: only u and d preserve the result order the
    // left side fixed. Blocking: cluster (right id, result position) pairs
    // on the id values. Streamed: the fused gather + merge per result range.
    Timer timer;
    cluster::ClusterSpec spec =
        detail::SpecFor(SideStrategy::kClustered, n, right.cardinality(), hw,
                        options.right_bits);
    detail::ClusteredIds c = detail::ClusterIndexRight(index.span(), spec, pool);
    // The merge reads only `c`; free the index unless the caller keeps it.
    if (ordered == nullptr) index = join::JoinIndex();
    ph->cluster_seconds += timer.ElapsedSeconds();

    timer.Reset();
    decluster::RadixDeclusterGather<value_t>(
        cols, c.ids, c.result_pos, decluster::MakeCursors(c.borders),
        chunk_rows, outs, pool, &ph->decluster_seconds);
    ph->pipeline_wall_seconds += timer.ElapsedSeconds();
  }
  if (ordered != nullptr) *ordered = std::move(index);
  return result;
}

}  // namespace

storage::DsmResult DsmPostProjectStreaming(
    join::JoinIndex& index, const storage::DsmRelation& left,
    const storage::DsmRelation& right, size_t pi_left, size_t pi_right,
    const hardware::MemoryHierarchy& hw, const DsmPostOptions& options,
    size_t chunk_rows, PhaseBreakdown* phases) {
  return StreamShards(join::JoinShards(std::move(index)), left, right,
                      pi_left, pi_right, hw, options, chunk_rows, phases,
                      &index);
}

storage::DsmResult DsmPostProjectStreaming(
    join::JoinShards shards, const storage::DsmRelation& left,
    const storage::DsmRelation& right, size_t pi_left, size_t pi_right,
    const hardware::MemoryHierarchy& hw, const DsmPostOptions& options,
    size_t chunk_rows, PhaseBreakdown* phases) {
  return StreamShards(std::move(shards), left, right, pi_left, pi_right, hw,
                      options, chunk_rows, phases, nullptr);
}

}  // namespace radix::project
