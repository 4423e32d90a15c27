// Streamed DSM post-projection: the query-specific wiring of the generic
// pipeline/ subsystem. The blocking phases (index reorder, right-side
// cluster) run exactly as in the materializing projector, through the same
// helpers; everything downstream — per-column positional gather and
// Radix-Decluster window merge — flows through StreamingExecutor in
// cluster-aligned chunks, so the two stages overlap and intermediates stay
// chunk-sized.

#include <algorithm>

#include "common/timer.h"
#include "decluster/window.h"
#include "pipeline/executor.h"
#include "pipeline/operators.h"
#include "project/dsm_post.h"

namespace radix::project {

namespace {

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
  Timer timer;

  // Blocking prefix, identical to DsmPostProject: byte-identical inputs to
  // the streamed stages guarantee byte-identical output columns.
  join::JoinIndex index =
      detail::IndexInLeftOrder(std::move(shards), left.cardinality(), hw,
                               options.left, options.left_bits, pool, ph);

  pipeline::ExecutorOptions xopts;
  xopts.pool = pool;
  xopts.gauge = options.gauge;

  // Left projections preserve the (reordered) index order, so each chunk
  // gathers straight into its row range of the result — no intermediates.
  {
    std::vector<std::span<const value_t>> cols(pi_left);
    std::vector<std::span<value_t>> outs(pi_left);
    for (size_t a = 0; a < pi_left; ++a) {
      cols[a] = left.attr(1 + a).span();
      outs[a] = result.left_columns[a].span();
    }
    pipeline::ChunkPlan plan = pipeline::MakeRowChunks(n, chunk_rows);
    pipeline::PairsGatherStage gather(index.span(), /*left_side=*/true,
                                      std::move(cols), std::move(outs));
    pipeline::StreamingExecutor exec(xopts);
    pipeline::PipelineStats stats;
    ph->pipeline_wall_seconds += exec.Run(plan, gather, nullptr, &stats);
    ph->projection_seconds += stats.gather_busy_seconds;
  }

  std::vector<std::span<const value_t>> cols(pi_right);
  std::vector<std::span<value_t>> outs(pi_right);
  for (size_t a = 0; a < pi_right; ++a) {
    cols[a] = right.attr(1 + a).span();
    outs[a] = result.right_columns[a].span();
  }

  if (options.right == SideStrategy::kUnsorted) {
    // Result order is index order: gather off the index's right oids.
    pipeline::ChunkPlan plan = pipeline::MakeRowChunks(n, chunk_rows);
    pipeline::PairsGatherStage gather(index.span(), /*left_side=*/false,
                                      std::move(cols), std::move(outs));
    pipeline::StreamingExecutor exec(xopts);
    pipeline::PipelineStats stats;
    ph->pipeline_wall_seconds += exec.Run(plan, gather, nullptr, &stats);
    ph->projection_seconds += stats.gather_busy_seconds;
  } else {
    // Decluster side — s and c too, by the same §4.1 rule as the
    // materializing projector: only u and d preserve the result order the
    // left side fixed. Blocking: cluster (right id, result position) pairs
    // on the id values. Streamed: gather chunk k+1's values while chunk
    // k's window merge scatters into the result.
    timer.Reset();
    cluster::ClusterSpec spec =
        detail::SpecFor(SideStrategy::kClustered, n, right.cardinality(), hw,
                        options.right_bits);
    detail::ClusteredIds c = detail::ClusterIndexRight(index.span(), spec, pool);
    // The streamed stages read only `c`; free the index unless the caller
    // keeps it.
    if (ordered == nullptr) index = join::JoinIndex();
    ph->cluster_seconds += timer.ElapsedSeconds();

    size_t window = options.window_elems;
    if (window == 0) {
      window = decluster::WindowPolicy::ChooseWindowElems(
          hw, sizeof(value_t), c.borders.num_clusters(), n);
    }
    pipeline::ChunkPlan plan =
        pipeline::MakeClusterAlignedChunks(c.borders, chunk_rows);
    xopts.buffer_columns = pi_right;
    xopts.buffer_rows = plan.max_rows;
    pipeline::ClusteredGatherStage gather(c.ids, std::move(cols));
    pipeline::DeclusterMergeSink sink(c.result_pos, &c.borders, window,
                                      std::move(outs));
    pipeline::StreamingExecutor exec(xopts);
    pipeline::PipelineStats stats;
    ph->pipeline_wall_seconds += exec.Run(plan, gather, &sink, &stats);
    ph->projection_seconds += stats.gather_busy_seconds;
    ph->decluster_seconds += stats.sink_busy_seconds;
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
