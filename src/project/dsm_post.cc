#include "project/dsm_post.h"
#include "common/overflow.h"

#include <algorithm>

#include "common/thread_pool.h"

#include "cluster/partition_plan.h"
#include "cluster/radix_count.h"
#include "cluster/radix_sort.h"
#include "common/timer.h"
#include "decluster/paged_decluster.h"
#include "decluster/radix_decluster.h"
#include "decluster/window.h"
#include "join/positional_join.h"
#include "pipeline/chunk.h"
#include "storage/column.h"

namespace radix::project {

namespace detail {

using cluster::ClusterBorders;
using cluster::ClusterSpec;

namespace {

/// The decluster side's cluster tuple: an id and the result row it feeds.
struct IdPos {
  oid_t id;
  oid_t pos;
};

/// Cluster n (id, position) pairs on the id into a fresh ClusteredIds.
/// `pack(i)` yields row i's pair. The first pass reads the pairs straight
/// from `pack` (RadixClusterPassRows), so no packed copy is written first;
/// a one-pass spec scatters straight into the split id and position
/// columns, so nothing is unpacked either. Several passes stage the pairs
/// in two buffers, and the unpack reads whichever one the last pass wrote.
/// Byte-identical to packing all pairs and running RadixClusterMultiPass.
template <typename PackFn>
ClusteredIds ClusterWithPositions(size_t n, const PackFn& pack,
                                  const ClusterSpec& spec, ThreadPool* pool) {
  RADIX_CHECK(cluster::ValidateClusterSpec(spec).ok());
  CheckOidCapacity(n);
  ClusteredIds c;
  c.ids.resize(n);
  c.result_pos.resize(n);
  c.borders.offsets = {0, n};
  ThreadPool* p = SliceCount(pool, n) > 1 ? pool : nullptr;
  auto unpack_to = [&](uint64_t at, const IdPos& t) {
    c.ids[at] = t.id;
    c.result_pos[at] = t.pos;
  };
  if (spec.total_bits == 0) {
    ForEachSlice(p, n, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) unpack_to(i, pack(i));
    });
    return c;
  }

  const radix_bits_t first = spec.PassBits()[0];
  const uint32_t shift = spec.ignore_bits + spec.total_bits - first;
  const ClusterSpec tail = spec.Tail();
  auto radix = [](const IdPos& t) -> uint64_t { return t.id; };
  if (tail.total_bits == 0) {
    c.borders.offsets = cluster::RadixClusterPassRows(n, pack, radix, shift,
                                                      first, unpack_to, p);
    return c;
  }
  UninitVector<IdPos> pairs(n);
  UninitVector<IdPos> scratch(n);
  c.borders.offsets = cluster::RadixClusterPassRows(
      n, pack, radix, shift, first,
      [&](uint64_t at, const IdPos& t) { pairs[at] = t; }, p);
  const IdPos* clustered = cluster::RadixRefineClusters(
      pairs.data(), scratch.data(), &c.borders, radix, tail, p);
  ForEachSlice(p, n, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) unpack_to(i, clustered[i]);
  });
  return c;
}

/// The c/d left reorder fused into the join's output: scatter the shards in
/// cluster order as the first left-oid pass (stable, so byte-identical to
/// concatenate + pass), then run the remaining passes, keeping whichever
/// buffer the last one wrote.
join::JoinIndex ClusterShardsLeft(join::JoinShards shards,
                                  const ClusterSpec& spec, ThreadPool* pool) {
  RADIX_CHECK(cluster::ValidateClusterSpec(spec).ok());
  const size_t n = shards.size();
  const size_t slices = SliceCount(pool, n);
  ThreadPool* p = slices > 1 ? pool : nullptr;
  auto radix = [](const cluster::OidPair& t) -> uint64_t { return t.left; };
  const radix_bits_t first = spec.PassBits()[0];

  join::OidPairs out(n);
  ClusterBorders borders;
  cluster::RadixClusterPassSegments<cluster::OidPair>(
      shards.Segments((n + slices - 1) / slices), out.data(), radix,
      spec.ignore_bits + spec.total_bits - first, first, &borders.offsets, p);
  // Free the shards before the remaining passes allocate their scratch.
  shards.Clear();
  const ClusterSpec tail = spec.Tail();
  if (tail.total_bits > 0) {
    join::OidPairs scratch(n);
    if (cluster::RadixRefineClusters(out.data(), scratch.data(), &borders,
                                     radix, tail, p) != out.data()) {
      out.swap(scratch);
    }
  }
  return join::JoinIndex(std::move(out));
}

}  // namespace

ClusterBorders ClusterIds(std::vector<oid_t>& ids, std::vector<oid_t>& perm,
                          const ClusterSpec& spec, ThreadPool* pool) {
  if (perm.empty()) {
    storage::Column<oid_t> scratch(ids.size());
    auto radix = [](oid_t v) -> uint64_t { return v; };
    if (pool != nullptr) {
      return cluster::RadixClusterMultiPassParallel(
          ids.data(), scratch.data(), ids.size(), radix, spec, *pool);
    }
    simcache::NoTracer tracer;
    return cluster::RadixClusterMultiPass(ids.data(), scratch.data(),
                                          ids.size(), radix, spec, tracer);
  }
  RADIX_CHECK(perm.size() == ids.size());
  ClusteredIds c = ClusterWithPositions(
      ids.size(), [&](size_t i) { return IdPos{ids[i], perm[i]}; }, spec,
      pool);
  ForEachSlice(pool, ids.size(), [&](size_t begin, size_t end) {
    std::copy(c.ids.begin() + begin, c.ids.begin() + end, ids.begin() + begin);
    std::copy(c.result_pos.begin() + begin, c.result_pos.begin() + end,
              perm.begin() + begin);
  });
  return std::move(c.borders);
}

ClusteredIds ClusterIdsWithPositions(std::span<const oid_t> ids,
                                     const ClusterSpec& spec,
                                     ThreadPool* pool) {
  return ClusterWithPositions(
      ids.size(),
      [&](size_t i) { return IdPos{ids[i], static_cast<oid_t>(i)}; }, spec,
      pool);
}

ClusteredIds ClusterIndexRight(std::span<const cluster::OidPair> index,
                               const ClusterSpec& spec, ThreadPool* pool) {
  return ClusterWithPositions(
      index.size(),
      [&](size_t i) { return IdPos{index[i].right, static_cast<oid_t>(i)}; },
      spec, pool);
}

ClusterSpec SpecFor(SideStrategy strategy, size_t index_tuples,
                    size_t column_cardinality,
                    const hardware::MemoryHierarchy& hw, radix_bits_t bits) {
  ClusterSpec spec;
  if (strategy == SideStrategy::kSorted) {
    spec.total_bits = SignificantBits(column_cardinality ? column_cardinality : 1);
    spec.ignore_bits = 0;
  } else {
    if (bits == DsmPostOptions::kAuto) {
      spec = cluster::PartialClusterSpec(index_tuples, column_cardinality,
                                         sizeof(value_t), hw);
      return spec;
    }
    spec.total_bits = bits;
    radix_bits_t sig = SignificantBits(column_cardinality ? column_cardinality : 1);
    spec.ignore_bits = sig > bits ? sig - bits : 0;
  }
  spec.passes = cluster::PassesFor(spec.total_bits, hw);
  return spec;
}

join::JoinIndex IndexInLeftOrder(join::JoinShards shards,
                                 size_t left_cardinality,
                                 const hardware::MemoryHierarchy& hw,
                                 SideStrategy left, radix_bits_t left_bits,
                                 ThreadPool* pool, PhaseBreakdown* ph) {
  CheckOidCapacity(left_cardinality);
  PhaseBreakdown local;
  if (ph == nullptr) ph = &local;
  Timer timer;
  if (left == SideStrategy::kClustered || left == SideStrategy::kDecluster) {
    ClusterSpec spec = SpecFor(SideStrategy::kClustered, shards.size(),
                               left_cardinality, hw, left_bits);
    if (spec.total_bits > 0) {
      join::JoinIndex index = ClusterShardsLeft(std::move(shards), spec, pool);
      ph->cluster_seconds += timer.ElapsedSeconds();
      return index;
    }
  }
  join::JoinIndex index = shards.Concat(pool);
  ph->join_seconds += timer.ElapsedSeconds();
  if (left == SideStrategy::kSorted) {
    timer.Reset();
    cluster::RadixSortJoinIndex(index.span(),
                                static_cast<oid_t>(left_cardinality),
                                /*by_left=*/true);
    ph->cluster_seconds += timer.ElapsedSeconds();
  }
  return index;
}

void ReorderIndexLeft(join::JoinIndex& index, size_t left_cardinality,
                      const hardware::MemoryHierarchy& hw, SideStrategy left,
                      radix_bits_t left_bits, ThreadPool* pool) {
  index = IndexInLeftOrder(join::JoinShards(std::move(index)),
                           left_cardinality, hw, left, left_bits, pool,
                           nullptr);
}

}  // namespace detail

size_t DefaultChunkRows(const hardware::MemoryHierarchy& hw) {
  return std::max<size_t>(1,
                          hw.target_cache().capacity_bytes / sizeof(value_t));
}

namespace {

using cluster::ClusterBorders;
using cluster::ClusterSpec;
using detail::ClusterIds;
using detail::ClusteredIds;
using detail::SpecFor;

/// The decluster side after its Radix-Cluster (paper Fig. 4): positional-
/// join fetches each column's values in clustered order (cache-friendly);
/// Radix-Decluster puts them back in result order. A non-zero `chunk_rows`
/// fuses the two: RadixDeclusterGather fetches each value inside the merge,
/// one result range per grain, so no value buffer exists.
void ProjectClustered(const ClusteredIds& c,
                      const std::vector<std::span<const value_t>>& columns,
                      const std::vector<std::span<value_t>>& out,
                      const hardware::MemoryHierarchy& hw, size_t window_elems,
                      size_t chunk_rows, PhaseBreakdown* ph, ThreadPool* pool,
                      pipeline::MemoryGauge* gauge,
                      const std::vector<const storage::VarcharColumn*>&
                          var_columns,
                      std::vector<storage::VarcharColumn>* var_out) {
  const size_t n = c.ids.size();
  Timer timer;
  if (chunk_rows != 0) {
    decluster::RadixDeclusterGather<value_t>(
        columns, c.ids, c.result_pos, decluster::MakeCursors(c.borders),
        chunk_rows, out, pool, &ph->decluster_seconds);
    ph->pipeline_wall_seconds += timer.ElapsedSeconds();
  } else {
    size_t window = window_elems;
    if (window == 0) {
      window = decluster::WindowPolicy::ChooseWindowElems(
          hw, sizeof(value_t), c.borders.num_clusters(), n);
    }
    // The clustered value column is the query's one N-sized value
    // intermediate; `gauge` measures what admission reserved for it.
    pipeline::ChunkArena clust_arena;
    clust_arena.Reset(1, n, gauge);
    const std::span<value_t> clust_values(clust_arena.column(0), n);
    for (size_t a = 0; a < columns.size(); ++a) {
      timer.Reset();
      join::PositionalJoinColumns<value_t>(c.ids, {columns[a]},
                                           {clust_values}, pool);
      ph->projection_seconds += timer.ElapsedSeconds();
      timer.Reset();
      std::vector<decluster::ClusterCursor> cursors =
          decluster::MakeCursors(c.borders);
      if (pool != nullptr) {
        decluster::RadixDeclusterParallel<value_t>(
            clust_values, c.result_pos, cursors, window, out[a], *pool);
      } else {
        decluster::RadixDecluster<value_t>(clust_values, c.result_pos,
                                           std::move(cursors), window, out[a]);
      }
      ph->decluster_seconds += timer.ElapsedSeconds();
    }
  }
  // Varchar columns run the three-phase scheme of paper Fig. 12: fetch
  // in clustered order, then decluster lengths -> prefix-sum -> bytes.
  for (const storage::VarcharColumn* vc : var_columns) {
    timer.Reset();
    storage::VarcharColumn clustered = storage::PositionalJoinVarchar(c.ids, *vc);
    ph->projection_seconds += timer.ElapsedSeconds();
    timer.Reset();
    size_t vwindow = window_elems;
    if (vwindow == 0) {
      // Size the insertion window for the *byte* traffic of phase 3:
      // the window holds avg_len-byte values, not 4-byte ints.
      size_t avg = clustered.size() == 0
                       ? 1
                       : std::max<size_t>(
                             1, clustered.heap_bytes() / clustered.size());
      vwindow = decluster::WindowPolicy::ChooseWindowElems(
          hw, std::max(sizeof(uint32_t), avg), c.borders.num_clusters(), n);
    }
    var_out->push_back(decluster::RadixDeclusterVarchar(
        clustered, c.result_pos, c.borders, vwindow));
    const double seconds = timer.ElapsedSeconds();
    ph->decluster_seconds += seconds;
    // A streamed decluster phase counts by its wall time (PhaseBreakdown::
    // total()); the serial varchar merge's busy time is its wall time.
    if (chunk_rows != 0) ph->pipeline_wall_seconds += seconds;
  }
}

}  // namespace

namespace detail {

void ProjectIndexRight(
    join::JoinIndex& index, bool keep_index, SideStrategy strategy,
    const std::vector<std::span<const value_t>>& columns,
    const std::vector<std::span<value_t>>& out, size_t column_cardinality,
    const hardware::MemoryHierarchy& hw, radix_bits_t bits,
    size_t window_elems, size_t chunk_rows, PhaseBreakdown* phases,
    ThreadPool* pool,
    const std::vector<const storage::VarcharColumn*>& var_columns,
    std::vector<storage::VarcharColumn>* var_out,
    pipeline::MemoryGauge* gauge) {
  RADIX_CHECK(columns.size() == out.size());
  RADIX_CHECK(var_columns.empty() || var_out != nullptr);
  PhaseBreakdown local;
  PhaseBreakdown* ph = phases != nullptr ? phases : &local;
  Timer timer;
  if (strategy == SideStrategy::kUnsorted) {
    join::PositionalJoinPairsColumns<value_t, /*kLeft=*/false>(
        index.span(), columns, out, pool);
    for (const storage::VarcharColumn* col : var_columns) {
      var_out->push_back(join::PositionalJoinVarcharPairs(
          index.span(), /*left_side=*/false, *col));
    }
    ph->projection_seconds += timer.ElapsedSeconds();
    return;
  }
  // Reordering the right ids alone would desynchronize the sides; only
  // u and d preserve result order, as the paper notes (§4.1: sorting or
  // partial-cluster "is only applicable to the first projection table").
  ClusterSpec spec = SpecFor(SideStrategy::kClustered, index.size(),
                             column_cardinality, hw, bits);
  ClusteredIds c = ClusterIndexRight(index.span(), spec, pool);
  if (!keep_index) index = join::JoinIndex();
  ph->cluster_seconds += timer.ElapsedSeconds();
  ProjectClustered(c, columns, out, hw, window_elems, chunk_rows, ph, pool,
                   gauge, var_columns, var_out);
}

}  // namespace detail

void ProjectSide(std::vector<oid_t>& ids, SideStrategy strategy,
                 const std::vector<std::span<const value_t>>& columns,
                 const std::vector<std::span<value_t>>& out,
                 size_t column_cardinality,
                 const hardware::MemoryHierarchy& hw, radix_bits_t bits,
                 size_t window_elems, PhaseBreakdown* phases,
                 ThreadPool* pool) {
  RADIX_CHECK(columns.size() == out.size());
  pool = KernelPool(pool);
  PhaseBreakdown local;
  PhaseBreakdown* ph = phases != nullptr ? phases : &local;
  Timer timer;

  switch (strategy) {
    case SideStrategy::kUnsorted:
      break;
    case SideStrategy::kSorted:
    case SideStrategy::kClustered: {
      // Reorder the ids (full sort or partial cluster), then positional
      // joins see sequential / cache-confined access (paper §3.1).
      ClusterSpec spec =
          SpecFor(strategy, ids.size(), column_cardinality, hw, bits);
      std::vector<oid_t> no_perm;
      ClusterIds(ids, no_perm, spec, pool);
      ph->cluster_seconds += timer.ElapsedSeconds();
      break;
    }
    case SideStrategy::kDecluster: {
      // Paper Fig. 4: cluster (ids, result positions) on the id values,
      // then gather in clustered order and decluster into result order.
      ClusterSpec spec = SpecFor(SideStrategy::kClustered, ids.size(),
                                 column_cardinality, hw, bits);
      ClusteredIds c = detail::ClusterIdsWithPositions(ids, spec, pool);
      ph->cluster_seconds += timer.ElapsedSeconds();
      ProjectClustered(c, columns, out, hw, window_elems, /*chunk_rows=*/0,
                       ph, pool, /*gauge=*/nullptr, {}, nullptr);
      return;
    }
  }
  timer.Reset();
  join::PositionalJoinColumns<value_t>(ids, columns, out, pool);
  ph->projection_seconds += timer.ElapsedSeconds();
}

namespace {

/// DsmPostProject off shards; `ordered`, when non-null, receives the index
/// in result order.
storage::DsmResult ProjectShards(join::JoinShards shards,
                                 const storage::DsmRelation& left,
                                 const storage::DsmRelation& right,
                                 size_t pi_left, size_t pi_right,
                                 const hardware::MemoryHierarchy& hw,
                                 const DsmPostOptions& options,
                                 PhaseBreakdown* phases,
                                 const VarcharProjection* varchar,
                                 join::JoinIndex* ordered) {
  RADIX_CHECK(pi_left + 1 <= left.num_attrs());
  RADIX_CHECK(pi_right + 1 <= right.num_attrs());
  size_t n = shards.size();
  static const VarcharProjection kNoVarchar;
  const VarcharProjection& var = varchar != nullptr ? *varchar : kNoVarchar;

  storage::DsmResult result;
  result.cardinality = n;
  result.left_columns.resize(pi_left);
  result.right_columns.resize(pi_right);
  for (auto& c : result.left_columns) c.Resize(n);
  for (auto& c : result.right_columns) c.Resize(n);
  result.left_varchars.reserve(var.left.size());
  result.right_varchars.reserve(var.right.size());

  // Reordering the join index on the left side must carry the right oids
  // along: cluster/sort the [l,r] pairs; the right side then reads its oids
  // straight off the reordered pairs.
  PhaseBreakdown local;
  PhaseBreakdown* ph = phases != nullptr ? phases : &local;
  ThreadPool* pool = KernelPool(options.pool);
  join::JoinIndex index =
      detail::IndexInLeftOrder(std::move(shards), left.cardinality(), hw,
                               options.left, options.left_bits, pool, ph);

  // Left projections: ids now (partially) ordered; plain positional joins.
  Timer timer;
  std::vector<std::span<const value_t>> left_cols(pi_left);
  std::vector<std::span<value_t>> left_out(pi_left);
  for (size_t a = 0; a < pi_left; ++a) {
    left_cols[a] = left.attr(1 + a).span();
    left_out[a] = result.left_columns[a].span();
  }
  join::PositionalJoinPairsColumns<value_t, /*kLeft=*/true>(
      index.span(), left_cols, left_out, pool);
  ph->projection_seconds += timer.ElapsedSeconds();
  if (!var.left.empty()) {
    // Left varchars gather off the reordered index — result order is index
    // order for every left strategy, so no decluster pass is needed.
    timer.Reset();
    for (const storage::VarcharColumn* col : var.left) {
      result.left_varchars.push_back(join::PositionalJoinVarcharPairs(
          index.span(), /*left_side=*/true, *col));
    }
    ph->projection_seconds += timer.ElapsedSeconds();
  }

  // Right projections in the (possibly re-ordered) result order, on this
  // function's pool rather than a second one.
  std::vector<std::span<const value_t>> right_cols(pi_right);
  std::vector<std::span<value_t>> right_out(pi_right);
  for (size_t a = 0; a < pi_right; ++a) {
    right_cols[a] = right.attr(1 + a).span();
    right_out[a] = result.right_columns[a].span();
  }
  detail::ProjectIndexRight(index, /*keep_index=*/ordered != nullptr,
                            options.right, right_cols, right_out,
                            right.cardinality(), hw, options.right_bits,
                            options.window_elems, options.chunk_rows, ph,
                            pool, var.right, &result.right_varchars,
                            options.gauge);
  if (ordered != nullptr) *ordered = std::move(index);
  return result;
}

}  // namespace

storage::DsmResult DsmPostProject(join::JoinIndex& index,
                                  const storage::DsmRelation& left,
                                  const storage::DsmRelation& right,
                                  size_t pi_left, size_t pi_right,
                                  const hardware::MemoryHierarchy& hw,
                                  const DsmPostOptions& options,
                                  PhaseBreakdown* phases,
                                  const VarcharProjection* varchar) {
  return ProjectShards(join::JoinShards(std::move(index)), left, right,
                       pi_left, pi_right, hw, options, phases, varchar,
                       &index);
}

storage::DsmResult DsmPostProject(join::JoinShards shards,
                                  const storage::DsmRelation& left,
                                  const storage::DsmRelation& right,
                                  size_t pi_left, size_t pi_right,
                                  const hardware::MemoryHierarchy& hw,
                                  const DsmPostOptions& options,
                                  PhaseBreakdown* phases,
                                  const VarcharProjection* varchar) {
  return ProjectShards(std::move(shards), left, right, pi_left, pi_right, hw,
                       options, phases, varchar, nullptr);
}

}  // namespace radix::project
