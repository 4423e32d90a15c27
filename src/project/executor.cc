#include "project/executor.h"

#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "join/partitioned_hash_join.h"
#include "join/positional_join.h"
#include "project/checksum.h"
#include "project/dsm_post.h"
#include "project/dsm_pre.h"
#include "project/nsm_post.h"
#include "project/nsm_pre.h"
#include "project/planner.h"
#include "storage/varchar.h"

namespace radix::project {

// QueryOptions re-declares the auto sentinel so its header stays light;
// the two must never drift apart (JoinAndPlanDsmPost copies the bits
// fields verbatim into DsmPostOptions, where SpecFor compares to kAuto).
static_assert(QueryOptions::kAutoBits == DsmPostOptions::kAuto);

namespace {

/// Result-order varchar columns gathered for the strategies whose primary
/// result type has no varchar slots (the NSM row results).
struct VarcharResult {
  std::vector<storage::VarcharColumn> left;
  std::vector<storage::VarcharColumn> right;

  bool empty() const { return left.empty() && right.empty(); }
  size_t rows() const {
    return !left.empty() ? left.front().size()
                         : (!right.empty() ? right.front().size() : 0);
  }
};

/// Do the query options ask for any varchar projection?
bool WantsVarchar(const QueryOptions& options) {
  return options.pi_varchar_left + options.pi_varchar_right > 0;
}

/// The base varchar columns the options select, as a DsmPostProject spec.
VarcharProjection SelectVarchars(const workload::JoinWorkload& w,
                                 const QueryOptions& options) {
  RADIX_CHECK(options.pi_varchar_left <= w.left_varchars.size());
  RADIX_CHECK(options.pi_varchar_right <= w.right_varchars.size());
  VarcharProjection var;
  for (size_t c = 0; c < options.pi_varchar_left; ++c) {
    var.left.push_back(&w.left_varchars[c]);
  }
  for (size_t c = 0; c < options.pi_varchar_right; ++c) {
    var.right.push_back(&w.right_varchars[c]);
  }
  return var;
}

/// Post-join varchar gather for the non-DSM-post strategies: `pairs` holds
/// each result row's (left, right) source oids in result order — either
/// the projection-reordered join index, or the oid pairs a pre-projection
/// join carried through. Timing lands in phases.projection_seconds (it is
/// part of the strategy's projection work).
VarcharResult GatherVarchars(std::span<const cluster::OidPair> pairs,
                             const workload::JoinWorkload& w,
                             const QueryOptions& options,
                             PhaseBreakdown* phases) {
  VarcharResult vars;
  if (!WantsVarchar(options)) return vars;
  RADIX_CHECK(options.pi_varchar_left <= w.left_varchars.size());
  RADIX_CHECK(options.pi_varchar_right <= w.right_varchars.size());
  Timer timer;
  for (size_t c = 0; c < options.pi_varchar_left; ++c) {
    vars.left.push_back(join::PositionalJoinVarcharPairs(
        pairs, /*left_side=*/true, w.left_varchars[c]));
  }
  for (size_t c = 0; c < options.pi_varchar_right; ++c) {
    vars.right.push_back(join::PositionalJoinVarcharPairs(
        pairs, /*left_side=*/false, w.right_varchars[c]));
  }
  phases->projection_seconds += timer.ElapsedSeconds();
  return vars;
}

/// NSM post-projection strategies must first extract the key attribute from
/// the wide records (part of their join-phase cost).
std::vector<value_t> ExtractNsmKeys(const storage::NsmRelation& rel) {
  std::vector<value_t> keys(rel.cardinality());
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = rel.key(i);
  return keys;
}

/// Shared prologue of the materializing and streaming kDsmPostDecluster
/// paths: run the join phase and resolve the per-side plan. Kept in one
/// place so the two entry points can never plan differently. The plan
/// needs only the base cardinalities, so the index is not materialized
/// here: the projector turns the shards into the index in the planned left
/// order (a c/d left side fuses the concatenation into its first
/// Radix-Cluster pass).
join::JoinShards JoinAndPlanDsmPost(const workload::JoinWorkload& w,
                                    const QueryOptions& options,
                                    const hardware::MemoryHierarchy& hw,
                                    ThreadPool* pool, QueryRun* run,
                                    DsmPostOptions* popts) {
  Timer join_timer;
  join::PartitionedHashJoinOptions jopts;
  jopts.pool = pool;
  join::JoinShards shards = join::PartitionedHashJoinShards(
      w.dsm_left.key().span(), w.dsm_right.key().span(), hw, jopts);
  run->phases.join_seconds = join_timer.ElapsedSeconds();

  const PinnedSides pinned{options.left, options.right};
  Plan plan = PlanDsmPost(
      w.dsm_left.cardinality(), w.dsm_right.cardinality(), options.pi_left,
      hw, options.pi_varchar_left, options.pi_varchar_right,
      workload::AverageVarcharBytes(w.left_varchars, options.pi_varchar_left),
      workload::AverageVarcharBytes(w.right_varchars,
                                    options.pi_varchar_right),
      options.plan_sides ? nullptr : &pinned);
  *popts = plan.options;
  run->detail = std::move(plan.code);
  popts->left_bits = options.left_bits;
  popts->right_bits = options.right_bits;
  popts->window_elems = options.window_elems;
  popts->pool = pool;
  popts->gauge = options.gauge;
  run->threads_used = pool != nullptr ? pool->num_threads() : 1;
  return shards;
}

}  // namespace

QueryRun RunQuery(const workload::JoinWorkload& w, JoinStrategy strategy,
                  const QueryOptions& options,
                  const hardware::MemoryHierarchy& hw) {
  QueryRun run;
  run.strategy = strategy;
  Timer total;
  // Kernels of the strategies that have parallel paths, and the result
  // checksum of every strategy, run on this pool.
  ThreadPool* pool = KernelPool(options.pool);

  switch (strategy) {
    case JoinStrategy::kDsmPostDecluster: {
      DsmPostOptions popts;
      join::JoinShards shards =
          JoinAndPlanDsmPost(w, options, hw, pool, &run, &popts);
      VarcharProjection var = SelectVarchars(w, options);
      storage::DsmResult result = DsmPostProject(
          std::move(shards), w.dsm_left, w.dsm_right, options.pi_left,
          options.pi_right, hw, popts, &run.phases,
          WantsVarchar(options) ? &var : nullptr);
      run.seconds = total.ElapsedSeconds();
      run.result_cardinality = result.cardinality;
      run.checksum = ChecksumColumns(result, pool);
      return run;
    }
    case JoinStrategy::kDsmPrePhash: {
      std::vector<join::OidPair> oids;
      storage::NsmResult result =
          DsmPreProject(w.dsm_left, w.dsm_right, options.pi_left,
                        options.pi_right, hw, ~radix_bits_t{0}, &run.phases,
                        WantsVarchar(options) ? &oids : nullptr);
      VarcharResult vars = GatherVarchars(oids, w, options, &run.phases);
      run.seconds = total.ElapsedSeconds();
      // Zero-width row results collapse to cardinality 0; for varchar-only
      // projection lists the gathered columns know the true row count.
      run.result_cardinality = std::max(result.cardinality(), vars.rows());
      run.checksum = ChecksumRows(result, vars.left, vars.right, pool);
      return run;
    }
    case JoinStrategy::kNsmPreHash: {
      std::vector<join::OidPair> oids;
      storage::NsmResult result = NsmPreProjectHash(
          w.nsm_left, w.nsm_right, options.pi_left, options.pi_right,
          &run.phases, WantsVarchar(options) ? &oids : nullptr);
      VarcharResult vars = GatherVarchars(oids, w, options, &run.phases);
      run.seconds = total.ElapsedSeconds();
      run.result_cardinality = std::max(result.cardinality(), vars.rows());
      run.checksum = ChecksumRows(result, vars.left, vars.right, pool);
      return run;
    }
    case JoinStrategy::kNsmPrePhash: {
      std::vector<join::OidPair> oids;
      storage::NsmResult result = NsmPreProjectPartitionedHash(
          w.nsm_left, w.nsm_right, options.pi_left, options.pi_right, hw,
          ~radix_bits_t{0}, &run.phases,
          WantsVarchar(options) ? &oids : nullptr);
      VarcharResult vars = GatherVarchars(oids, w, options, &run.phases);
      run.seconds = total.ElapsedSeconds();
      run.result_cardinality = std::max(result.cardinality(), vars.rows());
      run.checksum = ChecksumRows(result, vars.left, vars.right, pool);
      return run;
    }
    case JoinStrategy::kNsmPostDecluster: {
      Timer join_timer;
      std::vector<value_t> lkeys = ExtractNsmKeys(w.nsm_left);
      std::vector<value_t> rkeys = ExtractNsmKeys(w.nsm_right);
      join::PartitionedHashJoinOptions jopts;
      jopts.pool = pool;
      join::JoinIndex index =
          join::PartitionedHashJoin(lkeys, rkeys, hw, jopts);
      run.phases.join_seconds = join_timer.ElapsedSeconds();
      storage::NsmResult result = NsmPostProjectDecluster(
          index, w.nsm_left, w.nsm_right, options.pi_left, options.pi_right,
          hw, &run.phases);
      // The projector reordered the index in place; it now lists each
      // result row's oid pair in result order — the varchar gather input.
      VarcharResult vars =
          GatherVarchars(index.span(), w, options, &run.phases);
      run.seconds = total.ElapsedSeconds();
      run.result_cardinality = result.cardinality();
      run.checksum = ChecksumRows(result, vars.left, vars.right, pool);
      return run;
    }
    case JoinStrategy::kNsmPostJive: {
      Timer join_timer;
      std::vector<value_t> lkeys = ExtractNsmKeys(w.nsm_left);
      std::vector<value_t> rkeys = ExtractNsmKeys(w.nsm_right);
      join::PartitionedHashJoinOptions jopts;
      jopts.pool = pool;
      join::JoinIndex index =
          join::PartitionedHashJoin(lkeys, rkeys, hw, jopts);
      run.phases.join_seconds = join_timer.ElapsedSeconds();
      storage::NsmResult result =
          NsmPostProjectJive(index, w.nsm_left, w.nsm_right, options.pi_left,
                             options.pi_right, /*cluster_bits=*/6,
                             &run.phases);
      // Jive sorts the index by left oid; result row i <-> index[i].
      VarcharResult vars =
          GatherVarchars(index.span(), w, options, &run.phases);
      run.seconds = total.ElapsedSeconds();
      run.result_cardinality = result.cardinality();
      run.checksum = ChecksumRows(result, vars.left, vars.right, pool);
      return run;
    }
  }
  RADIX_CHECK(false);
  return run;
}

QueryRun RunQueryStreaming(const workload::JoinWorkload& w,
                           JoinStrategy strategy, const QueryOptions& options,
                           const hardware::MemoryHierarchy& hw) {
  if (strategy != JoinStrategy::kDsmPostDecluster || WantsVarchar(options)) {
    // No streaming path for varchar projections yet (the fused decluster
    // writes fixed-width slots); the engine's planner mirrors this fallback,
    // so Explain never claims a varchar query streams.
    return RunQuery(w, strategy, options, hw);
  }
  QueryRun run;
  run.strategy = strategy;
  Timer total;
  ThreadPool* pool = KernelPool(options.pool);
  DsmPostOptions popts;
  join::JoinShards shards =
      JoinAndPlanDsmPost(w, options, hw, pool, &run, &popts);
  storage::DsmResult result = DsmPostProjectStreaming(
      std::move(shards), w.dsm_left, w.dsm_right, options.pi_left,
      options.pi_right, hw, popts, options.chunk_rows, &run.phases);
  run.seconds = total.ElapsedSeconds();
  run.result_cardinality = result.cardinality;
  run.checksum = ChecksumColumns(result, pool);
  return run;
}

}  // namespace radix::project
