#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "cluster/partition_plan.h"
#include "cluster/radix_cluster.h"
#include "common/thread_pool.h"
#include "decluster/window.h"
#include "engine/plan_cache.h"
#include "project/planner.h"

namespace radix::engine {

namespace {

using costmodel::CostEstimate;
using project::JoinStrategy;
using project::SideStrategy;

/// add * factor folded into `into` (misses and seconds alike).
void Accumulate(CostEstimate* into, const CostEstimate& add, double factor) {
  into->misses += add.misses * factor;
  into->seconds += add.seconds * factor;
}

const char* ModeName(bool streaming) {
  return streaming ? "streaming" : "materializing";
}

/// The spec's projection counts against the relations its strategy reads:
/// a count the workload cannot serve is the client's error, returned as a
/// Status before it reaches the executors' RADIX_CHECKs.
Status ValidateProjection(const workload::JoinWorkload& w,
                          const QuerySpec& spec) {
  const bool nsm = spec.strategy == JoinStrategy::kNsmPreHash ||
                   spec.strategy == JoinStrategy::kNsmPrePhash ||
                   spec.strategy == JoinStrategy::kNsmPostDecluster ||
                   spec.strategy == JoinStrategy::kNsmPostJive;
  // num_attrs() counts the key, which is never projected.
  const size_t attrs_left =
      nsm ? w.nsm_left.num_attrs() : w.dsm_left.num_attrs();
  const size_t attrs_right =
      nsm ? w.nsm_right.num_attrs() : w.dsm_right.num_attrs();
  if (attrs_left == 0 || attrs_right == 0) {
    return Status::InvalidArgument(
        "the strategy's relations are not built (JoinWorkloadSpec::build_nsm)");
  }
  auto too_many = [](const char* what, size_t asked, size_t have) {
    std::string msg(what);
    msg += " = ";
    msg += std::to_string(asked);
    msg += " exceeds the workload's ";
    msg += std::to_string(have);
    return Status::InvalidArgument(std::move(msg));
  };
  if (spec.pi_left > attrs_left - 1) {
    return too_many("pi_left", spec.pi_left, attrs_left - 1);
  }
  if (spec.pi_right > attrs_right - 1) {
    return too_many("pi_right", spec.pi_right, attrs_right - 1);
  }
  if (spec.pi_varchar_left > w.left_varchars.size()) {
    return too_many("pi_varchar_left", spec.pi_varchar_left,
                    w.left_varchars.size());
  }
  if (spec.pi_varchar_right > w.right_varchars.size()) {
    return too_many("pi_varchar_right", spec.pi_varchar_right,
                    w.right_varchars.size());
  }
  return Status::OK();
}

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(std::move(config)),
      admission_(config_.admission_budget_bytes, config_.clock) {
  hw_ = config_.hierarchy.caches.empty()
            ? hardware::MemoryHierarchy::Detect()
            : config_.hierarchy;
  if (config_.calibrate_on_startup) {
    hardware::Calibrator calibrator(config_.calibrator_options);
    hw_ = calibrator.Calibrate(hw_);
    // Refine the cost model's CPU terms from the *dispatched* kernels (the
    // tier cpu::ActiveIsa() picked), so a SIMD variant that changes the
    // per-tuple instruction cost moves the model with it instead of
    // silently widening the Fig. 9 modeled-vs-measured gap.
    const hardware::Calibrator::KernelSpeeds speeds =
        calibrator.MeasureKernelSpeeds();
    if (speeds.gather_ns_per_tuple > 0.0) {
      config_.cpu_costs.pos_join_ns_per_tuple = speeds.gather_ns_per_tuple;
    }
    if (speeds.cluster_ns_per_tuple > 0.0) {
      config_.cpu_costs.cluster_ns_per_tuple = speeds.cluster_ns_per_tuple;
    }
  }
  // Keep config() consistent with the session: its hierarchy reflects the
  // resolved (detected/calibrated) profile, not the pre-startup input.
  config_.hierarchy = hw_;
  size_t threads = config_.num_threads;
  if (threads == 0) threads = ThreadPool::DefaultThreads();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  plan_cache_ = std::make_unique<PlanCache>(config_.plan_cache_capacity);
}

Engine::~Engine() = default;

size_t Engine::num_threads() const {
  return pool_ != nullptr ? pool_->num_threads() : 1;
}

PreparedQuery Engine::Prepare(const workload::JoinWorkload& workload,
                              const QuerySpec& spec) const {
  // A repeated plan-affecting shape (see PlanCacheKey) skips planning,
  // cost-model evaluation and hardware-profile lookups entirely: every
  // other Prepare() input is fixed for the life of this engine.
  const std::string cache_key = PlanCacheKey(workload, spec);
  Explanation cached;
  if (plan_cache_->Lookup(cache_key, &cached)) {
    return PreparedQuery(this, &workload, spec, std::move(cached));
  }
  const hardware::MemoryHierarchy& hw = hw_;
  const costmodel::CpuCosts& cpu = config_.cpu_costs;
  const size_t n_left = workload.dsm_left.cardinality();
  const size_t n_right = workload.dsm_right.cardinality();
  // Cardinality estimate for the cost model; the generator knows the true
  // value, a real system would use join selectivity statistics. The plan
  // *choice* never depends on it (PlanDsmPost plans from the base
  // cardinalities), so execution is identical to a direct RunQuery.
  const size_t n_index = workload.expected_result_size;
  const double pi_l = static_cast<double>(std::max<size_t>(1, spec.pi_left));
  const double pi_r = static_cast<double>(std::max<size_t>(1, spec.pi_right));

  const size_t var_l = spec.pi_varchar_left;
  const size_t var_r = spec.pi_varchar_right;
  const size_t avg_var_l =
      workload::AverageVarcharBytes(workload.left_varchars, var_l);
  const size_t avg_var_r =
      workload::AverageVarcharBytes(workload.right_varchars, var_r);

  Explanation ex;
  ex.strategy = spec.strategy;
  ex.threads = num_threads();
  ex.cache_geometry = hw.CacheSummary();
  ex.estimated_result_rows = n_index;
  // Point-ish queries (small inputs and result) run their grains at high
  // priority on the shared pool, overtaking heavy queries' queued grains
  // at every grain boundary.
  ex.high_priority = std::max({n_left, n_right, n_index}) <=
                     config_.point_query_rows_threshold;
  ex.varchar_cols = var_l + var_r;
  if (ex.varchar_cols > 0) {
    size_t values = var_l + var_r;
    ex.avg_varchar_len = (avg_var_l * var_l + avg_var_r * var_r) / values;
  }

  // A varchar positional join touches the 8-byte offset array plus
  // avg_len heap bytes per tuple; model it as a gather of that width.
  const size_t var_width_l = sizeof(uint64_t) + avg_var_l;
  const size_t var_width_r = sizeof(uint64_t) + avg_var_r;

  // The join index is [left-oid, right-oid] pairs for every strategy that
  // builds one; its partitioned hash join is clustered by cache geometry.
  const size_t pair_width = sizeof(cluster::KeyOid);
  const radix_bits_t join_bits =
      cluster::PartitionedJoinBits(n_right, pair_width, hw);

  switch (spec.strategy) {
    case JoinStrategy::kDsmPostDecluster: {
      // Resolve the per-side plan exactly as the executor will.
      const project::PinnedSides pinned{spec.left, spec.right};
      project::Plan plan = project::PlanDsmPost(
          n_left, n_right, spec.pi_left, hw, var_l, var_r, avg_var_l,
          avg_var_r, spec.plan_sides ? nullptr : &pinned);
      ex.side_options = plan.options;
      ex.easy = plan.easy;
      ex.plan_code = std::move(plan.code);
      ex.side_options.left_bits = spec.left_bits;
      ex.side_options.right_bits = spec.right_bits;
      ex.side_options.window_elems = spec.window_elems;

      // Per-query chunking overrides beat the engine's session policy.
      const ChunkingPolicy policy =
          spec.chunking == ChunkingPolicy::kEngineDefault ? config_.chunking
                                                          : spec.chunking;
      if (ex.side_options.right == SideStrategy::kUnsorted) {
        // No value intermediates; an explicit kStream policy still streams
        // the gathers (chunked, zero-copy), which changes nothing modeled.
        // Varchar queries are the exception: the executor falls back to
        // materializing for them on every path, so Explain must too.
        ex.streaming =
            policy == ChunkingPolicy::kStream && ex.varchar_cols == 0;
        if (ex.streaming) {
          ex.chunk_rows = spec.chunk_rows != 0 ? spec.chunk_rows
                                               : project::DefaultChunkRows(hw);
          ex.mode_reason = "policy: stream";
        } else if (policy == ChunkingPolicy::kStream) {
          ex.mode_reason =
              "varchar columns force materializing (no streaming path for "
              "variable-size chunks)";
        } else {
          ex.mode_reason = "u right side materializes no value intermediates";
        }
      } else {
        const project::DeclusterPlan right = project::PlanDeclusterSide(
            n_index, n_right, sizeof(value_t), spec.right_bits,
            spec.window_elems, hw);
        ex.decluster_bits = right.spec.total_bits;
        ex.decluster_passes = right.spec.passes;
        ex.window_elems = right.window_elems;
        PlanExecutionMode(spec, policy, n_index, &ex);
        if (ex.varchar_cols > 0 && ex.streaming) {
          // Mirror the executor: varchar projections have no streaming
          // path yet, so the plan must not claim one.
          ex.streaming = false;
          ex.chunk_rows = 0;
          ex.modeled_intermediate_bytes = n_index * sizeof(value_t);
          ex.mode_reason =
              "varchar columns force materializing (no streaming path for "
              "variable-size chunks)";
        }
        // The clustered varchar intermediate (offsets + heap) counts
        // toward the materialized footprint.
        ex.modeled_intermediate_bytes +=
            n_index * (sizeof(uint64_t) + avg_var_r) * var_r;
      }

      project::DsmPostCostInput in;
      in.left_rows = n_left;
      in.right_rows = n_right;
      in.index_rows = n_index;
      in.pi_left = spec.pi_left;
      in.pi_right = spec.pi_right;
      in.pi_varchar_left = var_l;
      in.pi_varchar_right = var_r;
      in.avg_varchar_left_len = avg_var_l;
      in.avg_varchar_right_len = avg_var_r;
      in.sides = ex.side_options;
      in.chunk_rows = ex.chunk_rows;
      project::DsmPostCost(in, hw, cpu,
                           {&ex.join_cost, &ex.cluster_cost,
                            &ex.projection_cost, &ex.decluster_cost,
                            &ex.varchar_decluster_cost});
      break;
    }

    // The comparison strategies of Fig. 10 get the same coarse
    // per-algorithm models the figure harnesses plot; they execute serial
    // (QueryRun::threads_used == 1) and never stream.
    case JoinStrategy::kDsmPrePhash: {
      ex.threads = 1;
      size_t tuple_width =
          sizeof(value_t) * (1 + (spec.pi_left + spec.pi_right + 1) / 2);
      ex.join_cost = costmodel::PartitionedHashJoinCost(
          hw, cpu, n_left, n_right, tuple_width,
          cluster::PartitionedJoinBits(n_right, tuple_width, hw));
      Accumulate(&ex.projection_cost,
                 costmodel::ClusteredPositionalJoinCost(
                     hw, cpu, n_index, n_index, sizeof(value_t), 0,
                     /*sorted=*/true),
                 pi_l + pi_r);
      break;
    }
    case JoinStrategy::kNsmPreHash:
    case JoinStrategy::kNsmPrePhash: {
      ex.threads = 1;
      size_t record_width = sizeof(value_t) * workload.dsm_left.num_attrs();
      radix_bits_t bits =
          spec.strategy == JoinStrategy::kNsmPreHash
              ? 0
              : cluster::PartitionedJoinBits(n_right, record_width, hw);
      ex.join_cost = costmodel::PartitionedHashJoinCost(
          hw, cpu, n_left, n_right, record_width, bits);
      Accumulate(&ex.projection_cost,
                 costmodel::ClusteredPositionalJoinCost(
                     hw, cpu, n_index, n_index, sizeof(value_t), 0,
                     /*sorted=*/true),
                 pi_l + pi_r);
      break;
    }
    case JoinStrategy::kNsmPostDecluster: {
      ex.threads = 1;
      size_t record_width = sizeof(value_t) * workload.dsm_left.num_attrs();
      ex.join_cost = costmodel::PartitionedHashJoinCost(
          hw, cpu, n_left, n_right, pair_width, join_bits);
      radix_bits_t bits = cluster::PartialClusterBits(
          std::max<size_t>(1, n_right), record_width, hw);
      size_t window = decluster::WindowPolicy::ChooseWindowElems(
          hw, record_width, size_t{1} << bits, std::max<size_t>(1, n_index));
      // Both sides fetch whole records through the decluster machinery.
      Accumulate(&ex.decluster_cost,
                 costmodel::RadixDeclusterCost(hw, cpu, n_index, record_width,
                                               bits, window),
                 2.0);
      ex.decluster_bits = bits;
      ex.window_elems = window;
      break;
    }
    case JoinStrategy::kNsmPostJive: {
      ex.threads = 1;
      size_t record_width = sizeof(value_t) * workload.dsm_left.num_attrs();
      ex.join_cost = costmodel::PartitionedHashJoinCost(
          hw, cpu, n_left, n_right, pair_width, join_bits);
      // Mirrors the executor's fixed cluster_bits = 6 for the Jive passes.
      constexpr radix_bits_t kJiveBits = 6;
      Accumulate(&ex.projection_cost,
                 costmodel::LeftJiveJoinCost(hw, cpu, n_index, n_left,
                                             record_width, kJiveBits),
                 1.0);
      Accumulate(&ex.projection_cost,
                 costmodel::RightJiveJoinCost(hw, cpu, n_index, n_right,
                                              record_width, kJiveBits),
                 1.0);
      break;
    }
  }

  // The Fig. 10 comparison strategies gather their varchar columns
  // positionally from result-order oids (u-style random access), on top of
  // the oid-pair luggage their joins carry; model the gathers coarsely,
  // like the rest of their per-algorithm costs.
  if (spec.strategy != JoinStrategy::kDsmPostDecluster &&
      ex.varchar_cols > 0) {
    Accumulate(&ex.projection_cost,
               costmodel::ClusteredPositionalJoinCost(hw, cpu, n_index,
                                                      n_left, var_width_l,
                                                      /*bits=*/0,
                                                      /*sorted=*/false),
               static_cast<double>(var_l));
    Accumulate(&ex.projection_cost,
               costmodel::ClusteredPositionalJoinCost(hw, cpu, n_index,
                                                      n_right, var_width_r,
                                                      /*bits=*/0,
                                                      /*sorted=*/false),
               static_cast<double>(var_r));
  }

  if (ex.mode_reason.empty()) {
    // The Fig. 10 comparison strategies have no streaming variant at all.
    ex.mode_reason = "comparison strategy: materializing only";
  }
  ex.modeled_seconds = ex.join_cost.seconds + ex.cluster_cost.seconds +
                       ex.projection_cost.seconds + ex.decluster_cost.seconds +
                       ex.varchar_decluster_cost.seconds;
  plan_cache_->Insert(cache_key, ex);
  return PreparedQuery(this, &workload, spec, std::move(ex));
}

Status Engine::Prepare(const ops::Catalog& catalog,
                       const ops::LogicalPlan& plan,
                       PreparedPlan* out) const {
  // Validate first so a malformed tree is a clean kInvalidArgument before
  // any cache or optimizer work (and before fingerprinting, which assumes
  // a structurally sound tree).
  Status valid = ops::ValidatePlan(catalog, plan);
  if (!valid.ok()) return valid;

  const std::string cache_key = PlanCacheKey(catalog, plan);
  {
    Explanation cached;
    ops::PhysicalPlan cached_physical;
    if (plan_cache_->LookupTree(cache_key, &cached, &cached_physical)) {
      *out = PreparedPlan(this, &catalog, &plan, std::move(cached_physical),
                          std::move(cached));
      return Status::OK();
    }
  }

  ops::PhysicalPlan physical;
  Status opt =
      ops::Optimize(catalog, plan, hw_, config_.cpu_costs, &physical);
  if (!opt.ok()) return opt;

  Explanation ex;
  ex.strategy = JoinStrategy::kDsmPostDecluster;
  ex.plan_tree = true;
  ex.threads = num_threads();
  ex.cache_geometry = hw_.CacheSummary();
  ex.estimated_result_rows = physical.est_result_rows;
  ex.modeled_intermediate_bytes = physical.modeled_intermediate_bytes;
  ex.join_cost = physical.join_cost;
  ex.cluster_cost = physical.cluster_cost;
  ex.projection_cost = physical.projection_cost;
  ex.decluster_cost = physical.decluster_cost;
  ex.modeled_seconds = physical.modeled_seconds;
  ex.plan_summary = physical.Summary();
  // Blocking operators (join, aggregate) materialize their inputs and
  // stream output chunks; there is no fully-pipelined mode to reject.
  ex.mode_reason =
      "operator-at-a-time: blocking operators materialize, chunks stream "
      "between operators";
  ex.streaming = false;
  std::string code;
  bool easy = !physical.edges.empty();
  for (const ops::EdgePlan& edge : physical.edges) {
    ex.edge_codes.push_back(edge.code);
    if (!code.empty()) code += "+";
    code += edge.code;
    easy = easy && edge.easy;
  }
  ex.plan_code = code.empty() ? "-" : code;
  ex.easy = easy;
  size_t max_card = physical.est_result_rows;
  for (size_t t = 0; t < catalog.size(); ++t) {
    max_card = std::max(max_card, catalog.table(t).cardinality());
  }
  ex.high_priority = max_card <= config_.point_query_rows_threshold;

  plan_cache_->InsertTree(cache_key, ex, physical);
  *out = PreparedPlan(this, &catalog, &plan, std::move(physical),
                      std::move(ex));
  return Status::OK();
}

Status Engine::Execute(const ops::Catalog& catalog,
                       const ops::LogicalPlan& plan,
                       ops::PlanRun* out) const {
  PreparedPlan prepared;
  Status status = Prepare(catalog, plan, &prepared);
  if (!status.ok()) return status;
  return prepared.Execute(out);
}

void Engine::PlanExecutionMode(const QuerySpec& spec, ChunkingPolicy policy,
                               size_t n_index, Explanation* ex) const {
  const size_t materialized_bytes = n_index * sizeof(value_t);
  // `policy` arrives resolved (never kEngineDefault): kAuto streams only
  // when the budget says the materialized intermediate is too large.
  const bool stream =
      policy == ChunkingPolicy::kStream ||
      (policy == ChunkingPolicy::kAuto &&
       config_.streaming_budget_bytes != 0 &&
       materialized_bytes > config_.streaming_budget_bytes);
  if (!stream) {
    ex->streaming = false;
    ex->chunk_rows = 0;
    ex->modeled_intermediate_bytes = materialized_bytes;
    if (policy == ChunkingPolicy::kMaterialize) {
      ex->mode_reason = "chunking policy: always materialize";
    } else if (config_.streaming_budget_bytes == 0) {
      ex->mode_reason = "auto: no streaming budget configured";
    } else {
      ex->mode_reason = "auto: intermediate fits streaming budget";
    }
    return;
  }
  ex->mode_reason = policy == ChunkingPolicy::kStream
                        ? "policy: stream"
                        : "auto: intermediate exceeds streaming budget";

  // The streamed decluster side fetches each value inside the merge, so it
  // keeps no value intermediate: the range only sizes the merge's writes.
  ex->streaming = true;
  ex->chunk_rows = spec.chunk_rows != 0 ? spec.chunk_rows
                                        : project::DefaultChunkRows(hw_);
  ex->modeled_intermediate_bytes = 0;
}

EngineStats Engine::Stats() const {
  EngineStats s;
  s.queries_executed = queries_executed_.load(std::memory_order_relaxed);
  PlanCacheStats pc = plan_cache_->Stats();
  s.plan_cache_hits = pc.hits;
  s.plan_cache_misses = pc.misses;
  s.plan_cache_entries = pc.entries;
  s.admission = admission_.Stats();
  return s;
}

Status Engine::ExecutePrepared(const PreparedQuery& query,
                               project::QueryRun* out) const {
  const Explanation& ex = query.explanation_;
  const QuerySpec& spec = query.spec_;
  Status valid = ValidateProjection(*query.workload_, spec);
  if (!valid.ok()) return valid;

  // Admission: reserve the plan's peak intermediate bytes before touching
  // any shared resource. Blocks FIFO behind earlier arrivals when the
  // budget is full; admitted queries always complete (the calling thread
  // drives its own grains), so the reservation always comes back.
  const size_t admission_bytes = ex.modeled_intermediate_bytes;
  Status admit = admission_.Admit(admission_bytes);
  if (!admit.ok()) return admit;
  // Scope-exit release: the reservation must come back on *every* exit
  // path — an exception escaping the run (e.g. std::bad_alloc) would
  // otherwise shrink the effective budget forever and wedge the FIFO
  // admission queue for all clients.
  struct ReservationGuard {
    AdmissionController& admission;
    size_t bytes;
    ~ReservationGuard() { admission.Release(bytes); }
  } release_on_exit{admission_, admission_bytes};

  // Grains this query enqueues on the shared pool — kernel ParallelFor
  // morsels and streamed chunk stages alike — inherit its class.
  ThreadPool::ScopedPriority priority(ex.high_priority
                                          ? ThreadPool::Priority::kHigh
                                          : ThreadPool::Priority::kNormal);

  project::QueryOptions options;
  options.pi_left = spec.pi_left;
  options.pi_right = spec.pi_right;
  // The prepared plan's sides, execution mode and chunk size execute
  // verbatim, so Explain() and the run can never disagree on them. The
  // radix bits and insertion window are forwarded as the spec gave them
  // (usually the kAuto sentinels): the kernels re-derive them from the
  // *actual* join cardinality with the exact rules Explain() applied to
  // the workload's estimate — pinning Explain's values instead would
  // diverge from a direct RunQuery whenever estimate != actual, breaking
  // byte-identity for no planning benefit.
  options.pi_varchar_left = spec.pi_varchar_left;
  options.pi_varchar_right = spec.pi_varchar_right;
  options.plan_sides = false;
  options.left = ex.side_options.left;
  options.right = ex.side_options.right;
  options.left_bits = ex.side_options.left_bits;
  options.right_bits = ex.side_options.right_bits;
  options.window_elems = ex.side_options.window_elems;
  options.pool = pool_.get();
  options.chunk_rows = ex.chunk_rows;
  options.gauge = config_.gauge;
  *out = ex.streaming
             ? project::RunQueryStreaming(*query.workload_, spec.strategy,
                                          options, hw_)
             : project::RunQuery(*query.workload_, spec.strategy, options,
                                 hw_);
  queries_executed_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Engine::ExecutePreparedPlan(const PreparedPlan& prepared,
                                   ops::PlanRun* out) const {
  const Explanation& ex = prepared.explanation_;

  // The same admission gate as two-sided queries: the optimizer's peak
  // intermediate estimate is the reservation currency.
  const size_t admission_bytes = ex.modeled_intermediate_bytes;
  Status admit = admission_.Admit(admission_bytes);
  if (!admit.ok()) return admit;
  struct ReservationGuard {
    AdmissionController& admission;
    size_t bytes;
    ~ReservationGuard() { admission.Release(bytes); }
  } release_on_exit{admission_, admission_bytes};

  ThreadPool::ScopedPriority priority(ex.high_priority
                                          ? ThreadPool::Priority::kHigh
                                          : ThreadPool::Priority::kNormal);

  ops::ExecOptions options;
  options.hw = &hw_;
  options.pool = pool_.get();
  options.gauge = config_.gauge;
  Status status = ops::ExecutePlan(*prepared.catalog_, *prepared.plan_,
                                   prepared.physical_, options, out);
  if (status.ok()) {
    queries_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status PreparedQuery::Execute(project::QueryRun* out) const {
  return engine_->ExecutePrepared(*this, out);
}

Status PreparedPlan::Execute(ops::PlanRun* out) const {
  return engine_->ExecutePreparedPlan(*this, out);
}

std::string Explanation::ToString() const {
  std::string s = "strategy: ";
  s += plan_tree ? "plan tree (dsm-post per edge)"
                 : project::JoinStrategyName(strategy);
  s += "  sides: ";
  s += plan_code;
  s += easy ? "  (easy join)" : "  (hard join)";
  if (!plan_summary.empty()) {
    s += "\nplan: ";
    s += plan_summary;
  }
  s += "\nexecution: ";
  s += ModeName(streaming);
  if (streaming) {
    s += ", chunk_rows=";
    s += std::to_string(chunk_rows);
  }
  s += ", threads=";
  s += std::to_string(threads);
  s += ", priority=";
  s += high_priority ? "high" : "normal";
  if (!mode_reason.empty()) {
    s += "\nmode reason: ";
    s += mode_reason;
  }
  if (decluster_bits != 0) {
    s += "\nradix plan: B=";
    s += std::to_string(decluster_bits);
    s += " (";
    s += std::to_string(decluster_passes);
    s += " pass";
    s += decluster_passes == 1 ? "" : "es";
    s += "), window=";
    s += std::to_string(window_elems);
    s += " elems";
  }
  if (!cache_geometry.empty()) {
    s += "\ncaches: ";
    s += cache_geometry;
  }
  if (modeled_intermediate_bytes != 0) {
    s += "\nintermediates: ~";
    s += std::to_string(modeled_intermediate_bytes / 1024);
    s += " KB peak";
  }
  if (varchar_cols != 0) {
    s += "\nvarchar: ";
    s += std::to_string(varchar_cols);
    s += " col";
    s += varchar_cols == 1 ? "" : "s";
    s += ", avg len ";
    s += std::to_string(avg_varchar_len);
    s += " B";
    char vbuf[64];
    const int vlen = std::snprintf(vbuf, sizeof(vbuf),
                                   ", paged-decluster %.3f ms",
                                   varchar_decluster_cost.seconds * 1e3);
    RADIX_CHECK(vlen > 0 && static_cast<size_t>(vlen) < sizeof(vbuf));
    s += vbuf;
  }
  s += "\nmodeled cost: ";
  char buf[200];
  const int len = std::snprintf(
      buf, sizeof(buf),
      "%.3f ms  (join %.3f + cluster %.3f + project %.3f + "
      "decluster %.3f + varchar %.3f)",
      modeled_seconds * 1e3, join_cost.seconds * 1e3,
      cluster_cost.seconds * 1e3, projection_cost.seconds * 1e3,
      decluster_cost.seconds * 1e3, varchar_decluster_cost.seconds * 1e3);
  RADIX_CHECK(len > 0 && static_cast<size_t>(len) < sizeof(buf));
  s += buf;
  return s;
}

}  // namespace radix::engine
