#ifndef RADIX_ENGINE_ENGINE_H_
#define RADIX_ENGINE_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "common/types.h"
#include "costmodel/models.h"
#include "engine/admission.h"
#include "hardware/calibrator.h"
#include "hardware/memory_hierarchy.h"
#include "ops/executor.h"
#include "ops/optimizer.h"
#include "ops/plan.h"
#include "ops/table.h"
#include "project/dsm_post.h"
#include "project/executor.h"
#include "project/strategy.h"
#include "workload/generator.h"

namespace radix {
class ThreadPool;
}  // namespace radix

namespace radix::pipeline {
class MemoryGauge;
}  // namespace radix::pipeline

/// The session-scoped public entry point of the library (paper §1.1's
/// architecture): a process builds one Engine from an EngineConfig — which
/// runs the startup Calibrator, fixes the cost-model constants, and spawns
/// the worker pool once — and then drives every query through
/// Prepare() -> Explain() -> Execute(). The planner's choices (per-side
/// strategies, radix bits, insertion window, materializing vs streaming
/// execution, chunk size) are visible *before* anything runs, and repeated
/// queries share the session's threads instead of respawning them.
namespace radix::engine {

/// How the decluster-side projection executes.
enum class ChunkingPolicy : uint8_t {
  /// Defer to the engine's configured policy (QuerySpec default).
  kEngineDefault,
  /// Planner decides: stream when the materializing path's clustered
  /// intermediate would exceed EngineConfig::streaming_budget_bytes.
  kAuto,
  /// Always materialize full intermediates (project::RunQuery).
  kMaterialize,
  /// Always stream (project::RunQueryStreaming): row-chunked gathers and
  /// the fused RadixDeclusterGather, no value intermediate.
  kStream,
};

struct EngineConfig {
  /// Session worker threads for the parallel radix kernels. 1 (default)
  /// runs the exact serial kernels and spawns nothing; > 1 spawns the pool
  /// once at engine startup (byte-identical output); 0 = all hardware
  /// threads.
  size_t num_threads = 1;
  /// Hardware profile to plan and model against. Default-constructed (no
  /// cache levels) detects the running machine; tests and planning
  /// experiments pin a preset (e.g. MemoryHierarchy::Pentium4()). Not a
  /// std::optional: GCC 12's -Wmaybe-uninitialized false-fires on copying
  /// optionals of vector-bearing types under -O2.
  hardware::MemoryHierarchy hierarchy;
  /// Run the startup Calibrator (the paper's §1.1 MonetDB calibrator) to
  /// refine the profile's miss latencies and bandwidth with measured
  /// values, so modeled costs are in this machine's units. Geometry is
  /// unchanged, so planner *choices* equal the uncalibrated engine's and
  /// results are identical; only the modeled seconds move.
  bool calibrate_on_startup = false;
  hardware::Calibrator::Options calibrator_options;
  /// CPU constants of the Appendix-A cost model.
  costmodel::CpuCosts cpu_costs = costmodel::CpuCosts::Default();
  /// Session-wide execution mode for decluster-side projections.
  ChunkingPolicy chunking = ChunkingPolicy::kAuto;
  /// kAuto's memory budget for materialized intermediates (the clustered
  /// value column of the decluster side, N * sizeof(value_t) bytes): when
  /// a query's intermediate would exceed it, the planner streams instead,
  /// which keeps no value intermediate at all. 0 (default) = unlimited,
  /// i.e. kAuto materializes.
  size_t streaming_budget_bytes = 0;

  /// Concurrent-serving knobs. Execute() is safe to call from any number
  /// of client threads; these control how the shared session resources are
  /// arbitrated between them.

  /// Admission budget for Execute(): each query reserves its modeled peak
  /// intermediate bytes (Explanation::modeled_intermediate_bytes) before
  /// running and concurrent queries queue FIFO when the sum would exceed
  /// this. A query whose reservation alone exceeds the whole budget fails
  /// fast with kResourceExhausted instead of deadlocking the queue.
  /// 0 (default) = no gating. Pairs naturally with streaming_budget_bytes:
  /// that knob shrinks a single query's footprint, this one bounds the sum
  /// of all in-flight footprints.
  size_t admission_budget_bytes = 0;
  /// Plan-cache entries (LRU): repeated Prepare() calls with the same
  /// plan-affecting (workload, spec) shape skip planning and cost-model
  /// evaluation. 0 disables the cache.
  size_t plan_cache_capacity = 64;
  /// Queries whose workload (and estimated result) stay at or under this
  /// many rows run their grains at ThreadPool::Priority::kHigh, so
  /// point-ish queries overtake the queued grains of heavy queries at
  /// grain boundaries instead of waiting behind whole phases.
  size_t point_query_rows_threshold = size_t{1} << 16;
  /// Gauge this engine's queries register their value intermediates with
  /// (the materializing decluster side's clustered value column, the
  /// operator layer's chunk buffers); nullptr = the process-wide
  /// pipeline::MemoryGauge::Instance(). Inject a private gauge to assert
  /// (as the admission tests do) that measured intermediate bytes never
  /// exceed admission_budget_bytes.
  pipeline::MemoryGauge* gauge = nullptr;
  /// Time source for admission queue-wait accounting; nullptr = the real
  /// steady clock. Tests inject a FakeClock for deterministic wait-time
  /// assertions.
  Clock* clock = nullptr;
};

/// Counters of the concurrent-serving machinery, snapshot via
/// Engine::Stats(). All monotonic except the gauges noted in
/// AdmissionStats.
struct EngineStats {
  uint64_t queries_executed = 0;  ///< Execute() calls that ran to completion
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  size_t plan_cache_entries = 0;
  AdmissionStats admission;
};

/// What a query asks for; cardinalities come from the workload at
/// Prepare() time. The default spec is the planner-driven DSM
/// post-projection query of Fig. 10.
struct QuerySpec {
  project::JoinStrategy strategy = project::JoinStrategy::kDsmPostDecluster;
  size_t pi_left = 1;
  size_t pi_right = 1;
  /// Varchar projection columns per side, drawn from the workload's
  /// {left,right}_varchars (their length distribution is set at workload
  /// generation, workload::VarcharColumnSpec). Mixed fixed+varchar
  /// projection lists are planned per column type: the DSM post-projection
  /// strategy declusters right-side varchars with the paper's Fig. 12
  /// three-phase paged scheme (Explain() reports its cost as the
  /// paged-decluster term), other strategies gather them positionally from
  /// result-order oids. Varchar queries always materialize (no streaming
  /// path for variable-size chunks yet) and their string bytes are folded
  /// into QueryRun::checksum, so equal checksums assert byte-identical
  /// strings across strategies.
  size_t pi_varchar_left = 0;
  size_t pi_varchar_right = 0;
  /// Let the planner pick the DSM-post side strategies (default);
  /// otherwise use the explicit codes below. A right side of s or c is
  /// coerced to d exactly as the executor does (§4.1: only the first
  /// projection table may be reordered).
  bool plan_sides = true;
  project::SideStrategy left = project::SideStrategy::kClustered;
  project::SideStrategy right = project::SideStrategy::kDecluster;
  /// Radix-bits overrides for the partial clusters; kAuto = from geometry.
  radix_bits_t left_bits = project::DsmPostOptions::kAuto;
  radix_bits_t right_bits = project::DsmPostOptions::kAuto;
  /// Insertion-window override in elements; 0 = WindowPolicy default.
  size_t window_elems = 0;
  /// Execution-mode override; kEngineDefault defers to the EngineConfig.
  ChunkingPolicy chunking = ChunkingPolicy::kEngineDefault;
  /// Streamed chunk size override in rows (the row chunks of the ordered
  /// gathers and the fused decluster's result ranges); 0 = cache-sized
  /// (project::DefaultChunkRows).
  size_t chunk_rows = 0;
};

/// The plan and its modeled cost, fixed at Prepare() time — everything the
/// paper's Fig. 9/10 "modeled" curves know about a run, before it runs.
/// Costs come from the costmodel/ layer evaluated against the engine's
/// (possibly calibrated) hierarchy and CPU constants; for the DSM
/// post-projection strategy they are per-phase faithful, for the
/// comparison strategies they are the same coarse per-algorithm models the
/// figure harnesses plot.
struct Explanation {
  project::JoinStrategy strategy;
  /// DSM-post per-side plan code ("c/d"); "-" for other strategies. For
  /// plan trees: the per-join-edge codes joined with "+", in the
  /// executor's post-order.
  std::string plan_code = "-";
  /// Why the chosen execution mode was chosen — in particular why
  /// streaming was *rejected* (policy, budget fit, or varchar columns
  /// forcing materializing). Surfaced by ToString().
  std::string mode_reason;
  /// Plan-tree prepares only: true, plus the optimizer's per-edge summary
  /// ("t0*t1: c/d (est N rows)") and the individual edge codes in
  /// post-order. Two-sided QuerySpec prepares leave these empty.
  bool plan_tree = false;
  std::string plan_summary;
  std::vector<std::string> edge_codes;
  bool easy = false;  ///< planner classified both columns as cache-resident
  /// Resolved per-side options the executor will run with (DSM-post only).
  project::DsmPostOptions side_options;
  /// Resolved decluster-side radix plan (DSM-post with a d right side).
  radix_bits_t decluster_bits = 0;
  uint32_t decluster_passes = 0;
  size_t window_elems = 0;
  /// Chosen execution mode and chunk size.
  bool streaming = false;
  size_t chunk_rows = 0;
  size_t threads = 1;
  /// Estimated result rows (the workload's expectation at Prepare time).
  size_t estimated_result_rows = 0;
  /// Point-ish classification: this query's grains run at
  /// ThreadPool::Priority::kHigh on the shared pool (see
  /// EngineConfig::point_query_rows_threshold).
  bool high_priority = false;
  /// Peak bytes of the projection phase's value intermediates under the
  /// chosen mode: N * sizeof(value_t) for a materializing decluster side,
  /// 0 when streamed or when the strategy keeps no side intermediate.
  size_t modeled_intermediate_bytes = 0;
  /// Varchar projection columns (left + right) and their mean value length
  /// in bytes, as planned from the workload.
  size_t varchar_cols = 0;
  size_t avg_varchar_len = 0;
  /// Modeled per-phase costs (misses + seconds) and their total.
  costmodel::CostEstimate join_cost;
  costmodel::CostEstimate cluster_cost;
  costmodel::CostEstimate projection_cost;
  costmodel::CostEstimate decluster_cost;
  /// The paper §5 three-phase paged-decluster term: cost of declustering
  /// the right side's varchar columns (0 unless the plan runs a d right
  /// side with pi_varchar_right > 0). Included in modeled_seconds.
  costmodel::CostEstimate varchar_decluster_cost;
  double modeled_seconds = 0;
  /// The cache levels planned against (MemoryHierarchy::CacheSummary):
  /// each level's sharing, the partition target and the LLC share.
  std::string cache_geometry;

  std::string ToString() const;
};

class Engine;

/// A planned query bound to its workload: Explain() is free and
/// side-effect-less; Execute() runs it on the engine's session resources.
/// The workload (and the engine) must outlive the PreparedQuery.
class PreparedQuery {
 public:
  /// The plan and its modeled cost. Ref-qualified so
  /// `engine.Prepare(...).Explain()` on a temporary returns a copy instead
  /// of a dangling reference.
  const Explanation& Explain() const& { return explanation_; }
  Explanation Explain() && { return std::move(explanation_); }
  const QuerySpec& spec() const { return spec_; }

  /// Run the query: project::RunQuery (or RunQueryStreaming) with the
  /// explained plan on the engine's pool, so it spawns no threads (the
  /// pool is created at startup). The explained sides, execution mode and
  /// chunk size run verbatim; radix bits and window re-derive at
  /// execution from the actual join cardinality (Explain() models them
  /// from the workload's estimate) under the same rules.
  ///
  /// Thread-safe: any number of client threads may Execute() prepared
  /// queries of the same engine concurrently. Each call passes the
  /// engine's admission gate (FIFO memory-budget queue — it may block
  /// until earlier queries release their reservations), then runs with
  /// its grains scheduled on the shared session pool at the plan's
  /// priority.
  ///
  /// *out receives the result on OK. Returns kInvalidArgument when the
  /// spec's projection counts exceed the workload, and kResourceExhausted
  /// — quickly, without queueing — when the engine has an admission
  /// budget and this query's reservation alone exceeds it.
  /// [[nodiscard]]: ignoring a rejection here would read *out as if the
  /// query had run.
  [[nodiscard]] Status Execute(project::QueryRun* out) const;

 private:
  friend class Engine;
  PreparedQuery(const Engine* engine, const workload::JoinWorkload* workload,
                QuerySpec spec, Explanation explanation)
      : engine_(engine),
        workload_(workload),
        spec_(spec),
        explanation_(std::move(explanation)) {}

  const Engine* engine_;
  const workload::JoinWorkload* workload_;
  QuerySpec spec_;
  Explanation explanation_;
};

/// A planned logical plan tree bound to its catalog: the plan-tree
/// counterpart of PreparedQuery. Explain() reports the per-join-edge
/// Fig. 10 strategies the optimizer chose; Execute() pulls chunks through
/// the ops/ operator tree on the engine's session resources. The catalog,
/// the plan and the engine must outlive the PreparedPlan.
class PreparedPlan {
 public:
  /// Empty shell for Engine::Prepare's out-parameter; Execute() on a
  /// never-filled PreparedPlan is a programmer error.
  PreparedPlan() = default;

  const Explanation& Explain() const& { return explanation_; }
  Explanation Explain() && { return std::move(explanation_); }
  const ops::PhysicalPlan& physical() const { return physical_; }

  /// Run the plan through the chunk-at-a-time executor. Passes the same
  /// admission gate and priority scheduling as PreparedQuery::Execute();
  /// byte-identical results at every thread count (the operators reuse the
  /// byte-identical parallel kernels). Returns kResourceExhausted without
  /// queueing when the reservation alone exceeds the admission budget.
  [[nodiscard]] Status Execute(ops::PlanRun* out) const;

 private:
  friend class Engine;
  PreparedPlan(const Engine* engine, const ops::Catalog* catalog,
               const ops::LogicalPlan* plan, ops::PhysicalPlan physical,
               Explanation explanation)
      : engine_(engine),
        catalog_(catalog),
        plan_(plan),
        physical_(std::move(physical)),
        explanation_(std::move(explanation)) {}

  const Engine* engine_ = nullptr;
  const ops::Catalog* catalog_ = nullptr;
  const ops::LogicalPlan* plan_ = nullptr;
  ops::PhysicalPlan physical_;
  Explanation explanation_ = {};
};

class PlanCache;

class Engine {
 public:
  explicit Engine(EngineConfig config = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The session hardware profile: the configured/detected hierarchy,
  /// calibrator-refined when calibrate_on_startup was set.
  const hardware::MemoryHierarchy& hierarchy() const { return hw_; }
  const costmodel::CpuCosts& cpu_costs() const { return config_.cpu_costs; }
  const EngineConfig& config() const { return config_; }
  /// Session worker threads (1 = serial kernels, no pool spawned).
  size_t num_threads() const;
  /// The session pool; nullptr when the engine runs serial.
  ThreadPool* pool() const { return pool_.get(); }

  /// Plan the query: resolve side strategies, radix/chunk parameters and
  /// execution mode, and model their cost — all before anything runs.
  /// Thread-safe; consults the plan cache first, so a repeated
  /// plan-affecting shape costs one lookup instead of a planning pass.
  PreparedQuery Prepare(const workload::JoinWorkload& workload,
                        const QuerySpec& spec) const;

  /// Plan a logical plan tree: validate it, estimate per-node
  /// cardinalities, pick the Fig. 10 per-side strategy for every join edge
  /// via the cost model, and fix the modeled costs — all before anything
  /// runs. kInvalidArgument (not a crash) on malformed or unsupported
  /// trees. Thread-safe; consults the plan cache keyed on the full tree
  /// shape (operator kinds, predicate constants, aggregate list,
  /// cardinalities) so distinct trees never alias.
  [[nodiscard]] Status Prepare(const ops::Catalog& catalog,
                               const ops::LogicalPlan& plan,
                               PreparedPlan* out) const;

  /// Prepare() + Execute() in one call for plan trees.
  [[nodiscard]] Status Execute(const ops::Catalog& catalog,
                               const ops::LogicalPlan& plan,
                               ops::PlanRun* out) const;

  /// Counters of the serving machinery: plan-cache hits/misses, admission
  /// queue/rejection/reservation stats, executed-query count. Thread-safe
  /// snapshot.
  EngineStats Stats() const;

 private:
  friend class PreparedQuery;
  friend class PreparedPlan;

  /// The admission-gated execution path behind PreparedQuery::Execute().
  [[nodiscard]] Status ExecutePrepared(const PreparedQuery& query,
                                       project::QueryRun* out) const;
  /// The admission-gated execution path behind PreparedPlan::Execute().
  [[nodiscard]] Status ExecutePreparedPlan(const PreparedPlan& prepared,
                                           ops::PlanRun* out) const;
  /// Resolve materializing vs streaming (and the range size) for a
  /// decluster-side plan from the resolved chunking policy and the
  /// streaming budget; fills the mode fields of `ex`.
  void PlanExecutionMode(const QuerySpec& spec, ChunkingPolicy policy,
                         size_t n_index, Explanation* ex) const;

  EngineConfig config_;
  hardware::MemoryHierarchy hw_;
  std::unique_ptr<ThreadPool> pool_;
  /// Serving state; mutable because Prepare()/Execute() are logically
  /// const (they do not change what any query computes) but count and
  /// arbitrate. Each is internally synchronized.
  mutable AdmissionController admission_;
  std::unique_ptr<PlanCache> plan_cache_;
  mutable std::atomic<uint64_t> queries_executed_{0};
};

}  // namespace radix::engine

#endif  // RADIX_ENGINE_ENGINE_H_
