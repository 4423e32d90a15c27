// Tests for the session-scoped engine API: Prepare/Explain/Execute must
// agree with the planner and cost-model layers, produce byte-identical
// results to the legacy free-function executors, and run queries on the
// session pool without constructing threads per query.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/partition_plan.h"
#include "common/thread_pool.h"
#include "costmodel/models.h"
#include "decluster/window.h"
#include "engine/engine.h"
#include "hardware/memory_hierarchy.h"
#include "project/dsm_post.h"
#include "project/executor.h"
#include "project/planner.h"
#include "workload/generator.h"

namespace radix::engine {
namespace {

using project::JoinStrategy;
using project::SideStrategy;

hardware::MemoryHierarchy P4() {
  return hardware::MemoryHierarchy::Pentium4();
}

EngineConfig P4Config(size_t threads = 1) {
  EngineConfig cfg;
  cfg.hierarchy = P4();
  cfg.num_threads = threads;
  return cfg;
}

/// Prepare + Execute, failing the test on a non-OK Status.
project::QueryRun RunOk(const PreparedQuery& q) {
  project::QueryRun run;
  Status status = q.Execute(&run);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return run;
}

project::QueryRun RunOk(const Engine& eng, const workload::JoinWorkload& w,
                        const QuerySpec& spec) {
  return RunOk(eng.Prepare(w, spec));
}

workload::JoinWorkload MakeW(size_t n, uint64_t seed, size_t omega = 4) {
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = omega;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  return workload::MakeJoinWorkload(spec);
}

TEST(EngineTest, ReusedEngineMatchesLegacyAcrossConsecutiveQueries) {
  // One engine, >= 3 consecutive queries per strategy x seed: checksums and
  // cardinalities must be byte-identical to the legacy RunQuery on the same
  // hardware profile, and must not drift between consecutive runs.
  Engine eng(P4Config(/*threads=*/2));
  auto hw = P4();
  for (uint64_t seed : {5u, 17u, 23u}) {
    workload::JoinWorkload w = MakeW(1 << 12, seed);
    for (JoinStrategy s :
         {JoinStrategy::kDsmPostDecluster, JoinStrategy::kDsmPrePhash,
          JoinStrategy::kNsmPreHash, JoinStrategy::kNsmPrePhash,
          JoinStrategy::kNsmPostDecluster, JoinStrategy::kNsmPostJive}) {
      QuerySpec spec;
      spec.strategy = s;
      spec.pi_left = 2;
      spec.pi_right = 2;
      project::QueryOptions legacy;
      legacy.pi_left = 2;
      legacy.pi_right = 2;
      project::QueryRun ref = project::RunQuery(w, s, legacy, hw);
      for (int round = 0; round < 3; ++round) {
        project::QueryRun run = RunOk(eng, w, spec);
        ASSERT_EQ(run.checksum, ref.checksum)
            << project::JoinStrategyName(s) << " seed=" << seed
            << " round=" << round;
        ASSERT_EQ(run.result_cardinality, ref.result_cardinality);
        ASSERT_EQ(run.detail, ref.detail);
      }
    }
  }
}

TEST(EngineTest, PreparedPlanAgreesWithPlanner) {
  // 2^18 tuples x 4B = 1MB > the P4's 512KB L2: the planner must pick the
  // hard-join machinery, and Explain() must report exactly its choice.
  Engine eng(P4Config());
  workload::JoinWorkload w = MakeW(1 << 18, 7);
  QuerySpec spec;
  spec.pi_left = 2;
  spec.pi_right = 2;
  PreparedQuery q = eng.Prepare(w, spec);
  const Explanation& ex = q.Explain();

  project::Plan plan =
      project::PlanDsmPost(w.dsm_left.cardinality(),
                           w.dsm_right.cardinality(), spec.pi_left,
                           eng.hierarchy());
  EXPECT_EQ(ex.plan_code, plan.code);
  EXPECT_EQ(ex.plan_code, "c/d");
  EXPECT_FALSE(ex.easy);
  EXPECT_EQ(ex.side_options.left, plan.options.left);
  EXPECT_EQ(ex.side_options.right, plan.options.right);

  // The executed run must carry the explained plan code verbatim.
  project::QueryRun run = RunOk(q);
  EXPECT_EQ(run.detail, ex.plan_code);
  EXPECT_EQ(run.strategy, JoinStrategy::kDsmPostDecluster);
}

TEST(EngineTest, ExplainModeledCostMatchesCostModelDirectCalls) {
  // Explain() is a view over costmodel/: recomputing each phase with
  // direct cost-model calls (same hierarchy, same CPU constants, same
  // resolved radix plan) must give exactly the same seconds.
  Engine eng(P4Config());
  const auto& hw = eng.hierarchy();
  const auto& cpu = eng.cpu_costs();
  workload::JoinWorkload w = MakeW(1 << 18, 11);
  size_t n = w.dsm_left.cardinality();
  size_t n_index = w.expected_result_size;
  QuerySpec spec;
  spec.pi_left = 2;
  spec.pi_right = 2;
  const Explanation& ex = eng.Prepare(w, spec).Explain();

  // Right-side radix plan: bits/passes/window must match the projector's
  // own resolution.
  cluster::ClusterSpec right_spec = project::detail::SpecFor(
      SideStrategy::kClustered, n_index, n, hw,
      project::DsmPostOptions::kAuto);
  EXPECT_EQ(ex.decluster_bits, right_spec.total_bits);
  EXPECT_EQ(ex.decluster_passes, right_spec.passes);
  size_t window = decluster::WindowPolicy::ChooseWindowElems(
      hw, sizeof(value_t), size_t{1} << right_spec.total_bits, n_index);
  EXPECT_EQ(ex.window_elems, window);

  // Phase costs: join, per-column decluster, and the total as their sum.
  double join_s = costmodel::PartitionedHashJoinCost(
                      hw, cpu, n, n, sizeof(cluster::KeyOid),
                      cluster::PartitionedJoinBits(n, sizeof(cluster::KeyOid),
                                                   hw))
                      .seconds;
  EXPECT_DOUBLE_EQ(ex.join_cost.seconds, join_s);
  double decluster_s =
      2.0 * costmodel::RadixDeclusterCost(hw, cpu, n_index, sizeof(value_t),
                                          ex.decluster_bits, ex.window_elems)
                .seconds;
  EXPECT_DOUBLE_EQ(ex.decluster_cost.seconds, decluster_s);
  EXPECT_DOUBLE_EQ(ex.modeled_seconds,
                   ex.join_cost.seconds + ex.cluster_cost.seconds +
                       ex.projection_cost.seconds + ex.decluster_cost.seconds);
  EXPECT_GT(ex.modeled_seconds, 0.0);
  // The cache levels planned against, with the partition target marked.
  EXPECT_NE(ex.ToString().find("\ncaches: L1 16KB x1 | L2 512KB x1 [target]"),
            std::string::npos)
      << ex.ToString();
}

TEST(EngineTest, ZeroThreadPoolConstructionsPerQueryAfterStartup) {
  // The engine's whole point: the pool spawns once at startup, and no
  // query — materializing or streaming, any strategy — constructs another.
  Engine eng(P4Config(/*threads=*/4));
  workload::JoinWorkload w = MakeW(1 << 12, 3);
  QuerySpec dsm;
  dsm.pi_left = 2;
  dsm.pi_right = 2;
  QuerySpec streamed = dsm;
  streamed.chunking = ChunkingPolicy::kStream;
  QuerySpec nsm;
  nsm.strategy = JoinStrategy::kNsmPreHash;

  uint64_t before = ThreadPool::TotalConstructed();
  for (int round = 0; round < 3; ++round) {
    RunOk(eng, w, dsm);
    RunOk(eng, w, streamed);
    RunOk(eng, w, nsm);
  }
  EXPECT_EQ(ThreadPool::TotalConstructed(), before);
}

TEST(EngineTest, LegacyWrappersReuseProcessWidePool) {
  // The free functions run on the caller's pool: repeated queries on one
  // pool construct none, materializing or streaming.
  auto hw = P4();
  workload::JoinWorkload w = MakeW(1 << 12, 9);
  ThreadPool pool(3);
  project::QueryOptions opts;
  opts.pi_left = 1;
  opts.pi_right = 1;
  opts.pool = &pool;
  uint64_t before = ThreadPool::TotalConstructed();
  for (int round = 0; round < 3; ++round) {
    project::RunQuery(w, JoinStrategy::kDsmPostDecluster, opts, hw);
    project::RunQueryStreaming(w, JoinStrategy::kDsmPostDecluster, opts, hw);
  }
  EXPECT_EQ(ThreadPool::TotalConstructed(), before);
}

TEST(EngineTest, ThreadsUsedIsHonest) {
  auto hw = P4();
  workload::JoinWorkload w = MakeW(1 << 12, 13);
  ThreadPool pool(4);
  project::QueryOptions opts;
  opts.pi_left = 1;
  opts.pi_right = 1;
  opts.pool = &pool;
  // Only the DSM post-projection strategy has parallel kernels; everything
  // else must report threads_used == 1 whatever pool it was given.
  project::QueryRun par =
      project::RunQuery(w, JoinStrategy::kDsmPostDecluster, opts, hw);
  EXPECT_EQ(par.threads_used, 4u);
  project::QueryRun serial =
      project::RunQuery(w, JoinStrategy::kNsmPreHash, opts, hw);
  EXPECT_EQ(serial.threads_used, 1u);
  project::QueryRun jive =
      project::RunQuery(w, JoinStrategy::kNsmPostJive, opts, hw);
  EXPECT_EQ(jive.threads_used, 1u);

  Engine eng(P4Config(/*threads=*/2));
  QuerySpec spec;
  EXPECT_EQ(RunOk(eng, w, spec).threads_used, 2u);
  QuerySpec nsm;
  nsm.strategy = JoinStrategy::kNsmPrePhash;
  EXPECT_EQ(RunOk(eng, w, nsm).threads_used, 1u);
}

TEST(EngineTest, InjectedSizeOnePoolPinsSerialExecution) {
  // A size-1 pool runs the exact serial kernels, reports threads_used ==
  // 1, and constructs no pool of its own.
  auto hw = P4();
  workload::JoinWorkload w = MakeW(1 << 12, 27);
  ThreadPool serial_pool(1);
  project::QueryOptions opts;
  opts.pi_left = 2;
  opts.pi_right = 2;
  opts.pool = &serial_pool;
  uint64_t before = ThreadPool::TotalConstructed();
  project::QueryRun run =
      project::RunQuery(w, JoinStrategy::kDsmPostDecluster, opts, hw);
  project::QueryRun streamed = project::RunQueryStreaming(
      w, JoinStrategy::kDsmPostDecluster, opts, hw);
  EXPECT_EQ(ThreadPool::TotalConstructed(), before);
  EXPECT_EQ(run.threads_used, 1u);
  EXPECT_EQ(streamed.threads_used, 1u);

  project::QueryOptions plain;
  plain.pi_left = 2;
  plain.pi_right = 2;
  project::QueryRun ref =
      project::RunQuery(w, JoinStrategy::kDsmPostDecluster, plain, hw);
  EXPECT_EQ(run.checksum, ref.checksum);
  EXPECT_EQ(streamed.checksum, ref.checksum);
}

TEST(EngineTest, CalibratedEngineMatchesPresetEngineResults) {
  // Calibration refines latencies/bandwidth only — geometry, and therefore
  // every planner choice and every byte of the result, must be unchanged.
  Engine preset(P4Config());

  EngineConfig cal_cfg = P4Config();
  cal_cfg.calibrate_on_startup = true;
  cal_cfg.calibrator_options.max_working_set_bytes = 1u << 20;
  cal_cfg.calibrator_options.accesses_per_point = 1u << 12;
  Engine calibrated(cal_cfg);

  workload::JoinWorkload w = MakeW(1 << 13, 21);
  for (JoinStrategy s :
       {JoinStrategy::kDsmPostDecluster, JoinStrategy::kNsmPostJive}) {
    QuerySpec spec;
    spec.strategy = s;
    spec.pi_left = 2;
    spec.pi_right = 2;
    PreparedQuery a = preset.Prepare(w, spec);
    PreparedQuery b = calibrated.Prepare(w, spec);
    EXPECT_EQ(a.Explain().plan_code, b.Explain().plan_code);
    project::QueryRun ra = RunOk(a);
    project::QueryRun rb = RunOk(b);
    EXPECT_EQ(ra.checksum, rb.checksum) << project::JoinStrategyName(s);
    EXPECT_EQ(ra.result_cardinality, rb.result_cardinality);
  }
}

TEST(EngineTest, ChunkingPolicyControlsExecutionMode) {
  workload::JoinWorkload w = MakeW(20000, 31, /*omega=*/3);
  QuerySpec spec;
  spec.pi_left = 2;
  spec.pi_right = 2;
  spec.plan_sides = false;
  spec.left = SideStrategy::kClustered;
  spec.right = SideStrategy::kDecluster;

  // Default engine policy (kAuto, no budget): materialize, like RunQuery.
  Engine mat(P4Config());
  EXPECT_FALSE(mat.Prepare(w, spec).Explain().streaming);

  // A tiny intermediate budget forces streaming, with a planner-chosen
  // chunk small enough for the budget unless the cost model vetoes it.
  EngineConfig budget_cfg = P4Config();
  budget_cfg.streaming_budget_bytes = 16 * 1024;
  Engine budget(budget_cfg);
  const Explanation& ex = budget.Prepare(w, spec).Explain();
  EXPECT_TRUE(ex.streaming);
  EXPECT_GT(ex.chunk_rows, 0u);
  EXPECT_LT(ex.modeled_intermediate_bytes,
            w.expected_result_size * sizeof(value_t));

  // Explicit per-query overrides beat the engine policy.
  QuerySpec forced = spec;
  forced.chunking = ChunkingPolicy::kStream;
  EXPECT_TRUE(mat.Prepare(w, forced).Explain().streaming);
  forced.chunking = ChunkingPolicy::kMaterialize;
  EXPECT_FALSE(budget.Prepare(w, forced).Explain().streaming);

  // All modes compute the same relation as the legacy entry points.
  project::QueryOptions legacy;
  legacy.pi_left = 2;
  legacy.pi_right = 2;
  legacy.plan_sides = false;
  legacy.left = SideStrategy::kClustered;
  legacy.right = SideStrategy::kDecluster;
  project::QueryRun ref = project::RunQuery(
      w, JoinStrategy::kDsmPostDecluster, legacy, P4());
  EXPECT_EQ(RunOk(budget, w, spec).checksum, ref.checksum);
  forced.chunking = ChunkingPolicy::kStream;
  EXPECT_EQ(RunOk(mat, w, forced).checksum, ref.checksum);
}

TEST(EngineTest, ExplainStreamingCostUsesStreamingModel) {
  // When the plan streams, the right side's gather and decluster are one
  // fused kernel: the modeled decluster phase is its prediction for the
  // chosen range, and the projection phase keeps only the left gathers.
  Engine eng(P4Config());
  workload::JoinWorkload w = MakeW(1 << 16, 41, /*omega=*/3);
  QuerySpec spec;
  spec.pi_left = 1;
  spec.pi_right = 1;
  spec.plan_sides = false;
  spec.left = SideStrategy::kClustered;
  spec.right = SideStrategy::kDecluster;
  spec.chunking = ChunkingPolicy::kStream;
  spec.chunk_rows = 4096;
  const Explanation& ex = eng.Prepare(w, spec).Explain();
  ASSERT_TRUE(ex.streaming);
  EXPECT_EQ(ex.chunk_rows, 4096u);
  EXPECT_EQ(ex.modeled_intermediate_bytes, 0u);
  double expected = costmodel::RadixDeclusterGatherCost(
                        eng.hierarchy(), eng.cpu_costs(),
                        w.expected_result_size, w.dsm_right.cardinality(),
                        sizeof(value_t), ex.decluster_bits, ex.chunk_rows)
                        .seconds;
  EXPECT_DOUBLE_EQ(ex.decluster_cost.seconds, expected);
  QuerySpec materialized = spec;
  materialized.chunking = ChunkingPolicy::kMaterialize;
  const Explanation& mat = eng.Prepare(w, materialized).Explain();
  EXPECT_LT(ex.projection_cost.seconds, mat.projection_cost.seconds);
  EXPECT_EQ(ex.join_cost.seconds, mat.join_cost.seconds);
  EXPECT_EQ(ex.cluster_cost.seconds, mat.cluster_cost.seconds);
}

workload::JoinWorkload MakeVarcharW(size_t n, uint64_t seed,
                                    size_t num_cols = 2) {
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = 3;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  spec.varchar.num_cols = num_cols;
  return workload::MakeJoinWorkload(spec);
}

TEST(EngineTest, VarcharExplainReportsPagedDeclusterTerm) {
  // 2^18 tuples outgrow the P4's 512 KB L2, so the planner runs the right
  // side as d; a varchar projection must then surface the Fig. 12
  // three-phase paged-decluster cost term in Explain, before anything runs.
  Engine eng(P4Config());
  workload::JoinWorkload w = MakeVarcharW(1 << 18, 13);
  QuerySpec spec;
  spec.pi_left = 1;
  spec.pi_right = 1;
  spec.pi_varchar_left = 1;
  spec.pi_varchar_right = 1;
  const Explanation& ex = eng.Prepare(w, spec).Explain();
  EXPECT_EQ(ex.side_options.right, SideStrategy::kDecluster);
  EXPECT_EQ(ex.varchar_cols, 2u);
  EXPECT_GT(ex.avg_varchar_len, 0u);
  EXPECT_GT(ex.varchar_decluster_cost.seconds, 0.0);
  // The term participates in the total.
  EXPECT_GE(ex.modeled_seconds,
            ex.join_cost.seconds + ex.cluster_cost.seconds +
                ex.projection_cost.seconds + ex.decluster_cost.seconds +
                ex.varchar_decluster_cost.seconds - 1e-12);
  // And it is reported in the rendered plan.
  EXPECT_NE(ex.ToString().find("paged-decluster"), std::string::npos);

  // Without varchar columns the term is zero.
  QuerySpec fixed_only = spec;
  fixed_only.pi_varchar_left = 0;
  fixed_only.pi_varchar_right = 0;
  const Explanation& fx = eng.Prepare(w, fixed_only).Explain();
  EXPECT_EQ(fx.varchar_cols, 0u);
  EXPECT_EQ(fx.varchar_decluster_cost.seconds, 0.0);
}

TEST(EngineTest, VarcharQueriesNeverStream) {
  // The pipeline has no variable-size chunk path yet: even an explicit
  // kStream policy must plan (and execute) a varchar query materializing,
  // mirroring the executor's fallback — Explain may not claim otherwise.
  Engine eng(P4Config());
  workload::JoinWorkload w = MakeVarcharW(1 << 16, 29);
  QuerySpec spec;
  spec.pi_left = 1;
  spec.pi_right = 1;
  spec.pi_varchar_right = 1;
  spec.plan_sides = false;
  spec.left = SideStrategy::kClustered;
  spec.right = SideStrategy::kDecluster;
  spec.chunking = ChunkingPolicy::kStream;
  const Explanation& ex = eng.Prepare(w, spec).Explain();
  EXPECT_FALSE(ex.streaming);
  EXPECT_EQ(ex.chunk_rows, 0u);

  QuerySpec no_var = spec;
  no_var.pi_varchar_right = 0;
  EXPECT_TRUE(eng.Prepare(w, no_var).Explain().streaming);

  // Same honesty on the *unsorted* right side (where no-varchar kStream
  // legitimately streams the gathers): a varchar query must not claim it.
  QuerySpec u_right = spec;
  u_right.right = SideStrategy::kUnsorted;
  EXPECT_FALSE(eng.Prepare(w, u_right).Explain().streaming);
  QuerySpec u_right_no_var = u_right;
  u_right_no_var.pi_varchar_right = 0;
  EXPECT_TRUE(eng.Prepare(w, u_right_no_var).Explain().streaming);
}

TEST(EngineTest, PinnedAndPlannedSidesShareOneLabel) {
  // One resolver labels a plan: pinning the sides the planner picks must
  // give the same code and the same easy/hard label. 2^16 fixed values
  // fit the P4's 512 KB L2; their varchar offsets + heap do not.
  Engine eng(P4Config());
  workload::JoinWorkload w = MakeVarcharW(1 << 16, 43);
  QuerySpec planned;
  planned.pi_varchar_left = 1;
  planned.pi_varchar_right = 1;
  const Explanation ex = eng.Prepare(w, planned).Explain();
  QuerySpec pinned = planned;
  pinned.plan_sides = false;
  pinned.left = ex.side_options.left;
  pinned.right = ex.side_options.right;
  const Explanation px = eng.Prepare(w, pinned).Explain();
  EXPECT_EQ(px.plan_code, ex.plan_code);
  EXPECT_EQ(px.easy, ex.easy);
  EXPECT_FALSE(ex.easy) << ex.plan_code;
}

TEST(EngineTest, PinnedRightReorderRunsAndReportsDecluster) {
  // §4.1: only the first projection table may be reordered, so a pinned
  // right side of s or c runs as d — and the run and Explain both say d.
  auto hw = P4();
  workload::JoinWorkload w = MakeW(1 << 12, 45);
  project::QueryOptions cd;
  cd.pi_left = 1;
  cd.pi_right = 1;
  cd.plan_sides = false;
  cd.left = SideStrategy::kClustered;
  cd.right = SideStrategy::kDecluster;
  const project::QueryRun ref =
      project::RunQuery(w, JoinStrategy::kDsmPostDecluster, cd, hw);
  Engine eng(P4Config());
  for (SideStrategy right : {SideStrategy::kSorted, SideStrategy::kClustered}) {
    project::QueryOptions opts = cd;
    opts.right = right;
    project::QueryRun run =
        project::RunQuery(w, JoinStrategy::kDsmPostDecluster, opts, hw);
    EXPECT_EQ(run.detail, "c/d");
    EXPECT_EQ(run.checksum, ref.checksum);

    QuerySpec spec;
    spec.plan_sides = false;
    spec.left = SideStrategy::kClustered;
    spec.right = right;
    PreparedQuery q = eng.Prepare(w, spec);
    EXPECT_EQ(q.Explain().plan_code, "c/d");
    EXPECT_EQ(q.Explain().side_options.right, SideStrategy::kDecluster);
    EXPECT_EQ(RunOk(q).detail, "c/d");
  }
}

TEST(EngineTest, ModeReasonExplainsWhyStreamingWasRejected) {
  // Satellite contract: Explain() must *say why* the mode was chosen, not
  // just which one — especially when streaming was rejected.
  workload::JoinWorkload w = MakeW(20000, 31, /*omega=*/3);
  QuerySpec spec;
  spec.pi_left = 1;
  spec.pi_right = 1;
  spec.plan_sides = false;
  spec.left = SideStrategy::kClustered;
  spec.right = SideStrategy::kDecluster;

  // kAuto without a budget: materializing because nothing asked to stream.
  Engine auto_eng(P4Config());
  {
    const Explanation& ex = auto_eng.Prepare(w, spec).Explain();
    EXPECT_EQ(ex.mode_reason, "auto: no streaming budget configured");
    EXPECT_NE(ex.ToString().find(ex.mode_reason), std::string::npos);
  }

  // kAuto with a roomy budget: the intermediate fits, so materialize.
  EngineConfig roomy = P4Config();
  roomy.streaming_budget_bytes = size_t{1} << 30;
  Engine roomy_eng(roomy);
  EXPECT_EQ(roomy_eng.Prepare(w, spec).Explain().mode_reason,
            "auto: intermediate fits streaming budget");

  // kAuto with a tiny budget: streaming, because the intermediate exceeds.
  EngineConfig tiny = P4Config();
  tiny.streaming_budget_bytes = 16 * 1024;
  Engine tiny_eng(tiny);
  EXPECT_EQ(tiny_eng.Prepare(w, spec).Explain().mode_reason,
            "auto: intermediate exceeds streaming budget");

  // Explicit policies name themselves.
  QuerySpec forced = spec;
  forced.chunking = ChunkingPolicy::kMaterialize;
  EXPECT_EQ(tiny_eng.Prepare(w, forced).Explain().mode_reason,
            "chunking policy: always materialize");
  forced.chunking = ChunkingPolicy::kStream;
  EXPECT_EQ(auto_eng.Prepare(w, forced).Explain().mode_reason,
            "policy: stream");

  // The headline case: varchar columns force materializing even under an
  // explicit kStream policy, and the reason says so — on the d right side
  // and on the u right side alike.
  workload::JoinWorkload vw = MakeVarcharW(1 << 14, 29);
  QuerySpec var_spec = forced;  // kStream
  var_spec.pi_varchar_right = 1;
  {
    const Explanation& ex = auto_eng.Prepare(vw, var_spec).Explain();
    ASSERT_FALSE(ex.streaming);
    EXPECT_NE(ex.mode_reason.find("varchar columns force materializing"),
              std::string::npos)
        << ex.mode_reason;
    EXPECT_NE(ex.ToString().find("mode reason: "), std::string::npos);
  }
  QuerySpec var_u = var_spec;
  var_u.right = SideStrategy::kUnsorted;
  {
    const Explanation& ex = auto_eng.Prepare(vw, var_u).Explain();
    ASSERT_FALSE(ex.streaming);
    EXPECT_NE(ex.mode_reason.find("varchar columns force materializing"),
              std::string::npos)
        << ex.mode_reason;
  }

  // Comparison strategies have no streaming mode at all.
  QuerySpec cmp;
  cmp.strategy = JoinStrategy::kDsmPrePhash;
  EXPECT_EQ(auto_eng.Prepare(w, cmp).Explain().mode_reason,
            "comparison strategy: materializing only");
}

TEST(EngineTest, VarcharExecuteMatchesLegacyAndIsThreadInvariant) {
  // Engine Execute with varchar columns must agree with the legacy entry
  // point, and a threaded session must produce the identical checksum.
  auto hw = P4();
  workload::JoinWorkload w = MakeVarcharW(1 << 13, 37);
  QuerySpec spec;
  spec.pi_left = 2;
  spec.pi_right = 1;
  spec.pi_varchar_left = 1;
  spec.pi_varchar_right = 2;
  project::QueryOptions legacy;
  legacy.pi_left = 2;
  legacy.pi_right = 1;
  legacy.pi_varchar_left = 1;
  legacy.pi_varchar_right = 2;

  for (JoinStrategy s :
       {JoinStrategy::kDsmPostDecluster, JoinStrategy::kDsmPrePhash,
        JoinStrategy::kNsmPreHash, JoinStrategy::kNsmPrePhash,
        JoinStrategy::kNsmPostDecluster, JoinStrategy::kNsmPostJive}) {
    QuerySpec qs = spec;
    qs.strategy = s;
    project::QueryRun ref = project::RunQuery(w, s, legacy, hw);
    Engine serial(P4Config());
    project::QueryRun run = RunOk(serial, w, qs);
    ASSERT_EQ(run.checksum, ref.checksum) << project::JoinStrategyName(s);
    ASSERT_EQ(run.result_cardinality, ref.result_cardinality);
  }

  Engine threaded(P4Config(/*threads=*/4));
  project::QueryRun threaded_run = RunOk(threaded, w, spec);
  project::QueryRun serial_ref = project::RunQuery(
      w, JoinStrategy::kDsmPostDecluster, legacy, hw);
  EXPECT_EQ(threaded_run.checksum, serial_ref.checksum);
}

TEST(EngineTest, ProjectionCountsBeyondTheWorkloadAreInvalidArguments) {
  // ω = 2: one projectable attribute per side, no varchar columns. Each
  // bad count used to abort inside the executor; now Execute returns a
  // Status before admission and the engine stays usable.
  workload::JoinWorkload w = MakeW(1024, 7, /*omega=*/2);
  workload::JoinWorkloadSpec no_nsm_spec;
  no_nsm_spec.cardinality = 1024;
  no_nsm_spec.num_attrs = 3;
  no_nsm_spec.build_nsm = false;
  workload::JoinWorkload no_nsm = workload::MakeJoinWorkload(no_nsm_spec);
  for (size_t threads : {size_t{1}, size_t{3}}) {
    Engine eng(P4Config(threads));
    auto expect_invalid = [&](const workload::JoinWorkload& input,
                              const QuerySpec& spec, const char* what) {
      project::QueryRun run;
      Status st = eng.Prepare(input, spec).Execute(&run);
      EXPECT_EQ(st.code(), Status::Code::kInvalidArgument)
          << what << ": " << st.ToString();
    };
    QuerySpec spec;
    spec.pi_left = 5;  // far past the single projectable attribute
    expect_invalid(w, spec, "pi_left");
    spec = QuerySpec{};
    spec.pi_right = 2;
    expect_invalid(w, spec, "pi_right");
    spec = QuerySpec{};
    spec.pi_varchar_left = 1;
    expect_invalid(w, spec, "pi_varchar_left");
    spec = QuerySpec{};
    spec.pi_varchar_right = 1;
    spec.strategy = JoinStrategy::kNsmPreHash;
    expect_invalid(w, spec, "pi_varchar_right");
    spec = QuerySpec{};
    spec.strategy = JoinStrategy::kNsmPostDecluster;
    expect_invalid(no_nsm, spec, "NSM strategy without NSM relations");
    EXPECT_EQ(eng.Stats().queries_executed, 0u);

    // The largest valid counts still run, and match the legacy executor.
    spec = QuerySpec{};
    spec.pi_left = 1;
    spec.pi_right = 1;
    project::QueryRun run;
    ASSERT_TRUE(eng.Prepare(w, spec).Execute(&run).ok());
    project::QueryOptions legacy;
    legacy.pi_left = 1;
    legacy.pi_right = 1;
    EXPECT_EQ(run.checksum,
              project::RunQuery(w, JoinStrategy::kDsmPostDecluster, legacy,
                                P4())
                  .checksum);
  }
}

}  // namespace
}  // namespace radix::engine
