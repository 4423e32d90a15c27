// Operator-layer tests: the chunk-at-a-time plan executor checksum-verified
// against the scalar tuple-at-a-time reference interpreter across a sweep
// of plan shapes (select x join-chain x aggregate, value and varchar
// predicates) x seeds x thread counts x chunk sizes; the engine's
// plan-tree Prepare/Explain/Execute path end to end; the TwoSidedPlan
// compatibility bridge against the legacy two-sided executors; and the
// kInvalidArgument contract for malformed or unsupported trees.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "hardware/memory_hierarchy.h"
#include "ops/executor.h"
#include "ops/optimizer.h"
#include "ops/plan.h"
#include "ops/reference.h"
#include "ops/table.h"
#include "project/executor.h"
#include "project/strategy.h"
#include "workload/chain.h"
#include "workload/generator.h"

namespace radix::ops {
namespace {

const hardware::MemoryHierarchy& P4() {
  static const hardware::MemoryHierarchy hw =
      hardware::MemoryHierarchy::Pentium4();
  return hw;
}

workload::ChainWorkloadSpec SmallChainSpec(uint64_t seed) {
  workload::ChainWorkloadSpec spec;
  spec.cardinalities = {6000, 4000, 5000};  // result = min = 4000 rows
  spec.num_attrs = 3;
  spec.seed = seed;
  spec.varchar.num_cols = 1;
  spec.varchar.min_len = 2;
  spec.varchar.max_len = 24;
  spec.varchar.empty_fraction = 0.05;
  return spec;
}

/// A left-deep 3-chain Scan(0) |X| Scan(1) |X| Scan(2), optionally with a
/// selective value filter on table 0's first payload.
std::unique_ptr<PlanNode> Chain3(bool with_select) {
  std::unique_ptr<PlanNode> left = Scan(0);
  if (with_select) {
    Predicate pred;
    pred.col = {0, 1, false};
    pred.op = CmpOp::kLt;
    pred.value = 0;  // PayloadValue is signed; < 0 keeps roughly half
    left = Select(std::move(left), pred);
  }
  auto j01 = Join(std::move(left), Scan(1), 0, 1);
  return Join(std::move(j01), Scan(2), 1, 2);
}

/// Every plan shape the sweep covers, by index.
LogicalPlan MakeSweepPlan(size_t shape) {
  switch (shape) {
    case 0: {  // plain 3-chain projection, payloads from every table
      LogicalPlan plan;
      plan.root = Project(Chain3(false),
                          {{0, 1, false}, {1, 1, false}, {2, 2, false}});
      return plan;
    }
    case 1: {  // selective filter + projection with a varchar output column
      LogicalPlan plan;
      plan.root = Project(Chain3(true),
                          {{0, 1, false}, {2, 1, false}, {1, 0, true}});
      return plan;
    }
    case 2: {  // varchar prefix predicate over a 2-join
      Predicate pred;
      pred.col = {1, 0, true};
      pred.op = CmpOp::kEq;
      pred.str_value = "a";
      pred.str_prefix = true;
      LogicalPlan plan;
      plan.root = Project(
          Join(Scan(0), Select(Scan(1), pred), 0, 1),
          {{0, 1, false}, {1, 1, false}});
      return plan;
    }
    case 3: {  // grouped aggregate over the filtered 3-chain
      LogicalPlan plan;
      plan.root = Aggregate(
          Chain3(true), {{2, 1, false}},
          {{AggFn::kSum, {0, 1, false}},
           {AggFn::kCount, {}},
           {AggFn::kMin, {1, 1, false}},
           {AggFn::kMax, {1, 2, false}}});
      return plan;
    }
    case 4: {  // ungrouped (global) aggregate over a join
      LogicalPlan plan;
      plan.root = Aggregate(
          Join(Scan(0), Scan(1), 0, 1), {},
          {{AggFn::kCount, {}}, {AggFn::kSum, {1, 1, false}}});
      return plan;
    }
    case 5: {  // varchar inequality select feeding a grouped count
      Predicate pred;
      pred.col = {0, 0, true};
      pred.op = CmpOp::kNe;
      pred.str_value = "";
      LogicalPlan plan;
      plan.root = Aggregate(
          Join(Select(Scan(0), pred), Scan(1), 0, 1), {{1, 1, false}},
          {{AggFn::kCount, {}}});
      return plan;
    }
    default:
      RADIX_CHECK(false);
      return {};
  }
}

constexpr size_t kNumSweepShapes = 6;

TEST(OpsProperty, ExecutorMatchesScalarReferenceAcrossShapesSeedsThreads) {
  // The tentpole invariant: for every plan shape, the chunked radix
  // executor's (rows, checksum) equals the scalar reference interpreter's,
  // at every thread count and chunk size — byte-identical kernels make the
  // sweep deterministic, so a single mismatch is a real bug, not noise.
  for (uint64_t seed : {1u, 7u}) {
    workload::ChainWorkload w =
        workload::MakeChainWorkload(SmallChainSpec(seed));
    Catalog catalog = CatalogFromChainWorkload(w);
    for (size_t shape = 0; shape < kNumSweepShapes; ++shape) {
      LogicalPlan plan = MakeSweepPlan(shape);
      PlanRun expect;
      ASSERT_TRUE(ReferenceExecute(catalog, plan, &expect).ok())
          << "shape " << shape;
      PhysicalPlan physical;
      ASSERT_TRUE(Optimize(catalog, plan, P4(),
                           costmodel::CpuCosts::Default(), &physical)
                      .ok())
          << "shape " << shape;
      for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
        for (size_t chunk_rows : {size_t{257}, size_t{0}}) {
          ExecOptions options;
          options.hw = &P4();
          options.pool = pool.get();
          options.chunk_rows = chunk_rows;
          PlanRun run;
          ASSERT_TRUE(
              ExecutePlan(catalog, plan, physical, options, &run).ok());
          EXPECT_EQ(run.result_rows, expect.result_rows)
              << "seed=" << seed << " shape=" << shape
              << " threads=" << threads << " chunk_rows=" << chunk_rows;
          EXPECT_EQ(run.checksum, expect.checksum)
              << "seed=" << seed << " shape=" << shape
              << " threads=" << threads << " chunk_rows=" << chunk_rows;
        }
      }
    }
  }
}

TEST(OpsProperty, SelectThatEliminatesEverythingStillAgrees) {
  workload::ChainWorkload w = workload::MakeChainWorkload(SmallChainSpec(3));
  Catalog catalog = CatalogFromChainWorkload(w);

  Predicate none;
  none.col = {0, 1, false};
  none.op = CmpOp::kEq;
  none.value = 0x7fffffff;  // PayloadValue never produces this
  LogicalPlan project;
  project.root =
      Project(Join(Select(Scan(0), none), Scan(1), 0, 1), {{1, 1, false}});
  LogicalPlan aggregate;
  aggregate.root = Aggregate(
      Join(Select(Scan(0), none), Scan(1), 0, 1), {},
      {{AggFn::kCount, {}}, {AggFn::kMin, {1, 1, false}}});

  for (const LogicalPlan* plan : {&project, &aggregate}) {
    PlanRun expect;
    ASSERT_TRUE(ReferenceExecute(catalog, *plan, &expect).ok());
    PhysicalPlan physical;
    ASSERT_TRUE(Optimize(catalog, *plan, P4(),
                         costmodel::CpuCosts::Default(), &physical)
                    .ok());
    ExecOptions options;
    options.hw = &P4();
    PlanRun run;
    ASSERT_TRUE(ExecutePlan(catalog, *plan, physical, options, &run).ok());
    EXPECT_EQ(run.result_rows, expect.result_rows);
    EXPECT_EQ(run.checksum, expect.checksum);
  }
  // The empty ungrouped aggregate is still one row (count = 0).
  PlanRun agg;
  ASSERT_TRUE(ReferenceExecute(catalog, aggregate, &agg).ok());
  EXPECT_EQ(agg.result_rows, 1u);
}

TEST(OpsEngine, ThreeTableChainEndToEndThroughPrepareExplainExecute) {
  // The acceptance query: a 3-table join chain with a selective filter and
  // a grouped aggregate, planned and run entirely through the engine, with
  // Explain() reporting the per-join-edge Fig. 10 strategy the cost model
  // chose — and the result checksum-identical to the scalar reference at
  // every engine thread count.
  workload::ChainWorkload w = workload::MakeChainWorkload(SmallChainSpec(5));
  Catalog catalog = CatalogFromChainWorkload(w);
  LogicalPlan plan = MakeSweepPlan(3);

  PlanRun expect;
  ASSERT_TRUE(ReferenceExecute(catalog, plan, &expect).ok());

  for (size_t threads : {size_t{1}, size_t{4}}) {
    engine::EngineConfig cfg;
    cfg.hierarchy = P4();
    cfg.num_threads = threads;
    engine::Engine eng(cfg);

    engine::PreparedPlan prepared;
    ASSERT_TRUE(eng.Prepare(catalog, plan, &prepared).ok());

    const engine::Explanation& ex = prepared.Explain();
    EXPECT_TRUE(ex.plan_tree);
    ASSERT_EQ(ex.edge_codes.size(), 2u);  // two join edges in the chain
    for (const std::string& code : ex.edge_codes) {
      ASSERT_EQ(code.size(), 3u) << code;
      EXPECT_TRUE(code[0] == 'u' || code[0] == 's' || code[0] == 'c' ||
                  code[0] == 'd')
          << code;
      // §4.1: a composed right side never reorders — only u or d.
      EXPECT_TRUE(code[2] == 'u' || code[2] == 'd') << code;
    }
    EXPECT_NE(ex.plan_summary.find("t0*t1"), std::string::npos)
        << ex.plan_summary;
    EXPECT_NE(ex.plan_summary.find("t1*t2"), std::string::npos)
        << ex.plan_summary;
    EXPECT_FALSE(ex.mode_reason.empty());
    EXPECT_NE(ex.ToString().find(ex.plan_summary), std::string::npos);
    EXPECT_GT(ex.modeled_seconds, 0.0);
    EXPECT_GT(ex.modeled_intermediate_bytes, 0u);
    EXPECT_EQ(ex.threads, threads);

    PlanRun run;
    ASSERT_TRUE(prepared.Execute(&run).ok());
    EXPECT_EQ(run.result_rows, expect.result_rows) << "threads=" << threads;
    EXPECT_EQ(run.checksum, expect.checksum) << "threads=" << threads;

    // Prepare again: the plan cache serves the same physical plan.
    engine::PreparedPlan again;
    ASSERT_TRUE(eng.Prepare(catalog, plan, &again).ok());
    EXPECT_GE(eng.Stats().plan_cache_hits, 1u);
    EXPECT_EQ(again.Explain().ToString(), ex.ToString());
    PlanRun rerun;
    ASSERT_TRUE(again.Execute(&rerun).ok());
    EXPECT_EQ(rerun.checksum, expect.checksum);
  }
}

TEST(OpsEngine, TwoSidedPlanMatchesLegacyQuerySpecBitForBit) {
  // The compatibility contract: the legacy two-sided QuerySpec query and
  // its TwoSidedPlan plan-tree formulation produce byte-identical results
  // (equal order-independent checksums over identical rows) and the same
  // per-side strategy choice.
  workload::JoinWorkloadSpec ws;
  ws.cardinality = 1 << 12;
  ws.num_attrs = 4;
  ws.seed = 9;
  ws.varchar.num_cols = 1;
  ws.build_nsm = false;
  workload::JoinWorkload w = workload::MakeJoinWorkload(ws);
  Catalog catalog = CatalogFromJoinWorkload(w);

  engine::EngineConfig cfg;
  cfg.hierarchy = P4();
  engine::Engine eng(cfg);

  struct Case {
    size_t pi_l, pi_r, pi_vl, pi_vr;
  };
  for (const Case& c : {Case{1, 1, 0, 0}, Case{2, 2, 0, 1}, Case{1, 2, 1, 1}}) {
    engine::QuerySpec spec;
    spec.pi_left = c.pi_l;
    spec.pi_right = c.pi_r;
    spec.pi_varchar_left = c.pi_vl;
    spec.pi_varchar_right = c.pi_vr;
    engine::PreparedQuery legacy = eng.Prepare(w, spec);
    project::QueryRun legacy_run;
    ASSERT_TRUE(legacy.Execute(&legacy_run).ok());

    LogicalPlan plan = TwoSidedPlan(c.pi_l, c.pi_r, c.pi_vl, c.pi_vr);
    engine::PreparedPlan prepared;
    ASSERT_TRUE(eng.Prepare(catalog, plan, &prepared).ok());
    ASSERT_EQ(prepared.Explain().edge_codes.size(), 1u);
    // Same Fig. 10 strategy choice as the legacy planner for this edge.
    EXPECT_EQ(prepared.Explain().edge_codes[0],
              legacy.Explain().plan_code)
        << "pi=" << c.pi_l << "/" << c.pi_r;
    PlanRun run;
    ASSERT_TRUE(prepared.Execute(&run).ok());
    EXPECT_EQ(run.result_rows, legacy_run.result_cardinality);
    EXPECT_EQ(run.checksum, legacy_run.checksum)
        << "pi=" << c.pi_l << "/" << c.pi_r << " vl=" << c.pi_vl
        << " vr=" << c.pi_vr;
  }
}

TEST(OpsEngine, OneJoinTreeAndTwoSidedSpecShareTheCostModel) {
  // The DSM-post phase costs have one definition (project::DsmPostCost):
  // a one-join tree and the two-sided spec with the same sides, pi 1/1,
  // materializing and equal estimated rows must model identical join,
  // cluster, projection and decluster costs — on an easy (u/u) and a hard
  // (c/d) P4 join alike.
  engine::EngineConfig cfg;
  cfg.hierarchy = P4();
  engine::Engine eng(cfg);
  for (size_t n : {size_t{1} << 12, size_t{1} << 18}) {
    workload::JoinWorkloadSpec ws;
    ws.cardinality = n;
    ws.num_attrs = 2;
    ws.seed = 13;
    ws.build_nsm = false;
    workload::JoinWorkload w = workload::MakeJoinWorkload(ws);
    Catalog catalog = CatalogFromJoinWorkload(w);

    engine::QuerySpec spec;
    spec.chunking = engine::ChunkingPolicy::kMaterialize;
    const engine::Explanation two_sided = eng.Prepare(w, spec).Explain();

    LogicalPlan plan = TwoSidedPlan(1, 1, 0, 0);
    PhysicalPlan physical;
    ASSERT_TRUE(Optimize(catalog, plan, P4(), eng.cpu_costs(), &physical)
                    .ok());
    ASSERT_EQ(physical.edges.size(), 1u);
    ASSERT_EQ(physical.est_result_rows, two_sided.estimated_result_rows);
    ASSERT_EQ(physical.edges[0].code, two_sided.plan_code) << "n=" << n;
    ASSERT_FALSE(two_sided.streaming);
    auto same = [&](const costmodel::CostEstimate& a,
                    const costmodel::CostEstimate& b, const char* phase) {
      EXPECT_EQ(a.misses.l1, b.misses.l1) << phase << " n=" << n;
      EXPECT_EQ(a.misses.l2, b.misses.l2) << phase << " n=" << n;
      EXPECT_EQ(a.misses.tlb, b.misses.tlb) << phase << " n=" << n;
      EXPECT_EQ(a.seconds, b.seconds) << phase << " n=" << n;
    };
    same(physical.join_cost, two_sided.join_cost, "join");
    same(physical.cluster_cost, two_sided.cluster_cost, "cluster");
    same(physical.projection_cost, two_sided.projection_cost, "projection");
    same(physical.decluster_cost, two_sided.decluster_cost, "decluster");
  }
}

/// The malformed trees every validating entry point must reject. Shared
/// between the engine-Prepare test and the ReferenceExecute parity test:
/// the reference is the differential-fuzz oracle, so it must return
/// kInvalidArgument for exactly the trees the optimized path rejects —
/// otherwise an error-path divergence reads as a found bug.
std::vector<std::pair<LogicalPlan, const char*>> MalformedTrees() {
  std::vector<std::pair<LogicalPlan, const char*>> out;
  {  // ordered comparison on a varchar predicate
    Predicate pred;
    pred.col = {0, 0, true};
    pred.op = CmpOp::kLt;
    pred.str_value = "m";
    LogicalPlan plan;
    plan.root =
        Project(Select(Scan(0), pred), {{0, 1, false}});
    out.emplace_back(std::move(plan), "varchar kLt predicate");
  }
  {  // self-join: the same table scanned on both sides
    LogicalPlan plan;
    plan.root = Project(Join(Scan(0), Scan(0), 0, 0), {{0, 1, false}});
    out.emplace_back(std::move(plan), "self-join");
  }
  {  // varchar group-by column
    LogicalPlan plan;
    plan.root =
        Aggregate(Scan(0), {{0, 0, true}}, {{AggFn::kCount, {}}});
    out.emplace_back(std::move(plan), "varchar group-by");
  }
  {  // varchar aggregate input
    LogicalPlan plan;
    plan.root = Aggregate(Scan(0), {}, {{AggFn::kSum, {0, 0, true}}});
    out.emplace_back(std::move(plan), "varchar aggregate input");
  }
  {  // project below the root
    LogicalPlan plan;
    plan.root = Project(Project(Scan(0), {{0, 1, false}}), {{0, 1, false}});
    out.emplace_back(std::move(plan), "project below root");
  }
  {  // root that is neither project nor aggregate
    LogicalPlan plan;
    plan.root = Scan(0);
    out.emplace_back(std::move(plan), "bare scan root");
  }
  {  // column reference past the table's attribute count
    LogicalPlan plan;
    plan.root = Project(Scan(0), {{0, 99, false}});
    out.emplace_back(std::move(plan), "attr out of range");
  }
  {  // scan of a table the catalog does not have, referenced by a column
    LogicalPlan plan;
    plan.root = Project(Scan(99), {{99, 0, false}});
    out.emplace_back(std::move(plan), "scan out of range");
  }
  return out;
}

TEST(OpsValidate, MalformedTreesAreInvalidArgumentNotCrashes) {
  workload::ChainWorkload w = workload::MakeChainWorkload(SmallChainSpec(2));
  Catalog catalog = CatalogFromChainWorkload(w);
  engine::EngineConfig cfg;
  cfg.hierarchy = P4();
  engine::Engine eng(cfg);

  for (auto& [plan, what] : MalformedTrees()) {
    engine::PreparedPlan prepared;
    Status status = eng.Prepare(catalog, plan, &prepared);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << what;
    EXPECT_FALSE(status.message().empty()) << what;
  }

  {  // varchar reference on a table with no varchar columns
    workload::ChainWorkloadSpec no_var = SmallChainSpec(2);
    no_var.varchar.num_cols = 0;
    workload::ChainWorkload w2 = workload::MakeChainWorkload(no_var);
    Catalog cat2 = CatalogFromChainWorkload(w2);
    LogicalPlan plan;
    plan.root = Project(Scan(0), {{0, 0, true}});
    engine::PreparedPlan prepared;
    Status status = eng.Prepare(cat2, plan, &prepared);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  }
}

TEST(OpsValidate, ReferenceExecuteRejectsTheSameMalformedTrees) {
  workload::ChainWorkload w = workload::MakeChainWorkload(SmallChainSpec(2));
  Catalog catalog = CatalogFromChainWorkload(w);

  for (auto& [plan, what] : MalformedTrees()) {
    PlanRun run;
    Status status = ReferenceExecute(catalog, plan, &run);
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << what;
    EXPECT_FALSE(status.message().empty()) << what;
  }
}

TEST(OpsValidate, ChainWorkloadTablesZeroOneMatchTwoSidedWorkload) {
  // ChainPayloadAttr's contract: chain tables 0 and 1 reproduce the
  // two-sided workload's left/right payload streams, which is what makes
  // TwoSidedPlan checksums comparable across the two generators.
  EXPECT_EQ(workload::ChainPayloadAttr(0, 1), 1u);
  EXPECT_EQ(workload::ChainPayloadAttr(1, 1), 1001u);
  workload::ChainWorkloadSpec spec;
  spec.cardinalities = {512, 512};
  spec.num_attrs = 3;
  spec.seed = 11;
  workload::ChainWorkload w = workload::MakeChainWorkload(spec);
  for (size_t t = 0; t < 2; ++t) {
    const auto& key = w.tables[t].key();
    const auto& a1 = w.tables[t].attr(1);
    for (size_t i = 0; i < 512; i += 97) {
      EXPECT_EQ(a1[i], workload::PayloadValue(
                           key[i], workload::ChainPayloadAttr(t, 1)));
    }
  }
}

}  // namespace
}  // namespace radix::ops
