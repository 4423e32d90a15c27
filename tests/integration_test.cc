// End-to-end integration tests: the full pipeline (generate -> join ->
// project) across storage models, strategies, hit rates, projectivities
// and cardinalities, cross-validated against a scalar reference executor.
// Queries run through the public engine API (one session Engine reused by
// the whole suite); the legacy free functions are covered by the project
// and engine suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/hash.h"
#include "engine/engine.h"
#include "hardware/memory_hierarchy.h"
#include "join/partitioned_hash_join.h"
#include "project/dsm_post.h"
#include "project/executor.h"
#include "workload/generator.h"

namespace radix {
namespace {

using project::JoinStrategy;
using project::QueryRun;

hardware::MemoryHierarchy P4() {
  return hardware::MemoryHierarchy::Pentium4();
}

engine::EngineConfig P4Config() {
  engine::EngineConfig cfg;
  cfg.hierarchy = P4();
  return cfg;
}

/// One session engine for the whole suite — consecutive tests double as
/// engine-reuse coverage.
engine::Engine& P4Engine() {
  static engine::Engine eng{P4Config()};
  return eng;
}

/// Prepare + Execute on the suite's engine, failing the test on a non-OK
/// Status.
QueryRun RunOk(const engine::PreparedQuery& q) {
  QueryRun run;
  Status status = q.Execute(&run);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return run;
}

QueryRun RunOk(const workload::JoinWorkload& w,
               const engine::QuerySpec& spec) {
  return RunOk(P4Engine().Prepare(w, spec));
}

/// Scalar reference: nested-loop join + projection, producing the same
/// order-independent checksum the executor computes.
uint64_t ReferenceChecksum(const workload::JoinWorkload& w, size_t pi_left,
                           size_t pi_right) {
  std::multimap<value_t, oid_t> right_index;
  for (size_t i = 0; i < w.dsm_right.cardinality(); ++i) {
    right_index.emplace(w.dsm_right.key()[i], static_cast<oid_t>(i));
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < w.dsm_left.cardinality(); ++i) {
    auto [lo, hi] = right_index.equal_range(w.dsm_left.key()[i]);
    for (auto it = lo; it != hi; ++it) {
      uint64_t row_digest = 0x9e3779b97f4a7c15ULL;
      size_t a = 0;
      for (size_t c = 0; c < pi_left; ++c, ++a) {
        uint64_t v = static_cast<uint32_t>(w.dsm_left.attr(1 + c)[i]);
        row_digest = HashInt64(row_digest ^ (v + (static_cast<uint64_t>(a) << 32)));
      }
      for (size_t c = 0; c < pi_right; ++c, ++a) {
        uint64_t v = static_cast<uint32_t>(w.dsm_right.attr(1 + c)[it->second]);
        row_digest = HashInt64(row_digest ^ (v + (static_cast<uint64_t>(a) << 32)));
      }
      sum += row_digest;
    }
  }
  return sum;
}

struct IntegrationParam {
  size_t n;
  size_t omega;
  size_t pi;
  double h;
};

class PipelineSweep : public ::testing::TestWithParam<IntegrationParam> {};

TEST_P(PipelineSweep, AllStrategiesMatchScalarReference) {
  const auto& p = GetParam();
  workload::JoinWorkloadSpec spec;
  spec.cardinality = p.n;
  spec.num_attrs = p.omega;
  spec.hit_rate = p.h;
  spec.seed = 100 + p.n + p.omega;
  auto w = workload::MakeJoinWorkload(spec);
  uint64_t expected = ReferenceChecksum(w, p.pi, p.pi);

  engine::QuerySpec qspec;
  qspec.pi_left = p.pi;
  qspec.pi_right = p.pi;
  for (JoinStrategy s :
       {JoinStrategy::kDsmPostDecluster, JoinStrategy::kDsmPrePhash,
        JoinStrategy::kNsmPreHash, JoinStrategy::kNsmPrePhash,
        JoinStrategy::kNsmPostDecluster, JoinStrategy::kNsmPostJive}) {
    qspec.strategy = s;
    QueryRun run = RunOk(w, qspec);
    EXPECT_EQ(run.checksum, expected) << project::JoinStrategyName(s);
    EXPECT_EQ(run.result_cardinality, w.expected_result_size)
        << project::JoinStrategyName(s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineSweep,
    ::testing::Values(IntegrationParam{1000, 2, 1, 1.0},
                      IntegrationParam{4096, 4, 2, 1.0},
                      IntegrationParam{5000, 4, 3, 0.3},
                      IntegrationParam{5000, 4, 1, 3.0},
                      IntegrationParam{1 << 15, 8, 4, 1.0},
                      IntegrationParam{777, 8, 7, 1.0},
                      IntegrationParam{1 << 16, 2, 1, 1.0}));

TEST(PipelineTest, HardCaseUsesRadixMachineryAndStaysCorrect) {
  // Big enough that the P4 planner classifies the join as "hard"
  // (columns 1MB > 512KB L2): the planned run must use c/d and match the
  // unsorted reference.
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 1 << 18;
  spec.num_attrs = 4;
  auto w = workload::MakeJoinWorkload(spec);
  engine::QuerySpec planned;
  planned.pi_left = 2;
  planned.pi_right = 2;
  // Prepare/Explain/Execute: the plan is visible before the run, and the
  // run must carry it verbatim.
  engine::PreparedQuery q = P4Engine().Prepare(w, planned);
  EXPECT_EQ(q.Explain().plan_code, "c/d");
  QueryRun run = RunOk(q);
  EXPECT_EQ(run.detail, "c/d");

  engine::QuerySpec unsorted = planned;
  unsorted.plan_sides = false;
  unsorted.left = project::SideStrategy::kUnsorted;
  unsorted.right = project::SideStrategy::kUnsorted;
  QueryRun ref = RunOk(w, unsorted);
  EXPECT_EQ(run.checksum, ref.checksum);
}

TEST(PipelineTest, SparseSelectionProjectionsStayCorrect) {
  // One join side is a 10% selection of a base table (paper §4 "Sparse
  // Projections"): oids point sparsely into base columns. Compose the
  // join index with a selection vector and project through ProjectSide.
  size_t n = 1 << 15;
  double sel = 0.1;
  size_t base_n = static_cast<size_t>(n / sel);
  Rng rng(42);
  std::vector<oid_t> selection = workload::MakeSparseOids(n, sel, rng);
  auto base = workload::MakeBaseColumn(base_n, 1);

  // Join index side oids (positions into the selection), random order.
  std::vector<oid_t> index_side(n);
  for (auto& o : index_side) o = static_cast<oid_t>(rng.Below(n));

  // Compose: base oid of row i = selection[index_side[i]].
  std::vector<oid_t> base_ids(n);
  for (size_t i = 0; i < n; ++i) base_ids[i] = selection[index_side[i]];
  std::vector<oid_t> original = base_ids;

  std::vector<value_t> out(n);
  project::PhaseBreakdown phases;
  project::ProjectSide(base_ids, project::SideStrategy::kDecluster,
                       {base.span()}, {std::span<value_t>(out)}, base_n,
                       P4(), project::DsmPostOptions::kAuto, 0, &phases);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], base[original[i]]);
  }
}

TEST(PipelineTest, ProjectionDominatesAtHighProjectivity) {
  // The paper's §1 observation: queries may spend >90% of their time in
  // projection. At pi = 32 the projection phase must dominate the join
  // phase for DSM post-projection.
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 1 << 17;
  spec.num_attrs = 33;
  spec.build_nsm = false;
  auto w = workload::MakeJoinWorkload(spec);
  engine::QuerySpec qspec;
  qspec.pi_left = 32;
  qspec.pi_right = 32;
  QueryRun run = RunOk(w, qspec);
  double projection = run.phases.cluster_seconds +
                      run.phases.projection_seconds +
                      run.phases.decluster_seconds;
  EXPECT_GT(projection, run.phases.join_seconds);
}

TEST(PipelineTest, ZeroMatchesProduceEmptyResultEverywhere) {
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 2048;
  spec.num_attrs = 3;
  auto w = workload::MakeJoinWorkload(spec);
  // Destroy all matches.
  for (size_t i = 0; i < spec.cardinality; ++i) {
    w.dsm_left.key()[i] = static_cast<value_t>(i);
    w.dsm_right.key()[i] = static_cast<value_t>(i + 1'000'000);
    w.nsm_left.record(i)[0] = w.dsm_left.key()[i];
    w.nsm_right.record(i)[0] = w.dsm_right.key()[i];
  }
  engine::QuerySpec qspec;
  qspec.pi_left = 1;
  qspec.pi_right = 1;
  for (JoinStrategy s :
       {JoinStrategy::kDsmPostDecluster, JoinStrategy::kNsmPreHash,
        JoinStrategy::kNsmPostJive}) {
    qspec.strategy = s;
    QueryRun run = RunOk(w, qspec);
    EXPECT_EQ(run.result_cardinality, 0u) << project::JoinStrategyName(s);
  }
}

}  // namespace
}  // namespace radix
