// End-to-end varchar workload properties: every Fig. 10 strategy must
// produce byte-identical string results for mixed fixed+varchar projection
// lists — asserted two ways:
//  * the order-independent checksum (string bytes folded into each row's
//    digest) must equal a scalar nested-loop reference that shares no code
//    with the radix kernels (the quickstart independent-ground-truth
//    pattern), across strategies x seeds x threads x length distributions;
//  * the DSM post-projection's returned varchar columns are compared
//    byte-for-byte against the reordered join index's oids per result row.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "engine/engine.h"
#include "join/partitioned_hash_join.h"
#include "project/checksum.h"
#include "project/dsm_post.h"
#include "project/executor.h"
#include "project/planner.h"
#include "workload/generator.h"

namespace radix {
namespace {

using project::JoinStrategy;
using project::SideStrategy;
using workload::JoinWorkload;
using workload::JoinWorkloadSpec;
using workload::VarcharColumnSpec;

constexpr JoinStrategy kAllStrategies[] = {
    JoinStrategy::kDsmPostDecluster, JoinStrategy::kDsmPrePhash,
    JoinStrategy::kNsmPreHash,       JoinStrategy::kNsmPrePhash,
    JoinStrategy::kNsmPostDecluster, JoinStrategy::kNsmPostJive};

/// Length distributions under test: uniform, Zipf-skewed with empties
/// mixed in, and the all-empty edge case.
VarcharColumnSpec DistSpec(int dist, size_t num_cols) {
  VarcharColumnSpec vs;
  vs.num_cols = num_cols;
  switch (dist) {
    case 0:  // uniform [4, 20]
      break;
    case 1:  // Zipf lengths incl. empty strings
      vs.min_len = 0;
      vs.max_len = 64;
      vs.zipf_skew = 1.2;
      vs.empty_fraction = 0.1;
      break;
    default:  // all-empty
      vs.empty_fraction = 1.0;
      break;
  }
  return vs;
}

/// Scalar nested-loop reference: literally O(n^2), no hash tables, no
/// radix kernels — only the deterministic payload functions and the shared
/// per-row digest. Any strategy must land on exactly this checksum.
uint64_t ReferenceChecksum(const JoinWorkload& w, const JoinWorkloadSpec& ws,
                           const project::QueryOptions& opt,
                           size_t* cardinality = nullptr) {
  uint64_t sum = 0;
  size_t rows = 0;
  size_t n = w.dsm_left.cardinality();
  for (size_t i = 0; i < n; ++i) {
    value_t lk = w.dsm_left.key()[i];
    for (size_t j = 0; j < w.dsm_right.cardinality(); ++j) {
      if (w.dsm_right.key()[j] != lk) continue;
      value_t rk = lk;
      project::RowDigest d;
      for (size_t c = 0; c < opt.pi_left; ++c) {
        d.AddValue(workload::PayloadValue(lk, 1 + c));
      }
      for (size_t c = 0; c < opt.pi_right; ++c) {
        d.AddValue(workload::PayloadValue(rk, 1 + c + 1000));
      }
      for (size_t c = 0; c < opt.pi_varchar_left; ++c) {
        d.AddString(workload::PayloadString(lk, c, ws.varchar));
      }
      for (size_t c = 0; c < opt.pi_varchar_right; ++c) {
        d.AddString(workload::PayloadString(
            rk, workload::kRightVarcharAttrOffset + c, ws.varchar));
      }
      sum += d.digest();
      ++rows;
    }
  }
  if (cardinality != nullptr) *cardinality = rows;
  return sum;
}

class VarcharStrategySweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, double>> {};

TEST_P(VarcharStrategySweep, AllStrategiesMatchScalarReference) {
  auto [dist, seed, hit_rate] = GetParam();
  JoinWorkloadSpec ws;
  ws.cardinality = 1500;
  ws.num_attrs = 3;
  ws.hit_rate = hit_rate;
  ws.seed = seed;
  ws.varchar = DistSpec(dist, 2);
  JoinWorkload w = workload::MakeJoinWorkload(ws);
  auto hw = hardware::MemoryHierarchy::Pentium4();

  project::QueryOptions opt;
  opt.pi_left = 2;
  opt.pi_right = 2;
  opt.pi_varchar_left = 1;
  opt.pi_varchar_right = 2;
  size_t expected_rows = 0;
  uint64_t expected = ReferenceChecksum(w, ws, opt, &expected_rows);

  for (JoinStrategy s : kAllStrategies) {
    project::QueryRun run = project::RunQuery(w, s, opt, hw);
    EXPECT_EQ(run.checksum, expected)
        << project::JoinStrategyName(s) << " dist=" << dist
        << " seed=" << seed;
    EXPECT_EQ(run.result_cardinality, expected_rows)
        << project::JoinStrategyName(s);
  }

  // The DSM-post strategy additionally sweeps worker threads (its kernels
  // have parallel variants; varchar gathers stay serial but must compose
  // with the parallel fixed kernels) and a streamed range (the fixed d
  // columns drain by range, the varchar columns take the Fig. 12 path).
  for (size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    project::QueryOptions topt = opt;
    topt.pool = &pool;
    project::QueryRun run =
        project::RunQuery(w, JoinStrategy::kDsmPostDecluster, topt, hw);
    EXPECT_EQ(run.checksum, expected) << "threads=" << threads;
  }
  project::QueryOptions mopt = opt;
  mopt.plan_sides = false;
  mopt.left = SideStrategy::kClustered;
  mopt.right = SideStrategy::kDecluster;
  project::QueryOptions sopt = mopt;
  sopt.chunk_rows = project::DefaultChunkRows(hw);
  project::QueryRun streamed =
      project::RunQuery(w, JoinStrategy::kDsmPostDecluster, sopt, hw);
  project::QueryRun materialized =
      project::RunQuery(w, JoinStrategy::kDsmPostDecluster, mopt, hw);
  EXPECT_EQ(streamed.checksum, materialized.checksum) << "streamed c/d";
  EXPECT_EQ(streamed.checksum, expected) << "streamed c/d";
  EXPECT_GT(streamed.phases.pipeline_wall_seconds, 0.0)
      << "a d side drains by range";

  // Forced side codes: every Fig. 10c plan shape over varchar payloads.
  for (auto [l, r] : {std::pair{SideStrategy::kUnsorted,
                                SideStrategy::kUnsorted},
                      std::pair{SideStrategy::kClustered,
                                SideStrategy::kDecluster},
                      std::pair{SideStrategy::kSorted,
                                SideStrategy::kDecluster}}) {
    project::QueryOptions fopt = opt;
    fopt.plan_sides = false;
    fopt.left = l;
    fopt.right = r;
    project::QueryRun run =
        project::RunQuery(w, JoinStrategy::kDsmPostDecluster, fopt, hw);
    EXPECT_EQ(run.checksum, expected)
        << project::SideStrategyCode(l) << "/" << project::SideStrategyCode(r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VarcharStrategySweep,
    ::testing::Values(std::tuple<int, uint64_t, double>{0, 7, 1.0},
                      std::tuple<int, uint64_t, double>{0, 21, 0.3},
                      std::tuple<int, uint64_t, double>{1, 7, 1.0},
                      std::tuple<int, uint64_t, double>{1, 21, 1.0},
                      std::tuple<int, uint64_t, double>{2, 7, 1.0}));

TEST(VarcharDsmPostTest, ResultColumnsAreByteIdenticalToIndexGather) {
  // DsmPostProject returns actual varchar columns; after the call the
  // reordered index lists each result row's oid pair, so every string can
  // be checked byte-for-byte against its base column — for each plan shape
  // including the three-phase declustered right side.
  JoinWorkloadSpec ws;
  ws.cardinality = 4000;
  ws.num_attrs = 3;
  ws.seed = 11;
  ws.varchar = DistSpec(1, 2);
  JoinWorkload w = workload::MakeJoinWorkload(ws);
  auto hw = hardware::MemoryHierarchy::Pentium4();

  for (auto [l, r] :
       {std::pair{SideStrategy::kUnsorted, SideStrategy::kUnsorted},
        std::pair{SideStrategy::kClustered, SideStrategy::kDecluster},
        std::pair{SideStrategy::kSorted, SideStrategy::kDecluster}}) {
    join::JoinIndex index = join::PartitionedHashJoin(
        w.dsm_left.key().span(), w.dsm_right.key().span(), hw);
    project::DsmPostOptions popts;
    popts.left = l;
    popts.right = r;
    project::VarcharProjection var;
    var.left = {&w.left_varchars[0], &w.left_varchars[1]};
    var.right = {&w.right_varchars[0], &w.right_varchars[1]};
    storage::DsmResult result = project::DsmPostProject(
        index, w.dsm_left, w.dsm_right, /*pi_left=*/1, /*pi_right=*/1, hw,
        popts, nullptr, &var);
    ASSERT_EQ(result.cardinality, index.size());
    ASSERT_EQ(result.left_varchars.size(), 2u);
    ASSERT_EQ(result.right_varchars.size(), 2u);
    for (size_t i = 0; i < result.cardinality; ++i) {
      for (size_t c = 0; c < 2; ++c) {
        ASSERT_EQ(result.left_varchars[c].at(i),
                  w.left_varchars[c].at(index[i].left))
            << "row " << i << " left col " << c;
        ASSERT_EQ(result.right_varchars[c].at(i),
                  w.right_varchars[c].at(index[i].right))
            << "row " << i << " right col " << c;
      }
    }
  }
}

TEST(VarcharQueryTest, VarcharOnlyProjectionList) {
  // pi fixed = 0 with varchar columns only: every strategy must still
  // report the true cardinality (zero-width row results collapse to 0
  // rows; the gathered varchar columns carry the count) and the
  // reference checksum.
  JoinWorkloadSpec ws;
  ws.cardinality = 1000;
  ws.num_attrs = 2;
  ws.seed = 3;
  ws.varchar = DistSpec(0, 1);
  JoinWorkload w = workload::MakeJoinWorkload(ws);
  auto hw = hardware::MemoryHierarchy::Pentium4();

  project::QueryOptions opt;
  opt.pi_left = 0;
  opt.pi_right = 0;
  opt.pi_varchar_left = 1;
  opt.pi_varchar_right = 1;
  uint64_t expected = ReferenceChecksum(w, ws, opt);
  for (JoinStrategy s : kAllStrategies) {
    project::QueryRun run = project::RunQuery(w, s, opt, hw);
    EXPECT_EQ(run.result_cardinality, 1000u) << project::JoinStrategyName(s);
    EXPECT_EQ(run.checksum, expected) << project::JoinStrategyName(s);
  }
}

TEST(VarcharQueryTest, EmptyJoinResult) {
  // A join with (almost) no matches: varchar projections over an empty or
  // near-empty result must not trip the decluster edge cases.
  JoinWorkloadSpec ws;
  ws.cardinality = 500;
  ws.num_attrs = 3;
  ws.hit_rate = 0.002;  // ~1 match
  ws.seed = 9;
  ws.varchar = DistSpec(0, 1);
  JoinWorkload w = workload::MakeJoinWorkload(ws);
  auto hw = hardware::MemoryHierarchy::Pentium4();

  project::QueryOptions opt;
  opt.pi_left = 1;
  opt.pi_right = 1;
  opt.pi_varchar_left = 1;
  opt.pi_varchar_right = 1;
  size_t expected_rows = 0;
  uint64_t expected = ReferenceChecksum(w, ws, opt, &expected_rows);
  for (JoinStrategy s : kAllStrategies) {
    project::QueryRun run = project::RunQuery(w, s, opt, hw);
    EXPECT_EQ(run.checksum, expected) << project::JoinStrategyName(s);
    EXPECT_EQ(run.result_cardinality, expected_rows);
  }
}

TEST(VarcharWorkloadTest, PayloadStringIsDeterministicAndDistRespecting) {
  VarcharColumnSpec uniform;  // defaults: [4, 20]
  for (value_t key : {0, 1, 12345, 0x7fffffff}) {
    std::string a = workload::PayloadString(key, 2, uniform);
    std::string b = workload::PayloadString(key, 2, uniform);
    EXPECT_EQ(a, b);
    EXPECT_GE(a.size(), uniform.min_len);
    EXPECT_LE(a.size(), uniform.max_len);
    // Distinct attrs should (virtually always) give distinct strings.
    EXPECT_NE(a, workload::PayloadString(key, 3, uniform));
  }
  VarcharColumnSpec empties;
  empties.empty_fraction = 1.0;
  EXPECT_TRUE(workload::PayloadString(42, 0, empties).empty());

  VarcharColumnSpec zipf = DistSpec(1, 1);
  size_t total = 0;
  for (value_t key = 0; key < 2000; ++key) {
    total += workload::PayloadString(key, 0, zipf).size();
  }
  // Skewed toward min: the mean must sit well below the uniform midpoint.
  EXPECT_LT(total / 2000, (zipf.min_len + zipf.max_len) / 2);
}

TEST(VarcharWorkloadTest, GeneratedColumnsMatchPayloadString) {
  JoinWorkloadSpec ws;
  ws.cardinality = 300;
  ws.num_attrs = 2;
  ws.seed = 5;
  ws.varchar = DistSpec(1, 2);
  JoinWorkload w = workload::MakeJoinWorkload(ws);
  ASSERT_EQ(w.left_varchars.size(), 2u);
  ASSERT_EQ(w.right_varchars.size(), 2u);
  for (size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(w.left_varchars[c].size(), 300u);
    for (size_t i = 0; i < 300; ++i) {
      EXPECT_EQ(w.left_varchars[c].at(i),
                workload::PayloadString(w.dsm_left.key()[i], c, ws.varchar));
      EXPECT_EQ(w.right_varchars[c].at(i),
                workload::PayloadString(
                    w.dsm_right.key()[i],
                    workload::kRightVarcharAttrOffset + c, ws.varchar));
    }
  }
}

}  // namespace
}  // namespace radix
