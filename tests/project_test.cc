// Tests for the projection strategies: every strategy must compute the
// same relation (order-independent), the DSM-post side codes must behave
// per the paper, and the planner must encode the easy/hard rules.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "hardware/memory_hierarchy.h"
#include "join/partitioned_hash_join.h"
#include "project/checksum.h"
#include "project/dsm_post.h"
#include "project/dsm_pre.h"
#include "project/executor.h"
#include "project/nsm_post.h"
#include "project/nsm_pre.h"
#include "project/planner.h"
#include "workload/generator.h"

namespace radix::project {
namespace {

hardware::MemoryHierarchy P4() {
  return hardware::MemoryHierarchy::Pentium4();
}

workload::JoinWorkload SmallWorkload(size_t n = 1 << 13, size_t omega = 4,
                                     double h = 1.0, uint64_t seed = 5) {
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = omega;
  spec.hit_rate = h;
  spec.seed = seed;
  return workload::MakeJoinWorkload(spec);
}

/// Verify a DSM result against the payload function: every row's projected
/// values must be consistent with *some* matching tuple pair; with h==1
/// payloads are unique per key so we can check exact multisets.
void ExpectResultMatchesJoin(const storage::DsmResult& result,
                             const workload::JoinWorkload& w, size_t pi_left,
                             size_t pi_right) {
  ASSERT_EQ(result.left_columns.size(), pi_left);
  ASSERT_EQ(result.right_columns.size(), pi_right);
  // Build multiset of left attr-1 values expected in the result (h=1:
  // every left tuple appears exactly once).
  if (pi_left > 0) {
    std::multiset<value_t> expected, got;
    for (size_t i = 0; i < w.dsm_left.cardinality(); ++i) {
      expected.insert(w.dsm_left.attr(1)[i]);
    }
    for (size_t i = 0; i < result.cardinality; ++i) {
      got.insert(result.left_columns[0][i]);
    }
    EXPECT_EQ(expected, got);
  }
  // Row consistency: left and right columns must stem from tuples with the
  // same key. PayloadValue(key, a) is invertible enough: regenerate from
  // the key embedded via attr 1.
}

struct SideCombo {
  SideStrategy left;
  SideStrategy right;
};

class DsmPostStrategySweep : public ::testing::TestWithParam<SideCombo> {};

TEST_P(DsmPostStrategySweep, AllSideCombosComputeSameRelation) {
  auto hw = P4();
  auto w = SmallWorkload(1 << 13, 4, 1.0);
  QueryOptions qopts;
  qopts.pi_left = 2;
  qopts.pi_right = 2;
  qopts.plan_sides = false;
  qopts.left = GetParam().left;
  qopts.right = GetParam().right;
  QueryRun run = RunQuery(w, JoinStrategy::kDsmPostDecluster, qopts, hw);

  QueryOptions ref_opts = qopts;
  ref_opts.left = SideStrategy::kUnsorted;
  ref_opts.right = SideStrategy::kUnsorted;
  QueryRun ref = RunQuery(w, JoinStrategy::kDsmPostDecluster, ref_opts, hw);

  EXPECT_EQ(run.result_cardinality, w.expected_result_size);
  EXPECT_EQ(run.checksum, ref.checksum)
      << "strategy " << run.detail << " computed a different relation";
}

INSTANTIATE_TEST_SUITE_P(
    PaperCodes, DsmPostStrategySweep,
    ::testing::Values(SideCombo{SideStrategy::kUnsorted, SideStrategy::kUnsorted},
                      SideCombo{SideStrategy::kClustered, SideStrategy::kUnsorted},
                      SideCombo{SideStrategy::kClustered, SideStrategy::kDecluster},
                      SideCombo{SideStrategy::kSorted, SideStrategy::kDecluster},
                      SideCombo{SideStrategy::kSorted, SideStrategy::kUnsorted},
                      SideCombo{SideStrategy::kUnsorted, SideStrategy::kDecluster}));

TEST(ExecutorThreadsTest, NumThreadsProducesIdenticalQueryResults) {
  // The num_threads knob must not change what is computed: the parallel
  // cluster/decluster kernels are byte-identical to serial, so cardinality,
  // checksum and the planned strategy code all match the serial run.
  auto hw = P4();
  auto w = SmallWorkload(1 << 14, 4, 1.0);
  for (bool plan : {true, false}) {
    QueryOptions serial;
    serial.pi_left = 2;
    serial.pi_right = 2;
    serial.plan_sides = plan;
    QueryRun ref = RunQuery(w, JoinStrategy::kDsmPostDecluster, serial, hw);
    for (size_t threads : {2u, 4u, 8u}) {
      QueryOptions par = serial;
      par.num_threads = threads;
      QueryRun run = RunQuery(w, JoinStrategy::kDsmPostDecluster, par, hw);
      EXPECT_EQ(run.result_cardinality, ref.result_cardinality);
      EXPECT_EQ(run.checksum, ref.checksum)
          << "plan_sides=" << plan << " threads=" << threads;
      EXPECT_EQ(run.detail, ref.detail);
    }
  }
}

TEST(DsmPostTest, ProjectionValuesAreCorrectRowByRow) {
  auto hw = P4();
  auto w = SmallWorkload(1 << 12, 4, 1.0);
  join::JoinIndex index = join::PartitionedHashJoin(
      w.dsm_left.key().span(), w.dsm_right.key().span(), hw);
  DsmPostOptions opts;
  opts.left = SideStrategy::kClustered;
  opts.right = SideStrategy::kDecluster;
  storage::DsmResult result =
      DsmPostProject(index, w.dsm_left, w.dsm_right, 2, 2, hw, opts);
  // After projection, `index` reflects the final result order; check rows.
  for (size_t i = 0; i < result.cardinality; ++i) {
    oid_t l = index[i].left;
    oid_t r = index[i].right;
    ASSERT_EQ(result.left_columns[0][i], w.dsm_left.attr(1)[l]);
    ASSERT_EQ(result.left_columns[1][i], w.dsm_left.attr(2)[l]);
    ASSERT_EQ(result.right_columns[0][i], w.dsm_right.attr(1)[r]);
    ASSERT_EQ(result.right_columns[1][i], w.dsm_right.attr(2)[r]);
  }
  ExpectResultMatchesJoin(result, w, 2, 2);
}

TEST(DsmPostTest, ZeroProjectionColumns) {
  auto hw = P4();
  auto w = SmallWorkload(1 << 10);
  join::JoinIndex index = join::PartitionedHashJoin(
      w.dsm_left.key().span(), w.dsm_right.key().span(), hw);
  DsmPostOptions opts;
  storage::DsmResult result =
      DsmPostProject(index, w.dsm_left, w.dsm_right, 0, 0, hw, opts);
  EXPECT_EQ(result.cardinality, w.expected_result_size);
  EXPECT_TRUE(result.left_columns.empty());
}

TEST(ProjectSideTest, DeclusterPreservesResultOrderSemantics) {
  // ProjectSide with kDecluster must produce out[i] == column[ids[i]] for
  // the ORIGINAL ids order, even though it re-clusters internally.
  auto hw = P4();
  size_t n = 1 << 14;
  Rng rng(9);
  std::vector<oid_t> ids(n);
  for (auto& id : ids) id = static_cast<oid_t>(rng.Below(n));
  std::vector<oid_t> original = ids;
  auto column = workload::MakeBaseColumn(n, 1);
  std::vector<value_t> out(n);
  PhaseBreakdown phases;
  ProjectSide(ids, SideStrategy::kDecluster,
              {column.span()}, {std::span<value_t>(out)}, n, hw,
              DsmPostOptions::kAuto, 0, &phases);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], column[original[i]]) << "row " << i;
  }
  EXPECT_GT(phases.decluster_seconds, 0.0);
}

TEST(ExecutorTest, AllSixStrategiesAgreeOnChecksum) {
  auto hw = P4();
  auto w = SmallWorkload(1 << 12, 4, 1.0);
  QueryOptions qopts;
  qopts.pi_left = 2;
  qopts.pi_right = 2;
  std::map<JoinStrategy, QueryRun> runs;
  for (JoinStrategy s :
       {JoinStrategy::kDsmPostDecluster, JoinStrategy::kDsmPrePhash,
        JoinStrategy::kNsmPreHash, JoinStrategy::kNsmPrePhash,
        JoinStrategy::kNsmPostDecluster, JoinStrategy::kNsmPostJive}) {
    runs[s] = RunQuery(w, s, qopts, hw);
  }
  const QueryRun& ref = runs[JoinStrategy::kNsmPreHash];
  EXPECT_EQ(ref.result_cardinality, w.expected_result_size);
  for (const auto& [s, run] : runs) {
    EXPECT_EQ(run.result_cardinality, ref.result_cardinality)
        << JoinStrategyName(s);
    EXPECT_EQ(run.checksum, ref.checksum) << JoinStrategyName(s);
  }
}

TEST(ExecutorTest, StrategiesAgreeUnderHitRateVariations) {
  auto hw = P4();
  for (double h : {0.3, 3.0}) {
    auto w = SmallWorkload(1 << 12, 4, h, /*seed=*/17);
    QueryOptions qopts;
    qopts.pi_left = 1;
    qopts.pi_right = 1;
    QueryRun a = RunQuery(w, JoinStrategy::kDsmPostDecluster, qopts, hw);
    QueryRun b = RunQuery(w, JoinStrategy::kNsmPrePhash, qopts, hw);
    EXPECT_EQ(a.checksum, b.checksum) << "h=" << h;
    EXPECT_EQ(a.result_cardinality, b.result_cardinality);
  }
}

TEST(ExecutorTest, AsymmetricProjectivity) {
  auto hw = P4();
  auto w = SmallWorkload(1 << 11, 8, 1.0);
  QueryOptions qopts;
  qopts.pi_left = 5;
  qopts.pi_right = 1;
  QueryRun a = RunQuery(w, JoinStrategy::kDsmPostDecluster, qopts, hw);
  QueryRun b = RunQuery(w, JoinStrategy::kNsmPreHash, qopts, hw);
  EXPECT_EQ(a.checksum, b.checksum);
}

TEST(PlannerTest, EasyJoinUsesUnsorted) {
  auto hw = P4();
  // 64K tuples of 4B = 256KB < 512KB cache: easy.
  Plan plan = PlanDsmPost(1 << 16, 1 << 16, 1 << 16, 4, 4, hw);
  EXPECT_TRUE(plan.easy);
  EXPECT_EQ(plan.code, "u/u");
}

TEST(PlannerTest, HardJoinLowPiUsesClusterDecluster) {
  auto hw = P4();
  Plan plan = PlanDsmPost(8 << 20, 8 << 20, 8 << 20, 4, 4, hw);
  EXPECT_FALSE(plan.easy);
  EXPECT_EQ(plan.code, "c/d");
}

TEST(PlannerTest, HighPiSwitchesToSort) {
  auto hw = P4();
  Plan plan = PlanDsmPost(8 << 20, 8 << 20, 8 << 20, 64, 64, hw);
  EXPECT_EQ(plan.code, "s/d");
}

TEST(PlannerTest, MixedCardinalities) {
  auto hw = P4();
  // Left huge, right tiny: reorder left, unsorted right.
  Plan plan = PlanDsmPost(8 << 20, 1 << 14, 1 << 14, 4, 4, hw);
  EXPECT_EQ(plan.code, "c/u");
}

TEST(StrategyNamesTest, CodesAndNames) {
  EXPECT_STREQ(SideStrategyCode(SideStrategy::kUnsorted), "u");
  EXPECT_STREQ(SideStrategyCode(SideStrategy::kSorted), "s");
  EXPECT_STREQ(SideStrategyCode(SideStrategy::kClustered), "c");
  EXPECT_STREQ(SideStrategyCode(SideStrategy::kDecluster), "d");
  EXPECT_STREQ(JoinStrategyName(JoinStrategy::kDsmPostDecluster),
               "DSM-post-decluster");
}

/// A DSM result of `n` rows: two fixed columns per side and, with
/// `varchars`, one varchar column per side.
storage::DsmResult ChecksumFixture(size_t n, bool varchars) {
  storage::DsmResult r;
  r.cardinality = n;
  Rng rng(n + 17);
  for (auto* side : {&r.left_columns, &r.right_columns}) {
    for (int c = 0; c < 2; ++c) {
      storage::Column<value_t> col(n);
      for (size_t i = 0; i < n; ++i) {
        col[i] = static_cast<value_t>(rng.Next() >> 33);
      }
      side->push_back(std::move(col));
    }
  }
  if (varchars) {
    for (auto* side : {&r.left_varchars, &r.right_varchars}) {
      storage::VarcharColumn col;
      for (size_t i = 0; i < n; ++i) {
        col.Append(std::string(rng.Next() % 9, static_cast<char>('a' + i % 26)));
      }
      side->push_back(std::move(col));
    }
  }
  return r;
}

/// The checksum's definition, row by row on one thread.
uint64_t NaiveChecksum(const storage::DsmResult& r) {
  uint64_t sum = 0;
  for (size_t i = 0; i < r.cardinality; ++i) {
    RowDigest digest;
    for (const auto& col : r.left_columns) digest.AddValue(col[i]);
    for (const auto& col : r.right_columns) digest.AddValue(col[i]);
    for (const auto& col : r.left_varchars) digest.AddString(col.at(i));
    for (const auto& col : r.right_varchars) digest.AddString(col.at(i));
    sum = WrapAdd(sum, digest.digest());
  }
  return sum;
}

TEST(ChecksumTest, PooledChecksumEqualsSerialForEveryPoolSize) {
  const size_t g = kChecksumGrainRows;
  for (size_t n : {size_t{0}, size_t{1}, g - 1, g, 2 * g, 2 * g + 123,
                   3 * g + 1}) {
    for (bool varchars : {false, true}) {
      const storage::DsmResult r = ChecksumFixture(n, varchars);
      const uint64_t serial = ChecksumColumns(r);
      EXPECT_EQ(serial, NaiveChecksum(r)) << "n=" << n;
      for (size_t threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        EXPECT_EQ(ChecksumColumns(r, &pool), serial)
            << "n=" << n << " varchars=" << varchars
            << " threads=" << threads;
      }
    }
  }
}

TEST(ChecksumTest, PooledRowChecksumEqualsSerialIncludingVarcharOnlyRows) {
  const size_t g = kChecksumGrainRows;
  for (size_t n : {size_t{0}, g - 1, 2 * g + 123}) {
    const storage::DsmResult cols = ChecksumFixture(n, /*varchars=*/true);
    // The same relation row-major: the fixed values in canonical order.
    storage::NsmResult rows(n, 4);
    for (size_t i = 0; i < n; ++i) {
      rows.row(i)[0] = cols.left_columns[0][i];
      rows.row(i)[1] = cols.left_columns[1][i];
      rows.row(i)[2] = cols.right_columns[0][i];
      rows.row(i)[3] = cols.right_columns[1][i];
    }
    const uint64_t serial =
        ChecksumRows(rows, cols.left_varchars, cols.right_varchars);
    EXPECT_EQ(serial, NaiveChecksum(cols)) << "n=" << n;
    // A zero-width row result: the varchar columns carry the row count.
    storage::NsmResult empty(0, 0);
    const uint64_t varchar_only =
        ChecksumRows(empty, cols.left_varchars, cols.right_varchars);
    for (size_t threads = 1; threads <= 4; ++threads) {
      ThreadPool pool(threads);
      EXPECT_EQ(ChecksumRows(rows, cols.left_varchars, cols.right_varchars,
                             &pool),
                serial)
          << "n=" << n << " threads=" << threads;
      EXPECT_EQ(ChecksumRows(empty, cols.left_varchars, cols.right_varchars,
                             &pool),
                varchar_only)
          << "n=" << n << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace radix::project
