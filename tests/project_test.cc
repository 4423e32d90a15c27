// Tests for the projection strategies: every strategy must compute the
// same relation (order-independent), the DSM-post side codes must behave
// per the paper, and the planner must encode the easy/hard rules.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "hardware/memory_hierarchy.h"
#include "cluster/radix_sort.h"
#include "join/partitioned_hash_join.h"
#include "join/positional_join.h"
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
  // The pool size must not change what is computed: the parallel
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
      ThreadPool pool(threads);
      QueryOptions par = serial;
      par.pool = &pool;
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

// ---------------------------------------------------------------------------
// The glue between the kernels: every parallel or fused form against a
// serial reference built from the unchanged serial kernels.

struct IdPosPair {
  oid_t id;
  oid_t pos;
};

/// The reference cluster of (id, pos) pairs: pack, the serial multi-pass
/// driver with its copy-back, unpack.
cluster::ClusterBorders ReferenceClusterIds(std::vector<oid_t>& ids,
                                            std::vector<oid_t>& pos,
                                            const cluster::ClusterSpec& spec) {
  const size_t n = ids.size();
  std::vector<IdPosPair> pairs(n), scratch(n);
  for (size_t i = 0; i < n; ++i) pairs[i] = {ids[i], pos[i]};
  simcache::NoTracer tracer;
  cluster::ClusterBorders borders = cluster::RadixClusterMultiPass(
      pairs.data(), scratch.data(), n,
      [](const IdPosPair& p) -> uint64_t { return p.id; }, spec, tracer);
  for (size_t i = 0; i < n; ++i) {
    ids[i] = pairs[i].id;
    pos[i] = pairs[i].pos;
  }
  return borders;
}

template <typename A, typename B>
bool SameElements(const A& a, const B& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin());
}

TEST(ClusterIdsTest, ByteIdenticalToSerialReferenceAtSliceEdges) {
  const size_t slice = kParallelSliceRows;
  // One pass leaves the result in the scratch buffer, two in the input.
  const cluster::ClusterSpec specs[] = {
      {.total_bits = 5, .ignore_bits = 3, .passes = 1},
      {.total_bits = 9, .ignore_bits = 3, .passes = 2}};
  for (size_t n : {size_t{0}, size_t{1}, slice - 1, slice, slice + 1,
                   2 * slice - 1, 2 * slice + 1, (size_t{1} << 20) + 3}) {
    Rng rng(n + 29);
    std::vector<oid_t> ids(n), perm(n), iota(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<oid_t>(rng.Below(std::max<size_t>(n, 4096)));
      perm[i] = static_cast<oid_t>(rng.Next());
      iota[i] = static_cast<oid_t>(i);
    }
    join::JoinIndex index;
    for (size_t i = 0; i < n; ++i) index.Append(perm[i], ids[i]);
    for (const cluster::ClusterSpec& spec : specs) {
      std::vector<oid_t> want_ids = ids, want_perm = perm;
      cluster::ClusterBorders want = ReferenceClusterIds(want_ids, want_perm,
                                                         spec);
      std::vector<oid_t> want_pos_ids = ids, want_pos = iota;
      ReferenceClusterIds(want_pos_ids, want_pos, spec);
      for (size_t threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        ThreadPool* p = threads > 1 ? &pool : nullptr;
        const std::string where = "n=" + std::to_string(n) +
                                  " passes=" + std::to_string(spec.passes) +
                                  " threads=" + std::to_string(threads);
        // The vector API, with a carried permutation and without one.
        std::vector<oid_t> got_ids = ids, got_perm = perm;
        cluster::ClusterBorders got =
            detail::ClusterIds(got_ids, got_perm, spec, p);
        EXPECT_EQ(got_ids, want_ids) << where;
        EXPECT_EQ(got_perm, want_perm) << where;
        EXPECT_EQ(got.offsets, want.offsets) << where;
        std::vector<oid_t> bare = ids, no_perm;
        detail::ClusterIds(bare, no_perm, spec, p);
        EXPECT_EQ(bare, want_ids) << where;
        // Positions written during the pack, from a column and off the
        // right side of a join index.
        detail::ClusteredIds c = detail::ClusterIdsWithPositions(ids, spec, p);
        EXPECT_TRUE(SameElements(c.ids, want_pos_ids)) << where;
        EXPECT_TRUE(SameElements(c.result_pos, want_pos)) << where;
        EXPECT_EQ(c.borders.offsets, want.offsets) << where;
        detail::ClusteredIds r =
            detail::ClusterIndexRight(index.span(), spec, p);
        EXPECT_TRUE(SameElements(r.ids, want_pos_ids)) << where;
        EXPECT_TRUE(SameElements(r.result_pos, want_pos)) << where;
        EXPECT_EQ(r.borders.offsets, want.offsets) << where;
      }
    }
  }
}

/// The reference left reorder: the index as the serial join built it, then
/// the serial sort or the serial multi-pass cluster with its copy-back.
join::JoinIndex ReferenceLeftOrder(join::JoinIndex index, size_t left_rows,
                                   const hardware::MemoryHierarchy& hw,
                                   SideStrategy left, radix_bits_t bits) {
  if (left == SideStrategy::kSorted) {
    cluster::RadixSortJoinIndex(index.span(), static_cast<oid_t>(left_rows),
                                /*by_left=*/true);
  } else if (left == SideStrategy::kClustered ||
             left == SideStrategy::kDecluster) {
    cluster::ClusterSpec spec = detail::SpecFor(
        SideStrategy::kClustered, index.size(), left_rows, hw, bits);
    std::vector<cluster::OidPair> scratch(index.size());
    simcache::NoTracer tracer;
    cluster::RadixClusterMultiPass(
        index.data(), scratch.data(), index.size(),
        [](const cluster::OidPair& p) -> uint64_t { return p.left; }, spec,
        tracer);
  }
  return index;
}

bool SameIndex(const join::JoinIndex& a, const join::JoinIndex& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(join::OidPair)) ==
              0);
}

TEST(FusedLeftClusterTest, ShardScatterEqualsJoinThenReorder) {
  auto hw = P4();
  const SideStrategy sides[] = {SideStrategy::kUnsorted, SideStrategy::kSorted,
                                SideStrategy::kClustered,
                                SideStrategy::kDecluster};
  // hit rate 3: duplicate keys, so shards are larger than their clusters.
  for (double hit : {1.0, 3.0}) {
    auto w = SmallWorkload(3 * kParallelSliceRows, 2, hit, 41);
    const size_t left_rows = w.dsm_left.cardinality();
    join::PartitionedHashJoinOptions serial_opts;
    serial_opts.radix_bits = 6;
    const join::JoinIndex joined = join::PartitionedHashJoin(
        w.dsm_left.key().span(), w.dsm_right.key().span(), hw, serial_opts);
    for (SideStrategy left : sides) {
      // kAuto, one explicit pass, and 13 bits = 3 passes on the P4; u and s
      // take no bits.
      const bool clusters = left == SideStrategy::kClustered ||
                            left == SideStrategy::kDecluster;
      for (radix_bits_t bits : {DsmPostOptions::kAuto, radix_bits_t{5},
                                radix_bits_t{13}}) {
        if (!clusters && bits != DsmPostOptions::kAuto) continue;
        const join::JoinIndex want =
            ReferenceLeftOrder(joined, left_rows, hw, left, bits);
        for (size_t threads = 1; threads <= 4; ++threads) {
          ThreadPool pool(threads);
          ThreadPool* p = threads > 1 ? &pool : nullptr;
          join::PartitionedHashJoinOptions opts = serial_opts;
          opts.pool = p;
          PhaseBreakdown ph;
          join::JoinIndex fused = detail::IndexInLeftOrder(
              join::PartitionedHashJoinShards(w.dsm_left.key().span(),
                                              w.dsm_right.key().span(), hw,
                                              opts),
              left_rows, hw, left, bits, p, &ph);
          EXPECT_TRUE(SameIndex(fused, want))
              << "hit=" << hit << " left=" << SideStrategyCode(left)
              << " bits=" << bits << " threads=" << threads;
          join::JoinIndex reordered = joined;
          detail::ReorderIndexLeft(reordered, left_rows, hw, left, bits, p);
          EXPECT_TRUE(SameIndex(reordered, want));
        }
      }
    }
  }
}

TEST(FusedLeftClusterTest, EmptyShardsScatterLikeTheirConcatenation) {
  auto hw = P4();
  Rng rng(8);
  std::vector<join::OidPairs> shards(7);
  for (size_t s : {size_t{1}, size_t{2}, size_t{5}}) {
    shards[s].resize(s * 40'000 + 3);
    for (auto& pair : shards[s]) {
      pair = {static_cast<oid_t>(rng.Below(1 << 18)),
              static_cast<oid_t>(rng.Next())};
    }
  }
  join::JoinIndex concat;
  for (const auto& shard : shards) {
    for (const auto& pair : shard) concat.Append(pair.left, pair.right);
  }
  for (radix_bits_t bits : {radix_bits_t{4}, radix_bits_t{11}}) {
    const join::JoinIndex want = ReferenceLeftOrder(
        concat, 1 << 18, hw, SideStrategy::kClustered, bits);
    for (size_t threads = 1; threads <= 4; ++threads) {
      ThreadPool pool(threads);
      join::JoinIndex got = detail::IndexInLeftOrder(
          join::JoinShards(shards), 1 << 18, hw, SideStrategy::kClustered,
          bits, threads > 1 ? &pool : nullptr, nullptr);
      EXPECT_TRUE(SameIndex(got, want))
          << "bits=" << bits << " threads=" << threads;
    }
  }
}

TEST(ProjectIndexRightTest, DirectGatherMatchesRightOidsIncludingVarchar) {
  auto hw = P4();
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 2 * kParallelSliceRows + 7;
  spec.num_attrs = 3;
  spec.hit_rate = 2.0;
  spec.seed = 13;
  spec.varchar.num_cols = 1;
  auto w = workload::MakeJoinWorkload(spec);
  join::JoinIndex index = join::PartitionedHashJoin(
      w.dsm_left.key().span(), w.dsm_right.key().span(), hw);
  const size_t n = index.size();
  const std::vector<std::span<const value_t>> cols = {w.dsm_right.attr(1).span(),
                                                      w.dsm_right.attr(2).span()};
  const std::vector<const storage::VarcharColumn*> var = {
      &w.right_varchars[0]};
  // Reference: the right oid column, then the plain gathers.
  const std::vector<oid_t> right_ids = index.RightOids();
  std::vector<std::vector<value_t>> want(cols.size(), std::vector<value_t>(n));
  for (size_t a = 0; a < cols.size(); ++a) {
    join::PositionalJoin<value_t>(right_ids, cols[a], want[a]);
  }
  const storage::VarcharColumn want_var =
      storage::PositionalJoinVarchar(right_ids, w.right_varchars[0]);

  for (SideStrategy strategy : {SideStrategy::kUnsorted,
                                SideStrategy::kDecluster,
                                SideStrategy::kClustered}) {
    for (size_t threads = 1; threads <= 4; ++threads) {
      for (size_t chunk_rows : {size_t{0}, size_t{97}}) {
        ThreadPool pool(threads);
        std::vector<std::vector<value_t>> got(cols.size(),
                                              std::vector<value_t>(n));
        std::vector<std::span<value_t>> outs;
        for (auto& g : got) outs.emplace_back(g);
        std::vector<storage::VarcharColumn> got_var;
        detail::ProjectIndexRight(index, /*keep_index=*/true, strategy, cols,
                                  outs, w.dsm_right.cardinality(), hw,
                                  DsmPostOptions::kAuto, 0, chunk_rows,
                                  nullptr, threads > 1 ? &pool : nullptr, var,
                                  &got_var);
        const std::string where = std::string(SideStrategyCode(strategy)) +
                                  " threads=" + std::to_string(threads) +
                                  " chunk_rows=" + std::to_string(chunk_rows);
        EXPECT_EQ(got, want) << where;
        ASSERT_EQ(got_var.size(), 1u) << where;
        ASSERT_EQ(got_var[0].size(), n) << where;
        EXPECT_EQ(got_var[0].heap_bytes(), want_var.heap_bytes()) << where;
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got_var[0].at(i), want_var.at(i))
              << where << " row " << i;
        }
      }
    }
  }
  // Without keep_index, d frees the index once its oids are packed; the
  // output is unchanged.
  join::JoinIndex consumed = index;
  std::vector<std::vector<value_t>> got(cols.size(), std::vector<value_t>(n));
  std::vector<std::span<value_t>> outs;
  for (auto& g : got) outs.emplace_back(g);
  detail::ProjectIndexRight(consumed, /*keep_index=*/false,
                            SideStrategy::kDecluster, cols, outs,
                            w.dsm_right.cardinality(), hw,
                            DsmPostOptions::kAuto, 0, 0, nullptr, nullptr);
  EXPECT_TRUE(consumed.empty());
  EXPECT_EQ(got, want);
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
  Plan plan = PlanDsmPost(1 << 16, 1 << 16, 4, hw);
  EXPECT_TRUE(plan.easy);
  EXPECT_EQ(plan.code, "u/u");
}

TEST(PlannerTest, HardJoinLowPiUsesClusterDecluster) {
  auto hw = P4();
  Plan plan = PlanDsmPost(8 << 20, 8 << 20, 4, hw);
  EXPECT_FALSE(plan.easy);
  EXPECT_EQ(plan.code, "c/d");
}

TEST(PlannerTest, HighPiSwitchesToSort) {
  auto hw = P4();
  Plan plan = PlanDsmPost(8 << 20, 8 << 20, 64, hw);
  EXPECT_EQ(plan.code, "s/d");
}

TEST(PlannerTest, MixedCardinalities) {
  auto hw = P4();
  // Left huge, right tiny: reorder left, unsorted right.
  Plan plan = PlanDsmPost(8 << 20, 1 << 14, 4, hw);
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

TEST(ChecksumTest, BlockedChecksumEqualsNaiveAtBlockAndGrainEdges) {
  const size_t b = kChecksumBlockRows;
  const size_t g = kChecksumGrainRows;
  for (size_t n : {size_t{0}, size_t{1}, b - 1, b, b + 1, g - 1, g, g + 1,
                   2 * g - 1, 2 * g + 1}) {
    for (int shape = 0; shape < 3; ++shape) {
      // 0: fixed only, 1: fixed + varchar, 2: varchar only.
      storage::DsmResult r = ChecksumFixture(n, /*varchars=*/shape > 0);
      if (shape == 2) {
        r.left_columns.clear();
        r.right_columns.clear();
      }
      const uint64_t naive = NaiveChecksum(r);
      EXPECT_EQ(ChecksumColumns(r), naive) << "n=" << n << " shape=" << shape;
      for (size_t threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        EXPECT_EQ(ChecksumColumns(r, &pool), naive)
            << "n=" << n << " shape=" << shape << " threads=" << threads;
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
