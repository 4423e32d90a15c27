// Tests for hash tables, naive and partitioned hash joins, positional
// joins, and the join index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "storage/column.h"
#include "hardware/memory_hierarchy.h"
#include "join/hash_join.h"
#include "join/hash_table.h"
#include "join/join_index.h"
#include "join/partitioned_hash_join.h"
#include "join/positional_join.h"
#include "workload/distributions.h"
#include "workload/generator.h"

namespace radix::join {
namespace {

/// Reference nested-loop join for cross-validation on small inputs.
std::multiset<std::pair<oid_t, oid_t>> ReferenceJoin(
    const std::vector<value_t>& left, const std::vector<value_t>& right) {
  std::multiset<std::pair<oid_t, oid_t>> out;
  std::multimap<value_t, oid_t> right_map;
  for (size_t i = 0; i < right.size(); ++i) {
    right_map.emplace(right[i], static_cast<oid_t>(i));
  }
  for (size_t i = 0; i < left.size(); ++i) {
    auto [lo, hi] = right_map.equal_range(left[i]);
    for (auto it = lo; it != hi; ++it) {
      out.emplace(static_cast<oid_t>(i), it->second);
    }
  }
  return out;
}

std::multiset<std::pair<oid_t, oid_t>> AsSet(const JoinIndex& ji) {
  std::multiset<std::pair<oid_t, oid_t>> out;
  for (size_t i = 0; i < ji.size(); ++i) {
    out.emplace(ji[i].left, ji[i].right);
  }
  return out;
}

TEST(HashTableTest, FindsAllDuplicates) {
  std::vector<value_t> keys = {5, 3, 5, 7, 5, 3};
  HashTable table;
  table.Build(keys);
  std::vector<oid_t> matches;
  table.Probe(5, [&](oid_t pos) { matches.push_back(pos); });
  std::sort(matches.begin(), matches.end());
  EXPECT_EQ(matches, (std::vector<oid_t>{0, 2, 4}));
  matches.clear();
  table.Probe(42, [&](oid_t pos) { matches.push_back(pos); });
  EXPECT_TRUE(matches.empty());
}

TEST(HashTableTest, BucketsDisperseWithinOneRadixCluster) {
  // Regression test: keys inside one radix cluster share the low B bits of
  // their hash (that IS the cluster criterion). A table bucketing on those
  // same low bits collapses into 1/2^B of its buckets with cluster-long
  // chains — the per-cluster joins of Partitioned Hash-Join then run in
  // O(cluster^2). The bucket function must use disjoint (upper) hash bits.
  constexpr radix_bits_t kClusterBits = 8;
  std::vector<value_t> cluster_keys;
  for (value_t k = 0; cluster_keys.size() < 4096 && k < 10'000'000; ++k) {
    if ((KeyHash{}(k) & ((1u << kClusterBits) - 1)) == 3) {
      cluster_keys.push_back(k);  // all land in radix cluster #3
    }
  }
  ASSERT_EQ(cluster_keys.size(), 4096u);
  HashTable table;
  table.Build(cluster_keys);
  // 4096 distinct keys in 4096 buckets: expected max chain is ~O(log n /
  // log log n) ≈ 8; the broken low-bit bucketing gives 4096/2^8 = 16
  // buckets with ~256-long chains.
  EXPECT_LE(table.MaxChainLength(), 16u);
}

TEST(HashTableTest, EmptyBuild) {
  HashTable table;
  table.Build({});
  int hits = 0;
  table.Probe(1, [&](oid_t) { ++hits; });
  EXPECT_EQ(hits, 0);
}

TEST(HashJoinTest, MatchesReferenceOnRandomInput) {
  Rng rng(1);
  std::vector<value_t> left(2000), right(1500);
  for (auto& k : left) k = static_cast<value_t>(rng.Below(800));
  for (auto& k : right) k = static_cast<value_t>(rng.Below(800));
  JoinIndex ji = HashJoin(left, right);
  EXPECT_EQ(AsSet(ji), ReferenceJoin(left, right));
}

TEST(HashJoinTest, NoMatches) {
  std::vector<value_t> left = {1, 2, 3};
  std::vector<value_t> right = {4, 5, 6};
  EXPECT_TRUE(HashJoin(left, right).empty());
}

class PartitionedHashJoinSweep
    : public ::testing::TestWithParam<std::tuple<size_t, radix_bits_t>> {};

TEST_P(PartitionedHashJoinSweep, MatchesNaiveJoinAcrossBits) {
  auto [n, bits] = GetParam();
  Rng rng(n + bits);
  std::vector<value_t> left(n), right(n);
  for (auto& k : left) k = static_cast<value_t>(rng.Below(n));
  for (auto& k : right) k = static_cast<value_t>(rng.Below(n));
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  PartitionedHashJoinOptions options;
  options.radix_bits = bits;
  JoinIndex partitioned = PartitionedHashJoin(left, right, hw, options);
  JoinIndex naive = HashJoin(left, right);
  EXPECT_EQ(AsSet(partitioned), AsSet(naive));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionedHashJoinSweep,
    ::testing::Combine(::testing::Values(100, 5000, 100'000),
                       ::testing::Values(0, 1, 4, 8, 12)));

TEST(PartitionedHashJoinTest, ParallelJoinIsByteIdenticalToSerial) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  ThreadPool pool(4);
  for (size_t n : {size_t{0}, size_t{100}, size_t{50'000}}) {
    Rng rng(n + 1);
    std::vector<value_t> left(n), right(n);
    for (auto& k : left) k = static_cast<value_t>(rng.Below(n | 1));
    for (auto& k : right) k = static_cast<value_t>(rng.Below(n | 1));
    for (radix_bits_t bits : {radix_bits_t{2}, radix_bits_t{8},
                              PartitionedHashJoinOptions::kAutoBits}) {
      PartitionedHashJoinOptions serial_opts;
      serial_opts.radix_bits = bits;
      PartitionedHashJoinOptions par_opts = serial_opts;
      par_opts.pool = &pool;
      JoinIndex serial = PartitionedHashJoin(left, right, hw, serial_opts);
      JoinIndex parallel = PartitionedHashJoin(left, right, hw, par_opts);
      // Not just the same set: the same pairs in the same order.
      ASSERT_EQ(serial.size(), parallel.size()) << "n=" << n;
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].left, parallel[i].left) << "n=" << n << " i=" << i;
        ASSERT_EQ(serial[i].right, parallel[i].right)
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(PartitionedHashJoinTest, AutoBitsProducesCorrectJoin) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 1 << 17;
  spec.hit_rate = 1.0;
  auto w = workload::MakeJoinWorkload(spec);
  JoinIndex ji = PartitionedHashJoin(w.dsm_left.key().span(),
                                     w.dsm_right.key().span(), hw);
  EXPECT_EQ(ji.size(), w.expected_result_size);
  // Every pair must actually match on key.
  for (size_t i = 0; i < ji.size(); ++i) {
    ASSERT_EQ(w.dsm_left.key()[ji[i].left], w.dsm_right.key()[ji[i].right]);
  }
}

TEST(PartitionedHashJoinTest, HitRateAboveOneMultipliesResult) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 1 << 14;
  spec.hit_rate = 3.0;
  auto w = workload::MakeJoinWorkload(spec);
  JoinIndex ji = PartitionedHashJoin(w.dsm_left.key().span(),
                                     w.dsm_right.key().span(), hw);
  double ratio =
      static_cast<double>(ji.size()) / static_cast<double>(spec.cardinality);
  EXPECT_NEAR(ratio, 3.0, 0.2);
}

TEST(PartitionedHashJoinTest, HitRateBelowOneShrinksResult) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 1 << 14;
  spec.hit_rate = 0.3;
  auto w = workload::MakeJoinWorkload(spec);
  JoinIndex ji = PartitionedHashJoin(w.dsm_left.key().span(),
                                     w.dsm_right.key().span(), hw);
  EXPECT_EQ(ji.size(), w.expected_result_size);
  double ratio =
      static_cast<double>(ji.size()) / static_cast<double>(spec.cardinality);
  EXPECT_NEAR(ratio, 0.3, 0.05);
}

TEST(ClusterKeyOidTest, CarriesOriginalOids) {
  Rng rng(7);
  std::vector<value_t> keys(4096);
  for (auto& k : keys) k = static_cast<value_t>(rng.Below(1 << 20));
  std::vector<cluster::KeyOid> out(keys.size());
  ClusterKeyOid(keys, out, /*total_bits=*/5, /*passes=*/2);
  // Every (key, oid) pair must be consistent with the input.
  for (const auto& t : out) {
    ASSERT_EQ(t.key, keys[t.oid]);
  }
}

TEST(ClusterKeyOidTest, MatchesFillThenSerialClusterForEveryPassParity) {
  // The join and the perfbench partition probe share this function; its
  // fused fill must reproduce fill + serial multi-pass for every pass
  // count (both copy-back parities) and every pool size.
  auto radix = [](const cluster::KeyOid& t) -> uint64_t {
    return KeyHash{}(t.key);
  };
  for (size_t n : {size_t{0}, size_t{1}, kParallelSliceRows - 1,
                   kParallelSliceRows + 1, 2 * kParallelSliceRows + 5}) {
    Rng rng(n + 17);
    std::vector<value_t> keys(n);
    for (auto& k : keys) k = static_cast<value_t>(rng.Below(1 << 20));
    for (uint32_t passes = 1; passes <= 3; ++passes) {
      cluster::ClusterSpec spec{
          .total_bits = 8, .ignore_bits = 0, .passes = passes};
      std::vector<cluster::KeyOid> expected(n), scratch(n);
      for (size_t i = 0; i < n; ++i) {
        expected[i] = {keys[i], static_cast<oid_t>(i)};
      }
      simcache::NoTracer tracer;
      cluster::ClusterBorders want = cluster::RadixClusterMultiPass(
          expected.data(), scratch.data(), n, radix, spec, tracer);
      for (size_t threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        std::vector<cluster::KeyOid> out(n);
        cluster::ClusterBorders got =
            ClusterKeyOid(keys, out, spec.total_bits, passes, &pool);
        EXPECT_EQ(got.offsets, want.offsets);
        EXPECT_TRUE(n == 0 || std::memcmp(out.data(), expected.data(),
                                          n * sizeof(cluster::KeyOid)) == 0)
            << "n=" << n << " passes=" << passes << " threads=" << threads;
      }
    }
  }
}

TEST(JoinShardsTest, ConcatAndSegmentsKeepShardOrder) {
  std::vector<OidPairs> shards(5);
  shards[1] = {{1, 10}, {2, 20}, {3, 30}};
  shards[3] = {{4, 40}};
  shards[4] = {{5, 50}, {6, 60}};
  JoinShards js(shards);
  EXPECT_EQ(js.size(), 6u);
  std::vector<OidPair> flat;
  for (const auto& seg : js.Segments(2)) {
    EXPECT_LE(seg.size(), 2u);
    EXPECT_FALSE(seg.empty());
    flat.insert(flat.end(), seg.begin(), seg.end());
  }
  for (size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    JoinShards copy(shards);
    JoinIndex index = copy.Concat(&pool);
    EXPECT_EQ(copy.size(), 0u);
    ASSERT_EQ(index.size(), flat.size());
    for (size_t i = 0; i < flat.size(); ++i) {
      EXPECT_EQ(index[i].left, flat[i].left);
      EXPECT_EQ(index[i].right, flat[i].right);
      EXPECT_EQ(index[i].left, static_cast<oid_t>(i + 1));
    }
  }
  // A lone shard is moved, not copied.
  JoinIndex one;
  one.Append(7, 70);
  const OidPair* storage = one.data();
  JoinShards single{std::move(one)};
  EXPECT_EQ(single.Concat(nullptr).data(), storage);
}

TEST(PartitionedHashJoinTest, ShardsConcatenateToTheSerialIndex) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  Rng rng(3);
  const size_t n = 3 * kParallelSliceRows;
  std::vector<value_t> left(n), right(n);
  for (auto& k : left) k = static_cast<value_t>(rng.Below(n));
  for (auto& k : right) k = static_cast<value_t>(rng.Below(n));
  PartitionedHashJoinOptions serial_opts;
  serial_opts.radix_bits = 6;
  JoinIndex serial = PartitionedHashJoin(left, right, hw, serial_opts);
  for (size_t threads = 2; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    PartitionedHashJoinOptions opts = serial_opts;
    opts.pool = &pool;
    JoinShards shards = PartitionedHashJoinShards(left, right, hw, opts);
    EXPECT_EQ(shards.size(), serial.size());
    JoinIndex index = shards.Concat(&pool);
    ASSERT_EQ(index.size(), serial.size());
    EXPECT_EQ(std::memcmp(index.data(), serial.data(),
                          serial.size() * sizeof(OidPair)),
              0);
  }
}

TEST(PositionalJoinTest, FetchesByPosition) {
  std::vector<value_t> values = {10, 20, 30, 40, 50};
  std::vector<oid_t> ids = {4, 0, 2, 2, 1};
  std::vector<value_t> out(ids.size());
  PositionalJoin<value_t>(ids, values, out);
  EXPECT_EQ(out, (std::vector<value_t>{50, 10, 30, 30, 20}));
}

TEST(PositionalJoinTest, PairsVariantSelectsSide) {
  std::vector<cluster::OidPair> index = {{0, 2}, {1, 0}, {2, 1}};
  std::vector<value_t> values = {100, 200, 300};
  std::vector<value_t> out(3);
  PositionalJoinPairs<value_t, true>(index, values, out);
  EXPECT_EQ(out, (std::vector<value_t>{100, 200, 300}));
  PositionalJoinPairs<value_t, false>(index, values, out);
  EXPECT_EQ(out, (std::vector<value_t>{300, 100, 200}));
}

TEST(JoinIndexTest, SideExtraction) {
  JoinIndex ji;
  ji.Append(1, 9);
  ji.Append(2, 8);
  EXPECT_EQ(ji.RightOids(), (std::vector<oid_t>{9, 8}));
}

}  // namespace
}  // namespace radix::join
