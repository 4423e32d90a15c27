// Tests for Radix-Cluster, radix_count, Radix-Sort and partition planning.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "cluster/partition_plan.h"
#include "cluster/radix_cluster.h"
#include "cluster/radix_count.h"
#include "cluster/radix_sort.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "workload/distributions.h"

namespace radix::cluster {
namespace {

std::vector<oid_t> ShuffledOids(size_t n, uint64_t seed) {
  std::vector<oid_t> v(n);
  std::iota(v.begin(), v.end(), 0u);
  Rng rng(seed);
  workload::Shuffle(v.data(), n, rng);
  return v;
}

/// Check that `data` is correctly clustered under `spec`: borders index the
/// array, each element's bucket matches its cluster, and the multiset of
/// values is preserved.
template <typename T, typename RadixFn>
void ExpectClustered(const std::vector<T>& original,
                     const std::vector<T>& clustered,
                     const ClusterBorders& borders, RadixFn radix_of,
                     const ClusterSpec& spec) {
  ASSERT_EQ(borders.num_clusters(), spec.num_clusters());
  ASSERT_EQ(borders.total(), clustered.size());
  for (size_t k = 0; k < borders.num_clusters(); ++k) {
    for (uint64_t i = borders.start(k); i < borders.end(k); ++i) {
      EXPECT_EQ(RadixBits(radix_of(clustered[i]), spec.ignore_bits,
                          spec.total_bits),
                k)
          << "element " << i << " in wrong cluster";
    }
  }
  auto a = original;
  auto b = clustered;
  auto key = [&](const T& x) { return radix_of(x); };
  std::sort(a.begin(), a.end(),
            [&](const T& x, const T& y) { return key(x) < key(y); });
  std::sort(b.begin(), b.end(),
            [&](const T& x, const T& y) { return key(x) < key(y); });
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(key(a[i]), key(b[i]));
  }
}

TEST(RadixClusterTest, SinglePassClustersOids) {
  auto data = ShuffledOids(4096, 1);
  auto original = data;
  ClusterSpec spec{.total_bits = 4, .ignore_bits = 0, .passes = 1};
  ClusterBorders borders =
      RadixCluster(std::span<oid_t>(data), [](oid_t v) { return uint64_t{v}; },
                   spec);
  ExpectClustered(original, data, borders,
                  [](oid_t v) { return uint64_t{v}; }, spec);
}

TEST(RadixClusterTest, MultiPassEqualsSinglePass) {
  auto single = ShuffledOids(10000, 2);
  auto multi = single;
  ClusterSpec one{.total_bits = 6, .ignore_bits = 0, .passes = 1};
  ClusterSpec three{.total_bits = 6, .ignore_bits = 0, .passes = 3};
  auto radix = [](oid_t v) { return uint64_t{v}; };
  ClusterBorders b1 = RadixCluster(std::span<oid_t>(single), radix, one);
  ClusterBorders b3 = RadixCluster(std::span<oid_t>(multi), radix, three);
  EXPECT_EQ(b1.offsets, b3.offsets);
  // Stability makes multi-pass output identical, not just equivalent.
  EXPECT_EQ(single, multi);
}

TEST(RadixClusterTest, IgnoreBitsClusterOnUpperSlice) {
  auto data = ShuffledOids(1 << 12, 3);
  auto original = data;
  // Cluster on bits [8, 12): 16 clusters of 256 consecutive oids each.
  ClusterSpec spec{.total_bits = 4, .ignore_bits = 8, .passes = 1};
  auto radix = [](oid_t v) { return uint64_t{v}; };
  ClusterBorders borders = RadixCluster(std::span<oid_t>(data), radix, spec);
  ExpectClustered(original, data, borders, radix, spec);
  // Every cluster contains exactly the oid range [k*256, (k+1)*256).
  for (size_t k = 0; k < borders.num_clusters(); ++k) {
    EXPECT_EQ(borders.size(k), 256u);
    for (uint64_t i = borders.start(k); i < borders.end(k); ++i) {
      EXPECT_EQ(data[i] >> 8, k);
    }
  }
}

TEST(RadixClusterTest, StableWithinClusters) {
  // Within a cluster, input order must be preserved (the property
  // Radix-Decluster relies on: paper §3.2 property (2)).
  std::vector<KeyOid> data;
  Rng rng(4);
  for (oid_t i = 0; i < 5000; ++i) {
    data.push_back({static_cast<value_t>(rng.Below(64)), i});
  }
  ClusterSpec spec{.total_bits = 3, .ignore_bits = 0, .passes = 2};
  auto radix = [](const KeyOid& t) { return static_cast<uint64_t>(t.key); };
  ClusterBorders borders = RadixCluster(std::span<KeyOid>(data), radix, spec);
  for (size_t k = 0; k < borders.num_clusters(); ++k) {
    for (uint64_t i = borders.start(k) + 1; i < borders.end(k); ++i) {
      EXPECT_LT(data[i - 1].oid, data[i].oid)
          << "cluster " << k << " not stable";
    }
  }
}

TEST(RadixClusterTest, ZeroBitsIsNoOp) {
  auto data = ShuffledOids(100, 5);
  auto original = data;
  ClusterSpec spec{.total_bits = 0, .ignore_bits = 0, .passes = 1};
  ClusterBorders borders = RadixCluster(
      std::span<oid_t>(data), [](oid_t v) { return uint64_t{v}; }, spec);
  EXPECT_EQ(data, original);
  EXPECT_EQ(borders.num_clusters(), 1u);
  EXPECT_EQ(borders.size(0), 100u);
}

TEST(RadixClusterTest, HashedKeysBalanceSkewedInput) {
  // Zipf-skewed keys: hashing must keep clusters within a small factor of
  // the mean (paper §2.2's reason for hashing even integer keys).
  Rng rng(6);
  workload::ZipfGenerator zipf(1 << 16, 0.9);
  std::vector<KeyOid> data(1 << 15);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = {static_cast<value_t>(zipf.Next(rng)), static_cast<oid_t>(i)};
  }
  ClusterSpec spec{.total_bits = 4, .ignore_bits = 0, .passes = 1};
  auto radix = [](const KeyOid& t) { return KeyHash{}(t.key); };
  ClusterBorders borders = RadixCluster(std::span<KeyOid>(data), radix, spec);
  // Duplicates of the hottest key necessarily share a cluster, so allow 2x
  // the mean; without hashing the hottest clusters are ~10x the mean.
  double mean = static_cast<double>(data.size()) / borders.num_clusters();
  for (size_t k = 0; k < borders.num_clusters(); ++k) {
    EXPECT_LT(static_cast<double>(borders.size(k)), mean * 2.0)
        << "cluster " << k << " overloaded despite hashing";
  }
}

struct MultiPassParam {
  size_t n;
  radix_bits_t bits;
  uint32_t passes;
};

class RadixClusterSweep : public ::testing::TestWithParam<MultiPassParam> {};

TEST_P(RadixClusterSweep, ClustersCorrectlyAcrossConfigurations) {
  const auto& p = GetParam();
  auto data = ShuffledOids(p.n, 17 + p.n);
  auto original = data;
  ClusterSpec spec{.total_bits = p.bits, .ignore_bits = 0, .passes = p.passes};
  auto radix = [](oid_t v) { return uint64_t{v}; };
  ClusterBorders borders = RadixCluster(std::span<oid_t>(data), radix, spec);
  ExpectClustered(original, data, borders, radix, spec);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixClusterSweep,
    ::testing::Values(MultiPassParam{1, 1, 1}, MultiPassParam{2, 1, 1},
                      MultiPassParam{1000, 1, 1}, MultiPassParam{1000, 5, 1},
                      MultiPassParam{1000, 5, 2}, MultiPassParam{1000, 5, 5},
                      MultiPassParam{1 << 14, 8, 2},
                      MultiPassParam{1 << 14, 10, 3},
                      MultiPassParam{12345, 7, 2},
                      MultiPassParam{1 << 16, 12, 2}));

TEST(RadixCountTest, RecoversBordersOfClusteredColumn) {
  auto data = ShuffledOids(1 << 12, 8);
  ClusterSpec spec{.total_bits = 5, .ignore_bits = 7, .passes = 1};
  auto radix = [](oid_t v) { return uint64_t{v}; };
  ClusterBorders expected = RadixCluster(std::span<oid_t>(data), radix, spec);
  ClusterBorders counted = RadixCount(data, spec.total_bits, spec.ignore_bits);
  EXPECT_EQ(expected.offsets, counted.offsets);
}

TEST(RadixCountTest, DetectsClusteredColumns) {
  auto data = ShuffledOids(4096, 9);
  EXPECT_FALSE(IsRadixClustered(data, 4, 8));
  ClusterSpec spec{.total_bits = 4, .ignore_bits = 8, .passes = 1};
  RadixCluster(std::span<oid_t>(data), [](oid_t v) { return uint64_t{v}; },
               spec);
  EXPECT_TRUE(IsRadixClustered(data, 4, 8));
  // Clustered on 4 upper bits does not imply clustered on more bits.
  EXPECT_FALSE(IsRadixClustered(data, 12, 0));
}

TEST(RadixSortTest, SortsOidsAscending) {
  auto data = ShuffledOids(100000, 10);
  RadixSortOids(std::span<oid_t>(data), 100000);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  for (size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], i);
}

TEST(RadixSortTest, SortsJoinIndexByEitherSide) {
  Rng rng(11);
  std::vector<OidPair> index(50000);
  for (size_t i = 0; i < index.size(); ++i) {
    index[i] = {static_cast<oid_t>(rng.Below(1 << 20)),
                static_cast<oid_t>(rng.Below(1 << 20))};
  }
  auto by_left = index;
  RadixSortJoinIndex(std::span<OidPair>(by_left), 1u << 20, /*by_left=*/true);
  EXPECT_TRUE(std::is_sorted(
      by_left.begin(), by_left.end(),
      [](const OidPair& a, const OidPair& b) { return a.left < b.left; }));
  auto by_right = index;
  RadixSortJoinIndex(std::span<OidPair>(by_right), 1u << 20,
                     /*by_left=*/false);
  EXPECT_TRUE(std::is_sorted(
      by_right.begin(), by_right.end(),
      [](const OidPair& a, const OidPair& b) { return a.right < b.right; }));
}

TEST(PartitionPlanTest, PartialClusterBitsMatchesPaperExample) {
  // Paper §3.1: 64KB cache, 4-byte values, 10M-tuple source table
  // -> 2^10 = 1024 clusters (mean cluster 10'000 < 16'384 tuples).
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  hw.caches.back().capacity_bytes = 64 * 1024;
  radix_bits_t b = PartialClusterBits(10'000'000, 4, hw);
  EXPECT_EQ(b, 10u);
  // And the partial sort may ignore the lowermost log2(10M) - 10 = 14 bits.
  EXPECT_EQ(IgnoreBits(10'000'000, b), 14u);
}

TEST(PartitionPlanTest, ClusterFitsCacheAfterPlanning) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  for (size_t n : {100'000ul, 1'000'000ul, 16'000'000ul}) {
    radix_bits_t b = PartialClusterBits(n, sizeof(value_t), hw);
    double mean_cluster_bytes =
        static_cast<double>(n) * sizeof(value_t) / (1u << b);
    EXPECT_LE(mean_cluster_bytes, hw.target_cache().capacity_bytes)
        << "n=" << n;
  }
}

TEST(PartitionPlanTest, MaxPassBitsRespectsTlb) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  // 64-entry TLB: fan-out per pass must stay at/below 2^6.
  EXPECT_LE(MaxPassBits(hw), 6u);
  EXPECT_GE(MaxPassBits(hw), 4u);
}

TEST(PartitionPlanTest, PassesCoverTotalBits) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  for (radix_bits_t bits = 0; bits <= 24; ++bits) {
    uint32_t passes = PassesFor(bits, hw);
    EXPECT_GE(passes * MaxPassBits(hw), bits);
    EXPECT_GE(passes, 1u);
  }
}

TEST(PartitionPlanTest, PartitionedJoinClustersFitCache) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  radix_bits_t b = PartitionedJoinBits(8'000'000, 8, hw);
  double cluster_bytes = 8'000'000.0 * 8 / (1u << b);
  EXPECT_LE(cluster_bytes * 3, hw.target_cache().capacity_bytes * 1.01);
}

TEST(ClusterSpecTest, ValidateRejectsDegenerateSpecs) {
  // Regression: passes == 0 with total_bits > 0 used to silently return
  // unclustered data labeled as clustered.
  ClusterSpec zero_passes{.total_bits = 4, .ignore_bits = 0, .passes = 0};
  Status st = ValidateClusterSpec(zero_passes);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);

  // Bits beyond the 64-bit radix value width: everything would land in
  // cluster 0.
  ClusterSpec too_wide{.total_bits = 16, .ignore_bits = 56, .passes = 1};
  EXPECT_FALSE(ValidateClusterSpec(too_wide).ok());
  // The same spec is fine against a hypothetical wider value.
  EXPECT_TRUE(ValidateClusterSpec(too_wide, /*value_bits=*/72).ok());

  ClusterSpec ok{.total_bits = 12, .ignore_bits = 52, .passes = 3};
  EXPECT_TRUE(ValidateClusterSpec(ok).ok());
  // passes == 0 is invalid even when total_bits == 0 (a no-op spec still
  // must be well-formed).
  ClusterSpec zero_zero{.total_bits = 0, .ignore_bits = 0, .passes = 0};
  EXPECT_FALSE(ValidateClusterSpec(zero_zero).ok());
}

TEST(ClusterSpecDeathTest, KernelChecksSpec) {
  auto data = ShuffledOids(64, 21);
  std::vector<oid_t> scratch(64);
  simcache::NoTracer tracer;
  auto radix = [](oid_t v) { return uint64_t{v}; };
  ClusterSpec zero_passes{.total_bits = 4, .ignore_bits = 0, .passes = 0};
  EXPECT_DEATH(RadixClusterMultiPass(data.data(), scratch.data(), data.size(),
                                     radix, zero_passes, tracer),
               "RADIX_CHECK failed");
  ClusterSpec too_wide{.total_bits = 33, .ignore_bits = 32, .passes = 1};
  EXPECT_DEATH(RadixClusterMultiPass(data.data(), scratch.data(), data.size(),
                                     radix, too_wide, tracer),
               "RADIX_CHECK failed");
}

TEST(ClusterSpecTest, EffectivePassesCountsNonZeroBitPasses) {
  EXPECT_EQ((ClusterSpec{.total_bits = 0, .ignore_bits = 0, .passes = 3})
                .EffectivePasses(),
            0u);
  EXPECT_EQ((ClusterSpec{.total_bits = 6, .ignore_bits = 0, .passes = 1})
                .EffectivePasses(),
            1u);
  // B < P: only B passes get a bit each.
  EXPECT_EQ((ClusterSpec{.total_bits = 2, .ignore_bits = 0, .passes = 5})
                .EffectivePasses(),
            2u);
  EXPECT_EQ((ClusterSpec{.total_bits = 12, .ignore_bits = 0, .passes = 3})
                .EffectivePasses(),
            3u);
}

TEST(ClusterSpecTest, PassBitsSumToTotal) {
  for (uint32_t passes = 1; passes <= 5; ++passes) {
    for (radix_bits_t bits = 0; bits <= 24; ++bits) {
      ClusterSpec spec{.total_bits = bits, .ignore_bits = 0, .passes = passes};
      auto pass_bits = spec.PassBits();
      EXPECT_EQ(pass_bits.size(), passes);
      radix_bits_t sum = 0;
      for (radix_bits_t pb : pass_bits) sum += pb;
      EXPECT_EQ(sum, bits);
    }
  }
}


TEST(ClusterSpecTest, TailIsPassBitsWithoutTheFirst) {
  for (uint32_t passes = 1; passes <= 5; ++passes) {
    for (radix_bits_t bits = 1; bits <= 24; ++bits) {
      ClusterSpec spec{.total_bits = bits, .ignore_bits = 3, .passes = passes};
      ClusterSpec tail = spec.Tail();
      std::vector<radix_bits_t> expected = spec.PassBits();
      expected.erase(expected.begin());
      EXPECT_EQ(tail.passes, passes - 1);
      EXPECT_EQ(tail.ignore_bits, spec.ignore_bits);
      EXPECT_EQ(tail.total_bits, bits - spec.PassBits()[0]);
      if (tail.total_bits > 0) {
        EXPECT_EQ(tail.PassBits(), expected);
      }
    }
  }
  ClusterSpec none{.total_bits = 0, .ignore_bits = 0, .passes = 2};
  EXPECT_EQ(none.Tail().total_bits, 0u);
}

/// Pairs whose `left` is the cluster key and whose `right` records the
/// input position, so any instability or loss shows in the output bytes.
std::vector<OidPair> TaggedPairs(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<OidPair> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = {static_cast<oid_t>(rng.Below(1u << 16)), static_cast<oid_t>(i)};
  }
  return v;
}

bool SameBytes(const OidPair* a, const OidPair* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(OidPair)) == 0;
}

TEST(RadixClusterDriverTest, ResultBufferFollowsPassParityWithoutCopyBack) {
  auto radix = [](const OidPair& p) -> uint64_t { return p.left; };
  for (size_t n : {size_t{0}, size_t{1}, size_t{1000},
                   kParallelSliceRows + 1}) {
    const std::vector<OidPair> input = TaggedPairs(n, n + 3);
    for (uint32_t passes = 1; passes <= 3; ++passes) {
      ClusterSpec spec{.total_bits = 9, .ignore_bits = 4, .passes = passes};
      // Reference: the serial driver with its copy-back.
      std::vector<OidPair> expected = input;
      std::vector<OidPair> scratch(n);
      simcache::NoTracer tracer;
      ClusterBorders want = RadixClusterMultiPass(
          expected.data(), scratch.data(), n, radix, spec, tracer);
      for (size_t threads = 1; threads <= 4; ++threads) {
        ThreadPool pool(threads);
        std::vector<OidPair> data = input;
        std::vector<OidPair> alt(n);
        OidPair* result = nullptr;
        ClusterBorders got = RadixClusterMultiPassParallel(
            data.data(), alt.data(), n, radix, spec, pool, &result);
        EXPECT_EQ(result, passes % 2 == 1 ? alt.data() : data.data())
            << "n=" << n << " passes=" << passes;
        EXPECT_TRUE(SameBytes(result, expected.data(), n))
            << "n=" << n << " passes=" << passes << " threads=" << threads;
        EXPECT_EQ(got.offsets, want.offsets);
        // Without `result` the driver still copies back into `data`.
        std::vector<OidPair> in_place = input;
        RadixClusterMultiPassParallel(in_place.data(), alt.data(), n, radix,
                                      spec, pool);
        EXPECT_TRUE(SameBytes(in_place.data(), expected.data(), n));
      }
    }
  }
}

TEST(RadixClusterPassSegmentsTest, EqualsSerialPassForAnySplitAndEmptySegments) {
  auto radix = [](const OidPair& p) -> uint64_t { return p.left; };
  const std::vector<OidPair> input = TaggedPairs(50'000, 11);
  std::vector<OidPair> expected(input.size());
  std::vector<uint64_t> want;
  simcache::NoTracer tracer;
  RadixClusterPass(input.data(), expected.data(), input.size(), radix,
                   /*shift=*/10, /*pass_bits=*/5, &want, tracer);
  // Cut points with empty segments at the front, middle and back.
  const std::vector<size_t> cuts = {0, 0, 7, 7, 20'000, 20'001, 49'999,
                                    50'000, 50'000};
  std::vector<std::span<const OidPair>> segments;
  for (size_t k = 0; k + 1 < cuts.size(); ++k) {
    segments.emplace_back(input.data() + cuts[k], cuts[k + 1] - cuts[k]);
  }
  for (size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    std::vector<OidPair> out(input.size());
    std::vector<uint64_t> got;
    RadixClusterPassSegments<OidPair>(segments, out.data(), radix, 10, 5,
                                      &got, &pool);
    EXPECT_TRUE(SameBytes(out.data(), expected.data(), out.size()))
        << "threads=" << threads;
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace radix::cluster
