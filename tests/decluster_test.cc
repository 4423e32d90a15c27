// Tests for Radix-Decluster: the window merge, cursor handling, row
// variant, and the window policy. The key invariant (paper §3.2): given
// values[] and a radix-clustered permutation ids[], after decluster
// result[ids[i]] == values[i] for all i — i.e., the algorithm is an exact
// cache-friendly scatter.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "cluster/radix_count.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "decluster/radix_decluster.h"
#include "decluster/window.h"
#include "hardware/memory_hierarchy.h"
#include "workload/distributions.h"

namespace radix::decluster {
namespace {

using cluster::ClusterBorders;
using cluster::ClusterSpec;

/// Build a clustered (values, ids) pair of size n with the given bits, in
/// the paper's Fig. 4 distribution: a join index is radix-clustered on the
/// *other* side's oids (a shuffled permutation here) carrying the result
/// positions along. The positions — what Radix-Decluster consumes as ids —
/// are spread over the whole result range but ascend within each cluster
/// and form a dense permutation (§3.2 properties (1)+(2), which debug
/// builds now verify). values[i] = f(ids[i]) so the expected result is
/// value-by-position.
struct ClusteredInput {
  std::vector<value_t> values;
  std::vector<oid_t> ids;
  ClusterBorders borders;
};

ClusteredInput MakeInput(size_t n, radix_bits_t bits, uint64_t seed) {
  struct KeyPos {
    oid_t key, pos;
  };
  std::vector<oid_t> keys(n);
  std::iota(keys.begin(), keys.end(), 0u);
  Rng rng(seed);
  workload::Shuffle(keys.data(), n, rng);
  std::vector<KeyPos> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = {keys[i], static_cast<oid_t>(i)};
  }

  radix_bits_t sig = SignificantBits(n == 0 ? 1 : n);
  radix_bits_t b = std::min<radix_bits_t>(bits, sig);
  ClusterSpec spec{.total_bits = b,
                   .ignore_bits = static_cast<radix_bits_t>(sig - b),
                   .passes = 1};
  std::vector<KeyPos> scratch(n);
  simcache::NoTracer nt;
  auto radix_of = [](const KeyPos& p) -> uint64_t { return p.key; };
  ClusteredInput in;
  in.borders = cluster::RadixClusterMultiPass(pairs.data(), scratch.data(), n,
                                              radix_of, spec, nt);
  in.ids.resize(n);
  in.values.resize(n);
  for (size_t i = 0; i < n; ++i) {
    in.ids[i] = pairs[i].pos;
    in.values[i] = static_cast<value_t>(pairs[i].pos * 7 + 3);
  }
  return in;
}

void ExpectDeclustered(const ClusteredInput& /*in*/,
                       const std::vector<value_t>& result) {
  for (size_t i = 0; i < result.size(); ++i) {
    ASSERT_EQ(result[i], static_cast<value_t>(i * 7 + 3))
        << "position " << i << " wrong";
  }
}

TEST(RadixDeclusterTest, ScattersExactlyOnePerPosition) {
  ClusteredInput in = MakeInput(1 << 14, 4, 1);
  std::vector<value_t> result(in.ids.size(), -1);
  RadixDecluster<value_t>(in.values, in.ids, in.borders, /*window=*/1024,
                          std::span<value_t>(result));
  ExpectDeclustered(in, result);
}

TEST(RadixDeclusterTest, SingleCluster) {
  // One cluster == ids fully sorted (§3.2 property (2) applied to a single
  // cluster); any window size must work.
  ClusteredInput in = MakeInput(5000, 0, 2);
  std::vector<value_t> result(in.ids.size(), -1);
  RadixDecluster<value_t>(in.values, in.ids, in.borders, 64,
                          std::span<value_t>(result));
  ExpectDeclustered(in, result);
}

TEST(RadixDeclusterTest, WindowLargerThanInput) {
  ClusteredInput in = MakeInput(1000, 3, 3);
  std::vector<value_t> result(in.ids.size(), -1);
  RadixDecluster<value_t>(in.values, in.ids, in.borders, 1u << 20,
                          std::span<value_t>(result));
  ExpectDeclustered(in, result);
}

TEST(RadixDeclusterTest, WindowOfOne) {
  // Degenerate window: every sweep fills exactly one position; still exact.
  ClusteredInput in = MakeInput(512, 4, 4);
  std::vector<value_t> result(in.ids.size(), -1);
  RadixDecluster<value_t>(in.values, in.ids, in.borders, 1,
                          std::span<value_t>(result));
  ExpectDeclustered(in, result);
}

TEST(RadixDeclusterTest, EmptyClustersAreSkipped) {
  // Cluster count far exceeding n leaves most clusters empty; MakeCursors
  // must drop them and the merge must still terminate.
  ClusteredInput in = MakeInput(100, 10, 5);
  EXPECT_GT(in.borders.num_clusters(), 100u);
  std::vector<value_t> result(in.ids.size(), -1);
  RadixDecluster<value_t>(in.values, in.ids, in.borders, 32,
                          std::span<value_t>(result));
  ExpectDeclustered(in, result);
}

TEST(RadixDeclusterTest, SizeOne) {
  ClusteredInput in = MakeInput(1, 1, 6);
  std::vector<value_t> result(1, -1);
  RadixDecluster<value_t>(in.values, in.ids, in.borders, 16,
                          std::span<value_t>(result));
  ExpectDeclustered(in, result);
}

struct DeclusterParam {
  size_t n;
  radix_bits_t bits;
  size_t window;
};

class RadixDeclusterSweep : public ::testing::TestWithParam<DeclusterParam> {};

TEST_P(RadixDeclusterSweep, ExactAcrossGeometries) {
  const auto& p = GetParam();
  ClusteredInput in = MakeInput(p.n, p.bits, 1000 + p.n + p.bits);
  std::vector<value_t> result(in.ids.size(), -1);
  RadixDecluster<value_t>(in.values, in.ids, in.borders, p.window,
                          std::span<value_t>(result));
  ExpectDeclustered(in, result);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RadixDeclusterSweep,
    ::testing::Values(DeclusterParam{1 << 10, 2, 32},
                      DeclusterParam{1 << 10, 5, 128},
                      DeclusterParam{1 << 12, 6, 100},   // non-power-of-two
                      DeclusterParam{1 << 16, 8, 4096},
                      DeclusterParam{100'000, 7, 2048},  // non-power-of-two n
                      DeclusterParam{1 << 18, 10, 1 << 14},
                      DeclusterParam{1 << 18, 3, 1 << 15},
                      DeclusterParam{99, 2, 7}));

TEST_P(RadixDeclusterSweep, ParallelMatchesSerialExactly) {
  const auto& p = GetParam();
  ClusteredInput in = MakeInput(p.n, p.bits, 2000 + p.n + p.bits);
  std::vector<value_t> serial(in.ids.size(), -1);
  RadixDecluster<value_t>(in.values, in.ids, in.borders, p.window,
                          std::span<value_t>(serial));
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    std::vector<value_t> parallel(in.ids.size(), -2);
    RadixDeclusterParallel<value_t>(in.values, in.ids,
                                    MakeCursors(in.borders), p.window,
                                    std::span<value_t>(parallel), pool);
    ASSERT_EQ(parallel, serial) << "threads=" << threads;
  }
}

#ifndef NDEBUG
// Debug builds verify the §3.2 preconditions; a miswired caller must die
// with a check failure instead of producing silently wrong results.
TEST(DeclusterPreconditionDeathTest, CatchesNonAscendingIdsWithinCluster) {
  std::vector<value_t> values = {10, 20, 30, 40};
  std::vector<oid_t> ids = {0, 2, 1, 3};  // 2 > 1: not ascending
  cluster::ClusterBorders borders;
  borders.offsets = {0, 4};
  std::vector<value_t> result(4, -1);
  EXPECT_DEATH(RadixDecluster<value_t>(values, ids, borders, 2,
                                       std::span<value_t>(result)),
               "RADIX_CHECK failed");
}

TEST(DeclusterPreconditionDeathTest, CatchesDuplicateResultPositions) {
  std::vector<value_t> values = {10, 20, 30, 40};
  // Ascending per cluster but id 1 appears in both clusters: not a
  // permutation, result slot 3 would never be written.
  std::vector<oid_t> ids = {0, 1, 1, 2};
  cluster::ClusterBorders borders;
  borders.offsets = {0, 2, 4};
  std::vector<value_t> result(4, -1);
  EXPECT_DEATH(RadixDecluster<value_t>(values, ids, borders, 2,
                                       std::span<value_t>(result)),
               "RADIX_CHECK failed");
}

TEST(DeclusterPreconditionDeathTest, CatchesIdsBeyondResult) {
  std::vector<value_t> values = {10, 20};
  std::vector<oid_t> ids = {0, 7};  // 7 outside [0, 2)
  cluster::ClusterBorders borders;
  borders.offsets = {0, 2};
  std::vector<value_t> result(2, -1);
  EXPECT_DEATH(RadixDecluster<value_t>(values, ids, borders, 2,
                                       std::span<value_t>(result)),
               "RADIX_CHECK failed");
}

TEST(DeclusterPreconditionDeathTest, CatchesCursorsNotCoveringIds) {
  std::vector<value_t> values = {10, 20, 30, 40};
  std::vector<oid_t> ids = {0, 1, 2, 3};
  // Cursors cover only the first half: slots 2 and 3 would stay stale.
  std::vector<ClusterCursor> cursors = {{0, 2}};
  std::vector<value_t> result(4, -1);
  EXPECT_DEATH(RadixDecluster<value_t>(values, ids, std::move(cursors), 2,
                                       std::span<value_t>(result)),
               "RADIX_CHECK failed");
}
#endif  // NDEBUG

TEST(RadixDeclusterRowsTest, DeclustersFixedWidthRows) {
  constexpr size_t kRowValues = 5;
  size_t n = 1 << 12;
  ClusteredInput in = MakeInput(n, 5, 7);
  std::vector<value_t> rows(n * kRowValues);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < kRowValues; ++a) {
      rows[i * kRowValues + a] = static_cast<value_t>(in.ids[i] * 10 + a);
    }
  }
  std::vector<value_t> result(n * kRowValues, -1);
  RadixDeclusterRows(reinterpret_cast<const uint8_t*>(rows.data()),
                     kRowValues * sizeof(value_t), in.ids,
                     MakeCursors(in.borders), 512,
                     reinterpret_cast<uint8_t*>(result.data()));
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < kRowValues; ++a) {
      ASSERT_EQ(result[i * kRowValues + a], static_cast<value_t>(i * 10 + a));
    }
  }
}

TEST(MakeCursorsTest, DropsEmptyClusters) {
  ClusterBorders borders;
  borders.offsets = {0, 0, 5, 5, 9, 9};
  auto cursors = MakeCursors(borders);
  ASSERT_EQ(cursors.size(), 2u);
  EXPECT_EQ(cursors[0].start, 0u);
  EXPECT_EQ(cursors[0].end, 5u);
  EXPECT_EQ(cursors[1].start, 5u);
  EXPECT_EQ(cursors[1].end, 9u);
}

TEST(WindowPolicyTest, DefaultWindowIsHalfCache) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  // Paper Fig. 6: windowSize = CACHESIZE / (2 * sizeof(T)).
  EXPECT_EQ(WindowPolicy::DefaultWindowElems(hw, 4), 512u * 1024 / 8);
}

TEST(WindowPolicyTest, WindowNeverExceedsCache) {
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  for (size_t clusters : {1ul, 64ul, 1024ul, 65536ul}) {
    size_t w = WindowPolicy::ChooseWindowElems(hw, 4, clusters, 10'000'000);
    EXPECT_LE(w * 4, hw.target_cache().capacity_bytes);
  }
}

TEST(WindowPolicyTest, MaxCardinalityMatchesPaperFormula) {
  // Paper §4.1: |R| <= C^2 / (32 * width^2); for the P4's 512KB L2 and
  // 4-byte values that is 512K*512K/(32*16) = 2^38 / 2^9 = 2^29 ≈ 0.5G
  // tuples ("the 512KB cache of a Pentium4 allows to project relations of
  // up to half a billion tuples", §6).
  hardware::MemoryHierarchy hw = hardware::MemoryHierarchy::Pentium4();
  size_t max_n = WindowPolicy::MaxEfficientCardinality(hw, 4);
  EXPECT_EQ(max_n, size_t{1} << 29);
}

TEST(PagedLikeDeclusterProperty, DeclusterIsInverseOfCluster) {
  // Property: for any permutation ids, cluster-then-decluster is identity
  // on the payload column. Uses random bits/window per round.
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    size_t n = 500 + rng.Below(5000);
    radix_bits_t bits = 1 + static_cast<radix_bits_t>(rng.Below(8));
    size_t window = 1 + rng.Below(2048);
    ClusteredInput in = MakeInput(n, bits, 7000 + round);
    std::vector<value_t> result(n, -1);
    RadixDecluster<value_t>(in.values, in.ids, in.borders, window,
                            std::span<value_t>(result));
    ExpectDeclustered(in, result);
  }
}

// RadixDeclusterGather, the streamed projection's decluster side. Its tests
// keep the Pipeline* suite names the streamed path has been tested under: a
// result range plays the part of a chunk, the kernel's grains the part of
// the executor's chunk runs.

/// A decluster side as the projectors build it: result row i joins right
/// oid rid[i] of a `column_n`-row column, and the (rid, i) pairs are
/// radix-clustered on rid with `bits` bits (Fig. 4). `hit_rate` < 1 leaves
/// part of the column unreferenced; `zipf` > 0 skews the oids towards the
/// low ones, so a few clusters take most rows and many stay empty.
struct GatherInput {
  std::vector<value_t> column;
  std::vector<oid_t> ids;        ///< right oids, clustered
  std::vector<oid_t> positions;  ///< each one's result row
  ClusterBorders borders;
};

GatherInput MakeGatherInput(size_t n, radix_bits_t bits, double hit_rate,
                            double zipf, uint64_t seed) {
  struct IdPos {
    oid_t id, pos;
  };
  const size_t column_n =
      std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) / hit_rate));
  Rng rng(seed);
  GatherInput in;
  in.column.resize(column_n);
  for (value_t& v : in.column) v = static_cast<value_t>(rng.Below(1u << 31));
  std::vector<IdPos> pairs(n);
  workload::ZipfGenerator skewed(column_n, zipf > 0 ? zipf : 1.0);
  for (size_t i = 0; i < n; ++i) {
    uint64_t rid = zipf > 0 ? skewed.Next(rng) : rng.Below(column_n);
    pairs[i] = {static_cast<oid_t>(rid), static_cast<oid_t>(i)};
  }
  radix_bits_t sig = SignificantBits(column_n);
  radix_bits_t b = std::min<radix_bits_t>(bits, sig);
  ClusterSpec spec{.total_bits = b,
                   .ignore_bits = static_cast<radix_bits_t>(sig - b),
                   .passes = 1};
  std::vector<IdPos> scratch(n);
  simcache::NoTracer nt;
  auto radix_of = [](const IdPos& p) -> uint64_t { return p.id; };
  in.borders = cluster::RadixClusterMultiPass(pairs.data(), scratch.data(), n,
                                              radix_of, spec, nt);
  if (in.borders.offsets.empty()) in.borders.offsets = {0, n};
  for (const IdPos& p : pairs) {
    in.ids.push_back(p.id);
    in.positions.push_back(p.pos);
  }
  return in;
}

/// The paper's two-phase decluster side, serial: gather the column in
/// clustered order, then Radix-Decluster into result order.
std::vector<value_t> TwoPhaseDecluster(const GatherInput& in, size_t window) {
  const size_t n = in.ids.size();
  std::vector<value_t> values(n);
  for (size_t p = 0; p < n; ++p) values[p] = in.column[in.ids[p]];
  std::vector<value_t> result(n, -1);
  RadixDecluster<value_t>(values, in.positions, in.borders, window,
                          std::span<value_t>(result));
  return result;
}

TEST(PipelineDecluster, ChunkedMergeMatchesFullMerge) {
  // The fused kernel against gather + serial RadixDecluster across seeds,
  // pools, bits (0 = one cluster; 9 leaves clusters empty), skew, hit
  // rates below 1 and range sizes from 1 row past N — N is no multiple of
  // most of them.
  constexpr size_t kWindow = 256;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (size_t threads : {1u, 2u, 3u, 4u}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  for (uint64_t seed : {1u, 2u}) {
    const size_t n = 3000 + 997 * seed;
    for (radix_bits_t bits : {0, 1, 7, 9}) {
      for (double hit_rate : {1.0, 0.4}) {
        for (double zipf : {0.0, 1.1}) {
          GatherInput in = MakeGatherInput(n, bits, hit_rate, zipf,
                                           seed * 100 + bits);
          const std::vector<value_t> expected = TwoPhaseDecluster(in, kWindow);
          std::vector<value_t> second(in.column.size());
          for (size_t i = 0; i < second.size(); ++i) {
            second[i] = ~in.column[i];
          }
          for (const auto& pool : pools) {
            for (size_t range : {size_t{1}, size_t{7}, kWindow, n - 1, n,
                                 2 * n + 5}) {
              std::vector<value_t> out(n, -2);
              std::vector<value_t> out2(n, -2);
              double busy = 0;
              RadixDeclusterGather<value_t>(
                  {in.column, second}, in.ids, in.positions,
                  MakeCursors(in.borders), range,
                  {std::span<value_t>(out), std::span<value_t>(out2)},
                  pool.get(), &busy);
              ASSERT_EQ(out, expected)
                  << "seed=" << seed << " bits=" << bits
                  << " hit_rate=" << hit_rate << " zipf=" << zipf
                  << " threads=" << pool->num_threads() << " range=" << range;
              for (size_t r = 0; r < n; ++r) {
                ASSERT_EQ(out2[r], ~expected[r]) << "second column, row " << r;
              }
              EXPECT_GT(busy, 0.0);
            }
          }
        }
      }
    }
  }
}

/// A value whose copy-assignment counts the writes into each result slot,
/// so a test can see that the fused merge writes every slot exactly once.
struct CountedValue {
  value_t v = 0;
  static inline std::atomic<int>* writes = nullptr;
  static inline const CountedValue* base = nullptr;

  CountedValue() = default;
  CountedValue(const CountedValue&) = default;
  CountedValue& operator=(const CountedValue& other) {
    v = other.v;
    writes[this - base].fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
};

TEST(PipelineExecutor, RunsEveryChunkExactlyOnceAcrossConfigs) {
  const size_t n = 9973;
  GatherInput in = MakeGatherInput(n, 6, 1.0, 0.0, 41);
  std::vector<CountedValue> column(in.column.size());
  for (size_t i = 0; i < column.size(); ++i) column[i].v = in.column[i];
  const std::vector<value_t> expected = TwoPhaseDecluster(in, 512);
  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    for (size_t range : {size_t{1}, size_t{100}, size_t{4096}, n}) {
      std::vector<CountedValue> out(n);
      std::vector<std::atomic<int>> writes(n);
      CountedValue::writes = writes.data();
      CountedValue::base = out.data();
      RadixDeclusterGather<CountedValue>(
          {std::span<const CountedValue>(column)}, in.ids, in.positions,
          MakeCursors(in.borders), range, {std::span<CountedValue>(out)},
          &pool);
      for (size_t r = 0; r < n; ++r) {
        ASSERT_EQ(writes[r].load(), 1)
            << "slot " << r << " threads=" << threads << " range=" << range;
        ASSERT_EQ(out[r].v, expected[r]);
      }
    }
  }
}

TEST(PipelineChunkPlan, ClusterAlignedChunksPartitionTheClusters) {
  // The seek every grain runs: over consecutive result ranges, a cluster's
  // segments are adjacent, in order, and cover the cluster exactly — also
  // with empty clusters and ranges of a single row.
  Rng rng(11);
  for (int round = 0; round < 10; ++round) {
    const size_t n = 500 + rng.Below(5000);
    GatherInput in = MakeGatherInput(n, static_cast<radix_bits_t>(rng.Below(10)),
                                     1.0, round % 2 == 0 ? 0.0 : 1.2,
                                     500 + round);
    const size_t range = 1 + rng.Below(n);
    for (const ClusterCursor& c : MakeCursors(in.borders)) {
      uint64_t next = c.start;
      for (uint64_t begin = 0; begin < n; begin += range) {
        const uint64_t end = std::min<uint64_t>(n, begin + range);
        ClusterCursor seg =
            detail::SeekRange(in.positions.data(), c, begin, end, n);
        ASSERT_EQ(seg.start, next) << "round " << round;
        ASSERT_LE(seg.start, seg.end);
        for (uint64_t p = seg.start; p < seg.end; ++p) {
          ASSERT_GE(in.positions[p], begin);
          ASSERT_LT(in.positions[p], end);
        }
        next = seg.end;
      }
      ASSERT_EQ(next, c.end) << "round " << round;
    }
  }
}

TEST(PipelineExecutor, EmptyPlanIsANoOp) {
  GatherInput in = MakeGatherInput(0, 4, 1.0, 0.0, 3);
  std::vector<value_t> out;
  ThreadPool pool(2);
  double busy = 0;
  RadixDeclusterGather<value_t>({in.column}, in.ids, in.positions,
                                MakeCursors(in.borders), 64,
                                {std::span<value_t>(out)}, &pool, &busy);
  EXPECT_EQ(busy, 0.0);
  // No columns at all is a no-op too.
  RadixDeclusterGather<value_t>({}, in.ids, in.positions,
                                MakeCursors(in.borders), 64, {}, nullptr);
}

}  // namespace
}  // namespace radix::decluster
