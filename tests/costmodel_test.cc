// Tests for the Appendix-A cost model: pattern formulas at their limit
// cases, composition, and the qualitative shapes the paper's figures rely
// on (optima, cliffs, crossovers).

#include <gtest/gtest.h>

#include "costmodel/models.h"
#include "costmodel/patterns.h"

namespace radix::costmodel {
namespace {

hardware::MemoryHierarchy P4() {
  return hardware::MemoryHierarchy::Pentium4();
}

TEST(PatternsTest, STravIsCompulsoryOnly) {
  auto hw = P4();
  PatternContext ctx{&hw, 1.0};
  Region r = Region::Of(1 << 20, 4);  // 4MB
  MissVector mv = STrav(ctx, r);
  EXPECT_DOUBLE_EQ(mv.l1, r.bytes() / 32);
  EXPECT_DOUBLE_EQ(mv.l2, r.bytes() / 128);
  EXPECT_DOUBLE_EQ(mv.tlb, r.bytes() / 4096);
}

TEST(PatternsTest, RsTravCachedRegionPaysOnce) {
  auto hw = P4();
  PatternContext ctx{&hw, 1.0};
  Region small = Region::Of(1024, 4);  // 4KB << 512KB L2
  MissVector once = STrav(ctx, small);
  MissVector many = RsTrav(ctx, 100, small);
  EXPECT_DOUBLE_EQ(many.l2, once.l2);
  // But L1 (16KB) holds it too, so also once there.
  EXPECT_DOUBLE_EQ(many.l1, once.l1);
  Region big = Region::Of(1 << 20, 4);  // 4MB >> caches
  MissVector rep = RsTrav(ctx, 10, big);
  EXPECT_DOUBLE_EQ(rep.l2, 10 * STrav(ctx, big).l2);
}

TEST(PatternsTest, RTravInCacheEqualsSequentialMisses) {
  auto hw = P4();
  PatternContext ctx{&hw, 1.0};
  Region r = Region::Of(4096, 4);  // 16KB <= L2
  MissVector mv = RTrav(ctx, r);
  EXPECT_DOUBLE_EQ(mv.l2, r.bytes() / 128);
}

TEST(PatternsTest, RTravBeyondCacheApproachesPerTupleMisses) {
  auto hw = P4();
  PatternContext ctx{&hw, 1.0};
  Region r = Region::Of(1 << 22, 4);  // 16MB >> 512KB
  MissVector mv = RTrav(ctx, r);
  // Nearly every touch should miss L2: > 90% of tuples.
  EXPECT_GT(mv.l2, r.tuples * 0.9);
  EXPECT_LE(mv.l2, r.tuples);
}

TEST(PatternsTest, RAccMonotoneInRegionSize) {
  auto hw = P4();
  PatternContext ctx{&hw, 1.0};
  double k = 1e6;
  double prev = 0;
  for (size_t tuples : {1u << 12, 1u << 16, 1u << 20, 1u << 24}) {
    MissVector mv = RAcc(ctx, k, Region::Of(tuples, 4));
    EXPECT_GE(mv.l2, prev);
    prev = mv.l2;
  }
}

TEST(PatternsTest, NestThrashesBeyondEntryCount) {
  auto hw = P4();
  PatternContext ctx{&hw, 1.0};
  Region r = Region::Of(1 << 20, 8);
  // Few cursors: compulsory only. Beyond TLB entries (64): way more.
  MissVector few = NestSTrav(ctx, 16, r);
  MissVector many = NestSTrav(ctx, 4096, r);
  EXPECT_DOUBLE_EQ(few.tlb, r.bytes() / 4096);
  EXPECT_GT(many.tlb, few.tlb * 10);
}

TEST(ComposeTest, SequentialAddsAndConcurrentShrinksCapacity) {
  auto hw = P4();
  Region r = Region::Of(1 << 17, 4);  // 512KB == L2 capacity
  auto rt = [&r](const PatternContext& ctx) { return RTrav(ctx, r); };
  MissVector alone = Sequential(hw, {{rt, r.bytes()}});
  MissVector together = Concurrent(hw, {{rt, r.bytes()}, {rt, r.bytes()}});
  // Two concurrent random traversals of a region that exactly fits: each
  // sees only half the cache, so combined misses exceed 2x the solo run.
  EXPECT_GT(together.l2, 2 * alone.l2);
}

TEST(ComposeTest, MissesToSecondsUsesLatencies) {
  auto hw = P4();
  MissVector mv;
  mv.l2 = 1e6;
  double s = MissesToSeconds(hw, mv, 0.0);
  EXPECT_NEAR(s, 1e6 * 178e-9, 1e-6);
  EXPECT_GT(MissesToSeconds(hw, mv, 1.0), 1.0);
}

TEST(ModelsTest, RadixClusterSinglePassDegradesWithBits) {
  // Fig. 9a's shape: single-pass clustering cost explodes once 2^B cursors
  // exceed cache/TLB capacity.
  auto hw = P4();
  CpuCosts cpu;
  double at_4 = RadixClusterCost(hw, cpu, 8'000'000, 8, 4, 1).seconds;
  double at_16 = RadixClusterCost(hw, cpu, 8'000'000, 8, 16, 1).seconds;
  EXPECT_GT(at_16, at_4 * 2);
  // Two passes tame the 16-bit clustering.
  double at_16_2p = RadixClusterCost(hw, cpu, 8'000'000, 8, 16, 2).seconds;
  EXPECT_LT(at_16_2p, at_16);
}

TEST(ModelsTest, PartitionedHashJoinHasInteriorOptimum) {
  // Fig. 9b: unclustered join is slow; too many bits do not help further
  // once clusters fit the cache (cost flattens / CPU-bound).
  auto hw = P4();
  CpuCosts cpu;
  double unclustered =
      PartitionedHashJoinCost(hw, cpu, 4'000'000, 4'000'000, 8, 0).seconds;
  double at_10 =
      PartitionedHashJoinCost(hw, cpu, 4'000'000, 4'000'000, 8, 10).seconds;
  EXPECT_GT(unclustered, at_10 * 2);
}

TEST(ModelsTest, PositionalJoinImprovesThenFlattens) {
  // Fig. 9c: clustering the index reduces positional-join cost until the
  // per-cluster column region fits the cache.
  auto hw = P4();
  CpuCosts cpu;
  double at_0 =
      ClusteredPositionalJoinCost(hw, cpu, 4'000'000, 4'000'000, 4, 0, false)
          .seconds;
  double at_8 =
      ClusteredPositionalJoinCost(hw, cpu, 4'000'000, 4'000'000, 4, 8, false)
          .seconds;
  EXPECT_GT(at_0, at_8 * 2);
  double sorted =
      ClusteredPositionalJoinCost(hw, cpu, 4'000'000, 4'000'000, 4, 0, true)
          .seconds;
  EXPECT_LE(sorted, at_8 * 1.5);
}

TEST(ModelsTest, DeclusterWindowCliffAtCacheSize) {
  // Fig. 7a: decluster cost jumps once the window exceeds the cache.
  auto hw = P4();
  CpuCosts cpu;
  size_t n = 8'000'000;
  double inside =
      RadixDeclusterCost(hw, cpu, n, 4, 8, (256 * 1024) / 4).seconds;
  double outside =
      RadixDeclusterCost(hw, cpu, n, 4, 8, (8 * 1024 * 1024) / 4).seconds;
  EXPECT_GT(outside, inside * 1.5);
}

TEST(ModelsTest, DeclusterDegradesWithTinyWindows) {
  // Small windows mean many sweeps over the cluster cursors.
  auto hw = P4();
  CpuCosts cpu;
  size_t n = 8'000'000;
  double tiny = RadixDeclusterCost(hw, cpu, n, 4, 12, 1024).seconds;
  double good = RadixDeclusterCost(hw, cpu, n, 4, 12, (256 * 1024) / 4).seconds;
  EXPECT_GT(tiny, good);
}

TEST(ModelsTest, StreamingDeclusterConvergesToMaterializing) {
  // range_rows >= N is one range over the whole result: the two-phase
  // prediction (gather, then Radix-Decluster with the window set to the
  // whole result) without the clustered value buffer's write and read-back,
  // which the fused kernel never makes.
  auto hw = P4();
  CpuCosts cpu;
  size_t n = 8'000'000;
  radix_bits_t bits = 10;
  double fused = RadixDeclusterGatherCost(hw, cpu, n, n, 4, bits, n).seconds;
  EXPECT_DOUBLE_EQ(
      RadixDeclusterGatherCost(hw, cpu, n, n, 4, bits, 4 * n).seconds, fused);
  double two_phase =
      ClusteredPositionalJoinCost(hw, cpu, n, n, 4, bits, false).seconds +
      RadixDeclusterCost(hw, cpu, n, 4, bits, n).seconds;
  double buffer =
      MissesToSeconds(hw, STrav({&hw, 1.0}, Region::Of(n, 4)) * 2.0, 0.0);
  EXPECT_LT(fused, two_phase);
  EXPECT_NEAR(fused, two_phase - buffer, 0.05 * two_phase);
}

TEST(ModelsTest, StreamingDeclusterChargesPerChunkTraversals) {
  // Smaller ranges cut each cluster's column region into colder segments
  // and seek every cluster once more per range, so while the range's writes
  // stay resident at the same cache levels the cost falls as the range
  // grows. Each level the range outgrows is a cliff (Fig. 7a's window
  // cliff): the P4's 16 KiB L1 between 4K and 8K rows, its 512 KiB L2
  // past the cache-sized range.
  auto hw = P4();
  CpuCosts cpu;
  size_t n = 8'000'000;
  radix_bits_t bits = 10;
  auto cost = [&](size_t range) {
    return RadixDeclusterGatherCost(hw, cpu, n, n, 4, bits, range).seconds;
  };
  // A range never holds fewer rows than there are clusters.
  EXPECT_DOUBLE_EQ(cost(1), cost(size_t{1} << bits));
  const size_t l1_rows = hw.l1().capacity_bytes / 4;
  const size_t tlb_rows = hw.tlb.capacity_bytes() / 4;
  for (auto [lo, hi] : {std::pair{size_t{1} << bits, l1_rows},
                        std::pair{2 * l1_rows, tlb_rows}}) {
    for (size_t range = lo; 2 * range <= hi; range *= 2) {
      EXPECT_LE(cost(2 * range), cost(range)) << "range=" << range;
    }
  }
  const size_t cache_rows = hw.target_cache().capacity_bytes / 4;
  EXPECT_GT(cost(2 * cache_rows), 1.5 * cost(cache_rows / 2));
}

TEST(ModelsTest, JiveJoinsHaveOpposingBitPreferences) {
  // Figs. 9e/9f: Left Jive degrades with more clusters (cursor thrash),
  // Right Jive degrades with fewer (fetch region exceeds cache).
  auto hw = P4();
  CpuCosts cpu;
  size_t n = 4'000'000;
  double left_few = LeftJiveJoinCost(hw, cpu, n, n, 4, 4).seconds;
  double left_many = LeftJiveJoinCost(hw, cpu, n, n, 4, 16).seconds;
  EXPECT_GT(left_many, left_few);
  double right_few = RightJiveJoinCost(hw, cpu, n, n, 4, 2).seconds;
  double right_many = RightJiveJoinCost(hw, cpu, n, n, 4, 10).seconds;
  EXPECT_GT(right_few, right_many);
}

}  // namespace
}  // namespace radix::costmodel
