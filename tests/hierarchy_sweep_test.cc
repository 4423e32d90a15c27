// Parameterized sweeps over memory-hierarchy configurations: the planning
// formulas must produce sane, cache-respecting parameters on any machine
// description, not just the paper's Pentium 4 — that hardware-independence
// is the point of the cost-model approach.

#include <gtest/gtest.h>

#include "cluster/partition_plan.h"
#include "decluster/window.h"
#include "hardware/memory_hierarchy.h"
#include "project/planner.h"

namespace radix {
namespace {

using hardware::MemoryHierarchy;

struct HwCase {
  const char* name;
  size_t l1_kb;
  size_t target_kb;
  uint32_t tlb_entries;
};

MemoryHierarchy MakeHw(const HwCase& c) {
  MemoryHierarchy hw;
  hw.cpu_ghz = 2.0;
  hw.caches.push_back({"L1", c.l1_kb * 1024, 64, 8, 5.0});
  hw.caches.push_back({"LL", c.target_kb * 1024, 64, 16, 100.0});
  hw.tlb = {c.tlb_entries, 4096, 0, 25.0};
  hw.ram_seq_bandwidth_gbs = 10.0;
  return hw;
}

class HierarchySweep : public ::testing::TestWithParam<HwCase> {};

TEST_P(HierarchySweep, PartialClusterRegionsFitTargetCache) {
  MemoryHierarchy hw = MakeHw(GetParam());
  for (size_t n : {100'000ul, 1'000'000ul, 16'000'000ul, 256'000'000ul}) {
    radix_bits_t b = cluster::PartialClusterBits(n, sizeof(value_t), hw);
    double region = static_cast<double>(n) * sizeof(value_t) / (1u << b);
    EXPECT_LE(region, hw.target_cache().capacity_bytes)
        << GetParam().name << " n=" << n;
    EXPECT_LE(b, SignificantBits(n));
  }
}

TEST_P(HierarchySweep, PassFanOutRespectsTlbAndL1) {
  MemoryHierarchy hw = MakeHw(GetParam());
  radix_bits_t per_pass = cluster::MaxPassBits(hw);
  EXPECT_LE(size_t{1} << per_pass,
            std::min<size_t>(hw.tlb.entries, hw.l1().num_lines()));
  EXPECT_GE(per_pass, 1u);
}

TEST_P(HierarchySweep, WindowsNeverExceedTargetCache) {
  MemoryHierarchy hw = MakeHw(GetParam());
  for (size_t clusters : {1ul, 256ul, 65536ul}) {
    for (size_t width : {4ul, 16ul, 64ul}) {
      size_t w = decluster::WindowPolicy::ChooseWindowElems(hw, width,
                                                            clusters, 1u << 24);
      EXPECT_LE(w * width, hw.target_cache().capacity_bytes)
          << GetParam().name << " clusters=" << clusters << " width=" << width;
      EXPECT_GE(w, 1u);
    }
  }
}

TEST_P(HierarchySweep, EasyHardBoundaryTracksCacheSize) {
  MemoryHierarchy hw = MakeHw(GetParam());
  size_t fits = hw.target_cache().capacity_bytes / sizeof(value_t);
  EXPECT_TRUE(project::ColumnFitsCache(fits, hw));
  EXPECT_FALSE(project::ColumnFitsCache(fits * 2, hw));
  // Planner: easy joins never engage the radix machinery.
  project::Plan easy = project::PlanDsmPost(fits / 2, fits / 2, 4, hw);
  EXPECT_EQ(easy.code, "u/u");
  project::Plan hard =
      project::PlanDsmPost(fits * 8, fits * 8, 4, hw);
  EXPECT_EQ(hard.code, "c/d");
}

TEST_P(HierarchySweep, ScalabilityBoundGrowsQuadraticallyWithCache) {
  // §6: the decluster bound scales with C^2; doubling the cache must
  // quadruple the max efficient cardinality.
  HwCase base = GetParam();
  HwCase doubled = base;
  doubled.target_kb *= 2;
  size_t small = decluster::WindowPolicy::MaxEfficientCardinality(
      MakeHw(base), sizeof(value_t));
  size_t large = decluster::WindowPolicy::MaxEfficientCardinality(
      MakeHw(doubled), sizeof(value_t));
  EXPECT_EQ(large, small * 4);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, HierarchySweep,
    ::testing::Values(HwCase{"paper_p4", 16, 512, 64},
                      HwCase{"small_embedded", 8, 128, 32},
                      HwCase{"laptop", 32, 1024, 64},
                      HwCase{"server_l2", 48, 2048, 128},
                      HwCase{"big_llc", 64, 32768, 1536},
                      HwCase{"itanium2_like", 16, 6144, 128}),
    [](const ::testing::TestParamInfo<HwCase>& info) {
      return info.param.name;
    });

TEST(HierarchySweepExtra, PaperItaniumClaim) {
  // §6: "the 6MB Itanium2 cache allows for 72 billion tuples". Our exact
  // C^2/(32*width^2) with binary megabytes gives (6MiB/4)^2/32 = 77.3e9 —
  // same order as the paper's (rounded) 72e9 claim.
  MemoryHierarchy hw = MakeHw({"it2", 16, 6144, 128});
  size_t bound = decluster::WindowPolicy::MaxEfficientCardinality(hw, 4);
  EXPECT_NEAR(static_cast<double>(bound), 77.3e9, 0.2e9);
  EXPECT_GT(static_cast<double>(bound), 70e9);  // the paper's claim holds
}

}  // namespace
}  // namespace radix
