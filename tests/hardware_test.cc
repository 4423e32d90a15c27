// Tests for memory-hierarchy descriptors and the runtime calibrator.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/partition_plan.h"
#include "hardware/calibrator.h"
#include "hardware/memory_hierarchy.h"
#include "project/planner.h"

namespace radix::hardware {
namespace {

/// One cpu0/cache/index<N> directory of a fixture sysfs tree.
struct SysfsCache {
  std::string type;    ///< "Data", "Instruction" or "Unified"
  int level = 1;
  std::string size;    ///< e.g. "48K"
  std::string shared;  ///< shared_cpu_list; empty = file absent
};

/// A sysfs CPU directory in a temp dir, removed on scope exit.
class SysfsFixture {
 public:
  SysfsFixture(const std::string& name, const std::vector<SysfsCache>& caches)
      : root_(std::filesystem::temp_directory_path() /
              ("radix_sysfs_" + name + "_" + std::to_string(getpid()))) {
    std::filesystem::remove_all(root_);
    for (size_t i = 0; i < caches.size(); ++i) {
      const auto dir =
          root_ / "cpu0" / "cache" / ("index" + std::to_string(i));
      std::filesystem::create_directories(dir);
      const SysfsCache& c = caches[i];
      Write(dir / "type", c.type);
      Write(dir / "level", std::to_string(c.level));
      Write(dir / "size", c.size);
      Write(dir / "coherency_line_size", "64");
      Write(dir / "ways_of_associativity", "16");
      if (!c.shared.empty()) Write(dir / "shared_cpu_list", c.shared);
    }
  }
  ~SysfsFixture() { std::filesystem::remove_all(root_); }

  MemoryHierarchy Detect() const {
    return MemoryHierarchy::Detect(root_.string());
  }

 private:
  static void Write(const std::filesystem::path& path,
                    const std::string& text) {
    std::ofstream(path) << text << "\n";
  }

  std::filesystem::path root_;
};

/// The 4-vCPU Xeon layout: private 48K L1d and 2M L2, a 105M L3 shared by
/// all four CPUs.
SysfsFixture XeonFixture() {
  return SysfsFixture("xeon", {{"Data", 1, "48K", "0"},
                               {"Instruction", 1, "32K", "0"},
                               {"Unified", 2, "2048K", "0"},
                               {"Unified", 3, "107520K", "0-3"}});
}

TEST(DetectTest, PrivateL2IsTheTargetAndTheSharedL3GivesTheLlcShare) {
  const MemoryHierarchy hw = XeonFixture().Detect();
  ASSERT_EQ(hw.caches.size(), 3u);  // the instruction cache is skipped
  EXPECT_EQ(hw.l1().capacity_bytes, 48u * 1024);
  EXPECT_EQ(hw.caches[0].shared_cpus, 1u);
  EXPECT_EQ(hw.caches[1].shared_cpus, 1u);
  EXPECT_EQ(hw.caches[2].shared_cpus, 4u);
  EXPECT_EQ(hw.target_cache().name, "L2");
  EXPECT_EQ(hw.target_cache().capacity_bytes, 2048u * 1024);
  EXPECT_EQ(hw.llc().name, "L3");
  EXPECT_EQ(hw.llc_share_bytes(), size_t{107520} * 1024 / 4);  // 26.25 MiB
  EXPECT_EQ(hw.CacheSummary(),
            "L1 48KB x1 | L2 2048KB x1 [target] | "
            "L3 107520KB x4 [llc share 26880KB]");
  const std::string text = hw.ToString();
  EXPECT_NE(text.find("L2: 2048KB, 64B lines, 30ns miss, private [target]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("shared by 4 CPUs [llc share 26880KB]"),
            std::string::npos)
      << text;
}

TEST(DetectTest, CommaSeparatedCpuListCountsEachCpu) {
  SysfsFixture fx("list", {{"Data", 1, "32K", "0"},
                           {"Unified", 2, "1024K", "0"},
                           {"Unified", 3, "8192K", "0,2"}});
  const MemoryHierarchy hw = fx.Detect();
  ASSERT_EQ(hw.caches.size(), 3u);
  EXPECT_EQ(hw.llc().shared_cpus, 2u);
  EXPECT_EQ(hw.llc_share_bytes(), 4096u * 1024);
  EXPECT_EQ(hw.target_cache().name, "L2");
}

TEST(DetectTest, MissingCpuListCountsAsPrivate) {
  SysfsFixture fx("missing", {{"Data", 1, "32K", ""},
                              {"Unified", 2, "1024K", ""},
                              {"Unified", 3, "8192K", ""}});
  const MemoryHierarchy hw = fx.Detect();
  ASSERT_EQ(hw.caches.size(), 3u);
  for (const CacheLevel& c : hw.caches) EXPECT_EQ(c.shared_cpus, 1u);
  // Every level is private: the largest one beyond L1 is the target.
  EXPECT_EQ(hw.target_cache().name, "L3");
  EXPECT_EQ(hw.llc_share_bytes(), 8192u * 1024);
}

TEST(DetectTest, NoPrivateLevelBeyondL1FallsBackToTheLastLevel) {
  SysfsFixture fx("shared", {{"Data", 1, "32K", "0"},
                             {"Unified", 2, "4096K", "0-1"},
                             {"Unified", 3, "32768K", "0-7"}});
  const MemoryHierarchy hw = fx.Detect();
  ASSERT_EQ(hw.caches.size(), 3u);
  EXPECT_EQ(hw.target_cache().name, "L3");
  EXPECT_EQ(hw.llc_share_bytes(), 4096u * 1024);
}

TEST(DetectTest, MissingSysfsKeepsTheGenericGeometry) {
  const MemoryHierarchy hw =
      MemoryHierarchy::Detect("/nonexistent/radix/sysfs/cpu");
  const MemoryHierarchy generic = MemoryHierarchy::GenericModern();
  ASSERT_EQ(hw.caches.size(), generic.caches.size());
  EXPECT_EQ(hw.target_cache().capacity_bytes,
            generic.target_cache().capacity_bytes);
}

TEST(DetectTest, PartitioningAndPlansFollowThePrivateL2) {
  const MemoryHierarchy hw = XeonFixture().Detect();
  // 2^22 8-byte tuples: a cluster + hash table (3x) fits 2 MiB at 64
  // clusters; the shared 105 MiB L3 would have asked for none.
  EXPECT_EQ(cluster::PartitionedJoinBits(size_t{1} << 22, 8, hw), 6u);
  // 2^22: the 16 MiB left column exceeds the L2 (cluster it), the right
  // one fits this core's 26.25 MiB LLC share (gather it unsorted).
  EXPECT_EQ(project::PlanDsmPost(size_t{1} << 22, size_t{1} << 22, 4,
                                 hw)
                .code,
            "c/u");
  EXPECT_EQ(project::PlanDsmPost(size_t{1} << 16, size_t{1} << 16, 4,
                                 hw)
                .code,
            "u/u");
  // 2^24: 64 MiB columns exceed the share too — the paper's c/d.
  EXPECT_EQ(project::PlanDsmPost(size_t{1} << 24, size_t{1} << 24, 4,
                                 hw)
                .code,
            "c/d");
}

TEST(MemoryHierarchyTest, PresetsArePrivateTwoLevelHierarchies) {
  for (const MemoryHierarchy& hw :
       {MemoryHierarchy::Pentium4(), MemoryHierarchy::GenericModern()}) {
    ASSERT_EQ(hw.caches.size(), 2u);
    EXPECT_EQ(hw.caches[0].shared_cpus, 1u);
    EXPECT_EQ(hw.caches[1].shared_cpus, 1u);
    EXPECT_EQ(&hw.target_cache(), &hw.caches.back());
    EXPECT_EQ(&hw.llc(), &hw.caches.back());
    EXPECT_EQ(hw.llc_share_bytes(), hw.target_cache().capacity_bytes);
  }
  EXPECT_EQ(MemoryHierarchy::GenericModern().l1().capacity_bytes, 32u * 1024);
  EXPECT_EQ(MemoryHierarchy::GenericModern().target_cache().capacity_bytes,
            1024u * 1024);
  EXPECT_EQ(MemoryHierarchy::Pentium4().CacheSummary(),
            "L1 16KB x1 | L2 512KB x1 [target]");
}

TEST(MemoryHierarchyTest, Pentium4MatchesPaperSection4) {
  MemoryHierarchy hw = MemoryHierarchy::Pentium4();
  ASSERT_EQ(hw.caches.size(), 2u);
  EXPECT_EQ(hw.l1().capacity_bytes, 16u * 1024);
  EXPECT_EQ(hw.l1().line_bytes, 32u);
  EXPECT_EQ(hw.target_cache().capacity_bytes, 512u * 1024);
  EXPECT_EQ(hw.target_cache().line_bytes, 128u);
  EXPECT_DOUBLE_EQ(hw.target_cache().miss_latency_ns, 178.0);  // quoted RAM latency
  EXPECT_EQ(hw.tlb.entries, 64u);
  EXPECT_DOUBLE_EQ(hw.ram_seq_bandwidth_gbs, 3.2);  // STREAM figure in §1.1
}

TEST(MemoryHierarchyTest, SequentialVsRandomGapIsLarge) {
  // §1.1: sequential access ~10x faster than "optimal" random access
  // (3.2GB/s vs 360MB/s). Check the descriptor reproduces that ratio.
  MemoryHierarchy hw = MemoryHierarchy::Pentium4();
  double random_mbs = hw.target_cache().line_bytes /
                      (hw.target_cache().miss_latency_ns * 1e-9) / 1e6;
  EXPECT_NEAR(random_mbs, 719.0, 1.0);  // 128B / 178ns
  // With the paper's 64B-per-line accounting: 64/178ns = 360MB/s.
  EXPECT_NEAR(64 / (178e-9) / 1e6, 360, 1.0);
  EXPECT_GT(hw.ram_seq_bandwidth_gbs * 1000 / 360, 8.0);
}

TEST(MemoryHierarchyTest, DetectReturnsUsableGeometry) {
  MemoryHierarchy hw = MemoryHierarchy::Detect();
  ASSERT_GE(hw.caches.size(), 2u);
  EXPECT_GT(hw.l1().capacity_bytes, 0u);
  EXPECT_GT(hw.l1().line_bytes, 0u);
  EXPECT_GT(hw.target_cache().capacity_bytes, hw.l1().capacity_bytes / 2);
  EXPECT_GT(hw.tlb.page_bytes, 0u);
  EXPECT_FALSE(hw.ToString().empty());
}

TEST(CalibratorTest, ChaseLatencyGrowsWithWorkingSet) {
  Calibrator::Options opts;
  opts.accesses_per_point = 1 << 18;  // keep the test fast
  opts.max_working_set_bytes = 16 << 20;
  Calibrator cal(opts);
  double small = cal.MeasureChaseLatency(8 * 1024);
  double large = cal.MeasureChaseLatency(16 << 20);
  // Out-of-cache chases must be substantially slower than in-L1 chases.
  EXPECT_GT(large, small * 3) << "small=" << small << " large=" << large;
}

TEST(CalibratorTest, SequentialBandwidthIsPositive) {
  Calibrator::Options opts;
  opts.max_working_set_bytes = 8 << 20;
  Calibrator cal(opts);
  double gbs = cal.MeasureSequentialBandwidthGbs();
  EXPECT_GT(gbs, 0.5);
  EXPECT_LT(gbs, 1000.0);
}

TEST(CalibratorTest, KernelSpeedsAreSane) {
  Calibrator cal;
  Calibrator::KernelSpeeds speeds = cal.MeasureKernelSpeeds();
  // Cache-resident per-tuple costs: positive, and nowhere near DRAM
  // latency (a value that large would mean the measurement escaped cache
  // or the dispatched kernel is broken).
  EXPECT_GT(speeds.gather_ns_per_tuple, 0.0);
  EXPECT_LT(speeds.gather_ns_per_tuple, 100.0);
  EXPECT_GT(speeds.cluster_ns_per_tuple, 0.0);
  EXPECT_LT(speeds.cluster_ns_per_tuple, 100.0);
}

}  // namespace
}  // namespace radix::hardware
