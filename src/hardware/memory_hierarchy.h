#ifndef RADIX_HARDWARE_MEMORY_HIERARCHY_H_
#define RADIX_HARDWARE_MEMORY_HIERARCHY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace radix::hardware {

/// One level of the cache hierarchy. The access-pattern cost model
/// (Appendix A of the paper / [MBK02]) is parameterized exclusively by
/// these values, which is what makes it hardware-independent.
struct CacheLevel {
  std::string name;           ///< "L1", "L2", ...
  size_t capacity_bytes = 0;  ///< total capacity C
  size_t line_bytes = 0;      ///< cache line (block) size
  uint32_t associativity = 0; ///< ways; 0 means fully associative
  double miss_latency_ns = 0; ///< cost of a miss at this level
  /// CPUs sharing this cache (sysfs shared_cpu_list); 1 = private to a core.
  uint32_t shared_cpus = 1;

  size_t num_lines() const { return capacity_bytes / line_bytes; }
};

/// Translation look-aside buffer. Modeled as a cache whose "line" is a
/// memory page; the paper's P4 has 64 entries with a 50-cycle miss.
struct TlbLevel {
  uint32_t entries = 0;
  size_t page_bytes = 4096;
  uint32_t associativity = 0;  ///< 0 = fully associative
  double miss_latency_ns = 0;

  /// Memory span covered by the TLB ("capacity" in cost-model terms).
  size_t capacity_bytes() const { return size_t{entries} * page_bytes; }
};

/// A full description of the memory hierarchy, from registers down to RAM.
/// Obtained either from a preset (below) or from the runtime Calibrator.
struct MemoryHierarchy {
  std::vector<CacheLevel> caches;  ///< ordered L1 first
  TlbLevel tlb;
  double ram_seq_bandwidth_gbs = 0;  ///< sequential (STREAM-like) GB/s
  double cpu_ghz = 0;

  /// The cache level that the radix algorithms target ("the cache size C"
  /// in the paper, §2.2/§3.1): the largest level beyond L1 that is private
  /// to one core, because a partition pass works in the cache its core
  /// owns. On the paper's Pentium 4 that is the 512KB L2, which is also
  /// the last level. When no level beyond L1 is private, the last level.
  const CacheLevel& target_cache() const;
  const CacheLevel& l1() const { return caches.front(); }
  /// The last-level cache, possibly shared between cores.
  const CacheLevel& llc() const { return caches.back(); }
  /// One core's share of the last level: what a gather can count on
  /// hitting when every core gathers at once.
  size_t llc_share_bytes() const {
    return llc().capacity_bytes / std::max<uint32_t>(1, llc().shared_cpus);
  }

  /// One line per level (with its sharing and the partition target / LLC
  /// share marked), then the TLB and RAM bandwidth.
  std::string ToString() const;
  /// The cache levels on one line, e.g.
  /// "L1 48KB x1 | L2 2048KB x1 [target] | L3 107520KB x4 [llc share 26880KB]".
  std::string CacheSummary() const;

  /// The machine of the paper's evaluation (Section 4): 2.2GHz Pentium 4,
  /// 16KB L1 (32B lines, 28-cycle miss), 512KB L2 (128B lines, 350-cycle
  /// miss / 178ns RAM latency), 64-entry TLB (50-cycle miss), PC800 RDRAM.
  static MemoryHierarchy Pentium4();

  /// A generic contemporary x86 configuration (used as the default when the
  /// calibrator is not run): 32KB L1 / 1MB L2-slice with 64B lines, 64-entry
  /// L1 TLB, DDR latencies.
  static MemoryHierarchy GenericModern();

  /// Detect from the running machine via sysconf/sysfs, falling back to
  /// GenericModern() values for anything unavailable. Keeps every data or
  /// unified level of cpu0 with the number of CPUs sharing it, read from
  /// `sysfs_cpu_dir`/cpu0/cache/index<N>/{type,level,size,...}.
  static MemoryHierarchy Detect(
      const std::string& sysfs_cpu_dir = "/sys/devices/system/cpu");
};

}  // namespace radix::hardware

#endif  // RADIX_HARDWARE_MEMORY_HIERARCHY_H_
