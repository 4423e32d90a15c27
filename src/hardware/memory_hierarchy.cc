#include "hardware/memory_hierarchy.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace radix::hardware {

const CacheLevel& MemoryHierarchy::target_cache() const {
  const CacheLevel* target = nullptr;
  for (size_t i = 1; i < caches.size(); ++i) {
    const CacheLevel& c = caches[i];
    if (c.shared_cpus <= 1 &&
        (target == nullptr || c.capacity_bytes > target->capacity_bytes)) {
      target = &c;
    }
  }
  return target != nullptr ? *target : caches.back();
}

namespace {

/// " [target]" / " [llc share NKB]" markers for level `c` of `h`.
std::string LevelMarks(const MemoryHierarchy& h, const CacheLevel& c) {
  std::string marks;
  if (&c == &h.target_cache()) marks += " [target]";
  if (&c == &h.llc() && c.shared_cpus > 1) {
    marks += " [llc share ";
    marks += std::to_string(h.llc_share_bytes() / 1024);
    marks += "KB]";
  }
  return marks;
}

}  // namespace

std::string MemoryHierarchy::CacheSummary() const {
  std::string s;
  for (const CacheLevel& c : caches) {
    if (!s.empty()) s += " | ";
    s += c.name;
    s += " ";
    s += std::to_string(c.capacity_bytes / 1024);
    s += "KB x";
    s += std::to_string(c.shared_cpus);
    s += LevelMarks(*this, c);
  }
  return s;
}

std::string MemoryHierarchy::ToString() const {
  std::ostringstream os;
  for (const CacheLevel& c : caches) {
    os << c.name << ": " << c.capacity_bytes / 1024 << "KB, "
       << c.line_bytes << "B lines, " << c.miss_latency_ns << "ns miss, "
       << (c.shared_cpus > 1 ? "shared by " + std::to_string(c.shared_cpus) +
                                   " CPUs"
                             : std::string("private"))
       << LevelMarks(*this, c) << "\n";
  }
  os << "TLB: " << tlb.entries << " entries x " << tlb.page_bytes
     << "B pages, " << tlb.miss_latency_ns << "ns miss\n";
  os << "RAM seq bandwidth: " << ram_seq_bandwidth_gbs << " GB/s\n";
  return os.str();
}

MemoryHierarchy MemoryHierarchy::Pentium4() {
  MemoryHierarchy h;
  double ns_per_cycle = 1.0 / 2.2;  // 2.2 GHz
  h.cpu_ghz = 2.2;
  h.caches.push_back(
      {"L1", 16 * 1024, 32, 8, 28 * ns_per_cycle});
  h.caches.push_back({"L2", 512 * 1024, 128, 8, 178.0});
  h.tlb = {64, 4096, 0, 50 * ns_per_cycle};
  h.ram_seq_bandwidth_gbs = 3.2;  // STREAM number quoted in the paper
  return h;
}

MemoryHierarchy MemoryHierarchy::GenericModern() {
  MemoryHierarchy h;
  h.cpu_ghz = 3.0;
  h.caches.push_back({"L1", 32 * 1024, 64, 8, 4.0});
  h.caches.push_back({"L2", 1024 * 1024, 64, 16, 80.0});
  h.tlb = {64, 4096, 4, 20.0};
  h.ram_seq_bandwidth_gbs = 12.0;
  return h;
}

namespace {

// Read a sysfs cache attribute like "32K" or "1024"; returns 0 on failure.
size_t ReadSysfsSize(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::string s;
  in >> s;
  if (s.empty()) return 0;
  size_t mult = 1;
  char suffix = s.back();
  if (suffix == 'K' || suffix == 'k') {
    mult = 1024;
    s.pop_back();
  } else if (suffix == 'M' || suffix == 'm') {
    mult = 1024 * 1024;
    s.pop_back();
  }
  return static_cast<size_t>(std::strtoull(s.c_str(), nullptr, 10)) * mult;
}

uint64_t ReadSysfsUint(const std::string& path) {
  std::ifstream in(path);
  uint64_t v = 0;
  in >> v;
  return v;
}

// Count the CPUs in a sysfs cpu list like "0-3", "0,2" or "0-1,4-5".
// A missing or unreadable list counts as 1 (private).
uint32_t ReadSysfsCpuCount(const std::string& path) {
  std::ifstream in(path);
  std::string list;
  if (!(in >> list)) return 1;
  uint32_t count = 0;
  std::istringstream ranges(list);
  std::string range;
  while (std::getline(ranges, range, ',')) {
    if (range.empty()) continue;
    const size_t dash = range.find('-');
    const unsigned long lo = std::strtoul(range.c_str(), nullptr, 10);
    const unsigned long hi =
        dash == std::string::npos
            ? lo
            : std::strtoul(range.c_str() + dash + 1, nullptr, 10);
    if (hi >= lo) count += static_cast<uint32_t>(hi - lo + 1);
  }
  return std::max<uint32_t>(1, count);
}

}  // namespace

MemoryHierarchy MemoryHierarchy::Detect(const std::string& sysfs_cpu_dir) {
  MemoryHierarchy h = GenericModern();
  // Probe sysfs for cpu0's data/unified caches. Keep generic latencies: the
  // Calibrator measures those; sysfs only knows geometry.
  std::vector<CacheLevel> found;
  for (int index = 0; index < 8; ++index) {
    std::string base =
        sysfs_cpu_dir + "/cpu0/cache/index" + std::to_string(index);
    std::ifstream type_in(base + "/type");
    if (!type_in) break;
    std::string type;
    type_in >> type;
    if (type == "Instruction") continue;
    CacheLevel level;
    uint64_t level_no = ReadSysfsUint(base + "/level");
    // Build via a local + move: assigning char literals into the existing
    // string trips GCC 12's -Wrestrict false positive (GCC bug 105651).
    std::string name("L");
    name += std::to_string(level_no);
    level.name = std::move(name);
    level.capacity_bytes = ReadSysfsSize(base + "/size");
    level.line_bytes = ReadSysfsUint(base + "/coherency_line_size");
    level.associativity =
        static_cast<uint32_t>(ReadSysfsUint(base + "/ways_of_associativity"));
    if (level.capacity_bytes == 0 || level.line_bytes == 0) continue;
    // Latency heuristics by level (calibrator refines these).
    level.miss_latency_ns = level_no == 1 ? 4.0 : (level_no == 2 ? 30.0 : 90.0);
    level.shared_cpus = ReadSysfsCpuCount(base + "/shared_cpu_list");
    found.push_back(level);
  }
  if (!found.empty()) {
    // sysfs lists the levels innermost first: l1() is the front, llc()
    // the back, and target_cache() picks among them by sharing.
    h.caches = std::move(found);
  }
  long page = sysconf(_SC_PAGESIZE);
  if (page > 0) h.tlb.page_bytes = static_cast<size_t>(page);
  return h;
}

}  // namespace radix::hardware
