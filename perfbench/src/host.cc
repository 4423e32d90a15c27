#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/aligned_buffer.h"
#include "common/cpu_dispatch.h"

namespace perfbench {

namespace {

std::string ReadTrimmed(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Every cache level of cpu0 as sysfs describes it: level, type, size and
/// the CPUs sharing it (a level shared by more than one CPU is not private).
std::string CachesJson() {
  std::string out = "[";
  for (int i = 0;; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    const std::string level = ReadTrimmed(dir + "level");
    if (level.empty()) break;
    const std::string shared = ReadTrimmed(dir + "shared_cpu_list");
    if (i > 0) out += ", ";
    out += JsonObject()
               .Str("level", level)
               .Str("type", ReadTrimmed(dir + "type"))
               .Str("size", ReadTrimmed(dir + "size"))
               .Str("shared_cpu_list", shared)
               .Bool("shared", shared.find_first_of(",-") != std::string::npos)
               .str();
  }
  return out + "]";
}

const char* HugePageModeName() {
  switch (radix::ActiveHugePagePolicy()) {
    case radix::HugePagePolicy::kOff: return "off";
    case radix::HugePagePolicy::kAuto: return "auto";
    case radix::HugePagePolicy::kHugetlb: return "hugetlb";
  }
  return "unknown";
}

/// Opens (and closes) a CPU-cycles counter: the PMU exists iff it opens.
std::string PmuProbe() {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = PERF_COUNT_HW_CPU_CYCLES;
  attr.disabled = 1;
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  long fd = syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0);
  if (fd >= 0) {
    close(static_cast<int>(fd));
    return "available";
  }
  return std::string("unavailable: ") + std::strerror(errno);
}

}  // namespace

std::string HostFingerprintJson() {
  const std::string thp =
      ReadTrimmed("/sys/kernel/mm/transparent_hugepage/enabled");
  return JsonObject()
      .Str("cpu_model", CpuModel())
      .Num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Raw("caches", CachesJson())
      .Str("isa", radix::cpu::IsaName(radix::cpu::ActiveIsa()))
      .Str("huge_pages", HugePageModeName())
      .Str("transparent_hugepage", thp.empty() ? "unknown" : thp)
      .Str("pmu", PmuProbe())
      .str();
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
