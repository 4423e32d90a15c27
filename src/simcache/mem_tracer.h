#ifndef RADIX_SIMCACHE_MEM_TRACER_H_
#define RADIX_SIMCACHE_MEM_TRACER_H_

#include <cstdint>
#include <string>

#include "hardware/memory_hierarchy.h"
#include "simcache/cache_sim.h"
#include "simcache/tlb_sim.h"

namespace radix::simcache {

/// Miss counts observed by a tracer; what the paper reads from hardware
/// performance counters in Fig. 7a.
struct MemCounters {
  uint64_t accesses = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;
  uint64_t tlb_misses = 0;

  std::string ToString() const;
};

/// Tracer policy used in production builds: all hooks compile to nothing,
/// so traced kernels instantiated with NoTracer are exactly the untraced
/// kernels.
struct NoTracer {
  void Touch(const void* /*addr*/, size_t /*bytes*/) {}
  static constexpr bool kEnabled = false;
};

/// Tracer that models an inclusive L1/L2/TLB hierarchy, its "L2" being the
/// hierarchy's target_cache() — the cache the cost model's second level
/// and every partitioning decision mean, not a shared last level beyond
/// it. Kernels call Touch(addr, bytes) for every load/store; multi-line
/// accesses are split into per-line probes (hardware would fetch each line
/// once).
class MemTracer {
 public:
  static constexpr bool kEnabled = true;

  explicit MemTracer(const hardware::MemoryHierarchy& hierarchy);

  void Touch(const void* addr, size_t bytes);

  MemCounters counters() const;
  void Reset();

 private:
  CacheSim l1_;
  CacheSim l2_;
  TlbSim tlb_;
};

}  // namespace radix::simcache

#endif  // RADIX_SIMCACHE_MEM_TRACER_H_
