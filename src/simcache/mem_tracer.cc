#include "simcache/mem_tracer.h"

#include <sstream>

#include "common/macros.h"

namespace radix::simcache {

std::string MemCounters::ToString() const {
  std::ostringstream os;
  os << "accesses=" << accesses << " L1=" << l1_misses << " L2=" << l2_misses
     << " TLB=" << tlb_misses;
  return os.str();
}

namespace {
const hardware::CacheLevel& LevelOrDie(const hardware::MemoryHierarchy& h,
                                       size_t i) {
  RADIX_CHECK(h.caches.size() >= 2);
  return h.caches[i];
}
}  // namespace

MemTracer::MemTracer(const hardware::MemoryHierarchy& hierarchy)
    : l1_(LevelOrDie(hierarchy, 0).capacity_bytes,
          static_cast<uint32_t>(LevelOrDie(hierarchy, 0).line_bytes),
          LevelOrDie(hierarchy, 0).associativity),
      l2_(hierarchy.target_cache().capacity_bytes,
          static_cast<uint32_t>(hierarchy.target_cache().line_bytes),
          hierarchy.target_cache().associativity),
      tlb_(hierarchy.tlb.entries,
           static_cast<uint32_t>(hierarchy.tlb.page_bytes),
           hierarchy.tlb.associativity) {}

void MemTracer::Touch(const void* addr, size_t bytes) {
  uint64_t a = reinterpret_cast<uint64_t>(addr);
  uint64_t end = a + (bytes == 0 ? 1 : bytes);
  uint32_t line = l1_.line_bytes();
  for (uint64_t p = a & ~uint64_t{line - 1}; p < end; p += line) {
    // Inclusive hierarchy: L2 is probed only on L1 miss, as on real
    // hardware with an inclusive L2.
    if (l1_.Access(p)) l2_.Access(p);
    tlb_.Access(p);
  }
}

MemCounters MemTracer::counters() const {
  MemCounters c;
  c.accesses = l1_.accesses();
  c.l1_misses = l1_.misses();
  c.l2_misses = l2_.misses();
  c.tlb_misses = tlb_.misses();
  return c;
}

void MemTracer::Reset() {
  l1_.Reset();
  l2_.Reset();
  tlb_.Reset();
}

}  // namespace radix::simcache
