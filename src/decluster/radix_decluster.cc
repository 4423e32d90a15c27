#include "decluster/radix_decluster.h"

namespace radix::decluster {

std::vector<ClusterCursor> MakeCursors(
    const cluster::ClusterBorders& borders) {
  std::vector<ClusterCursor> cursors;
  cursors.reserve(borders.num_clusters());
  for (size_t k = 0; k < borders.num_clusters(); ++k) {
    if (borders.size(k) == 0) continue;  // empty clusters never participate
    cursors.push_back({borders.start(k), borders.end(k)});
  }
  return cursors;
}

void AssertDeclusterPreconditions(std::span<const oid_t> ids,
                                  const std::vector<ClusterCursor>& clusters,
                                  size_t result_size) {
  std::vector<bool> seen(result_size, false);
  size_t covered = 0;
  for (const ClusterCursor& c : clusters) {
    RADIX_CHECK(c.start < c.end);         // empty cursors must be dropped
    RADIX_CHECK(c.end <= ids.size());     // cursor range inside the array
    oid_t prev = 0;
    for (uint64_t pos = c.start; pos < c.end; ++pos) {
      oid_t id = ids[pos];
      RADIX_CHECK(id < result_size);          // id addresses the result
      RADIX_CHECK(pos == c.start || id > prev);  // ascending within cluster
      RADIX_CHECK(!seen[id]);                 // no duplicate result position
      seen[id] = true;
      prev = id;
      ++covered;
    }
  }
  // Dense: the cursors cover every id exactly once and every result slot
  // receives a value.
  RADIX_CHECK(covered == result_size);
}

// Pin the hot instantiations.
template void RadixDecluster<value_t, simcache::NoTracer>(
    std::span<const value_t>, std::span<const oid_t>,
    std::vector<ClusterCursor>, size_t, std::span<value_t>,
    simcache::NoTracer*);
template void RadixDecluster<value_t, simcache::MemTracer>(
    std::span<const value_t>, std::span<const oid_t>,
    std::vector<ClusterCursor>, size_t, std::span<value_t>,
    simcache::MemTracer*);
template void RadixDeclusterParallel<value_t>(
    std::span<const value_t>, std::span<const oid_t>,
    const std::vector<ClusterCursor>&, size_t, std::span<value_t>,
    ThreadPool&);
template void RadixDeclusterGather<value_t>(
    const std::vector<std::span<const value_t>>&, std::span<const oid_t>,
    std::span<const oid_t>, const std::vector<ClusterCursor>&, size_t,
    const std::vector<std::span<value_t>>&, ThreadPool*, double*);

}  // namespace radix::decluster
