#ifndef RADIX_DECLUSTER_RADIX_DECLUSTER_H_
#define RADIX_DECLUSTER_RADIX_DECLUSTER_H_

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <vector>

#include "cluster/radix_cluster.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/types.h"
#include "simcache/mem_tracer.h"

namespace radix::decluster {

/// Mutable per-cluster cursor state for the window merge; initialized from
/// radix_count borders (paper Fig. 4/6).
struct ClusterCursor {
  uint64_t start;  ///< next unread element of this cluster
  uint64_t end;    ///< one past the cluster's last element
};

/// Build the cursor array from cluster borders (dropping empty clusters,
/// which the merge loop would otherwise delete on first touch).
std::vector<ClusterCursor> MakeCursors(const cluster::ClusterBorders& borders);

/// Debug-build verification of the §3.2 preconditions the window merge
/// relies on: within every cluster the ids ascend strictly, and across all
/// clusters they form a dense permutation of [0, result_size). A miswired
/// caller (ids not actually radix-clustered, cursors not covering the
/// array, duplicate result positions) would otherwise produce silently
/// wrong results; this turns it into a RADIX_CHECK failure. O(n), so it is
/// compiled out of NDEBUG builds.
void AssertDeclusterPreconditions(std::span<const oid_t> ids,
                                  const std::vector<ClusterCursor>& clusters,
                                  size_t result_size);

namespace detail {

/// The window-merge core (paper Fig. 6), shared by the serial kernel and by
/// each range of the parallel kernel: drain `clusters` (all of whose ids
/// must be < the last window limit reached) into `out`, advancing the
/// window from `first_limit` in steps of `window_elems`. Exhausted clusters
/// are deleted by swapping in the last cluster.
template <typename T, typename Tracer>
void DeclusterMergeRange(const T* v, const oid_t* id, ClusterCursor* cl,
                         size_t nclusters, size_t window_elems,
                         uint64_t first_limit, T* out, Tracer* tracer) {
  for (uint64_t window_limit = first_limit; nclusters > 0;
       window_limit += window_elems) {
    for (size_t i = 0; i < nclusters; ++i) {
      // Repeated sequential scan over the (small, cacheable) cursor array.
      if constexpr (Tracer::kEnabled) tracer->Touch(&cl[i], sizeof(ClusterCursor));
      while (true) {
        uint64_t pos = cl[i].start;
        if constexpr (Tracer::kEnabled) tracer->Touch(&id[pos], sizeof(oid_t));
        if (id[pos] >= window_limit) break;  // rest of cluster outside window
        if constexpr (Tracer::kEnabled) {
          tracer->Touch(&v[pos], sizeof(T));
          tracer->Touch(&out[id[pos]], sizeof(T));
        }
        out[id[pos]] = v[pos];
        if (++cl[i].start >= cl[i].end) {
          // Delete the exhausted cluster and keep draining the one swapped
          // into slot i (exactly as in paper Fig. 6).
          cl[i] = cl[--nclusters];
          if (i >= nclusters) break;
        }
      }
      if (i >= nclusters) break;
    }
  }
}

/// The part of cluster `c` whose ids fall in the result range
/// [range_begin, range_end) of a result of `n` rows: two binary searches,
/// since ids ascend within a cluster (§3.2 property (2)). start == end when
/// the cluster has no id in the range.
inline ClusterCursor SeekRange(const oid_t* id, const ClusterCursor& c,
                               uint64_t range_begin, uint64_t range_end,
                               uint64_t n) {
  const oid_t* lo = id + c.start;
  const oid_t* hi = id + c.end;
  const oid_t* first =
      range_begin == 0
          ? lo
          : std::lower_bound(lo, hi, static_cast<oid_t>(range_begin));
  const oid_t* last =
      range_end >= n
          ? hi
          : std::lower_bound(first, hi, static_cast<oid_t>(range_end));
  return {static_cast<uint64_t>(first - id), static_cast<uint64_t>(last - id)};
}

}  // namespace detail

/// Radix-Decluster (paper §3.2, pseudo-code in Fig. 6) — the paper's main
/// contribution.
///
/// Inputs: `values[i]` must end up at `result[ids[i]]`, where `ids` is a
/// permutation of [0, n) that has been radix-CLUSTERED on its upper bits
/// (so within each cluster ids are ascending, and across the whole array
/// they form a dense sequence — properties (1) and (2) of §3.2). Debug
/// builds verify both properties (AssertDeclusterPreconditions).
///
/// The merge restricts the random insertion pattern to a window of
/// `window_elems` result slots: each sweep visits every live cluster and
/// consumes its prefix of ids below the window limit (sequential reads of
/// values/ids), scattering into the window (cacheable random writes);
/// exhausted clusters are deleted by swapping in the last cluster. After a
/// sweep the window is full (density), so the limit advances.
///
/// CPU cost O(n + #windows * #clusters); memory cost sequential except for
/// the in-cache window — the best of merge-sort and direct insertion.
template <typename T, typename Tracer = simcache::NoTracer>
void RadixDecluster(std::span<const T> values, std::span<const oid_t> ids,
                    std::vector<ClusterCursor> clusters, size_t window_elems,
                    std::span<T> result, Tracer* tracer = nullptr) {
  RADIX_CHECK(values.size() == ids.size());
  RADIX_CHECK(result.size() == ids.size());
  RADIX_CHECK(window_elems > 0);
#ifndef NDEBUG
  AssertDeclusterPreconditions(ids, clusters, result.size());
#endif
  detail::DeclusterMergeRange(values.data(), ids.data(), clusters.data(),
                              clusters.size(), window_elems,
                              /*first_limit=*/window_elems, result.data(),
                              tracer);
}

/// Convenience overload: cursors from borders, result allocated by caller.
template <typename T, typename Tracer = simcache::NoTracer>
void RadixDecluster(std::span<const T> values, std::span<const oid_t> ids,
                    const cluster::ClusterBorders& borders,
                    size_t window_elems, std::span<T> result,
                    Tracer* tracer = nullptr) {
  RadixDecluster(values, ids, MakeCursors(borders), window_elems, result,
                 tracer);
}

/// Parallel Radix-Decluster: partitions the *result* into disjoint ranges
/// of whole insertion windows and runs the Fig. 6 merge independently per
/// range. Each work item owns private ClusterCursor copies pre-seeked to
/// its range (a binary search per cluster — ids ascend within a cluster,
/// §3.2 property (2)), so threads read shared values/ids but write disjoint
/// result slices. Every result slot is written exactly once with the same
/// value as serially, so the output is byte-identical to RadixDecluster;
/// a size-1 pool takes the serial path outright.
template <typename T>
void RadixDeclusterParallel(std::span<const T> values,
                            std::span<const oid_t> ids,
                            const std::vector<ClusterCursor>& clusters,
                            size_t window_elems, std::span<T> result,
                            ThreadPool& pool) {
  RADIX_CHECK(values.size() == ids.size());
  RADIX_CHECK(result.size() == ids.size());
  RADIX_CHECK(window_elems > 0);
  size_t n = result.size();
  size_t windows = (n + window_elems - 1) / window_elems;
  if (pool.num_threads() <= 1 || windows <= 1) {
    RadixDecluster<T>(values, ids, clusters, window_elems, result);
    return;
  }
#ifndef NDEBUG
  AssertDeclusterPreconditions(ids, clusters, n);
#endif
  // More ranges than threads lets the work queue smooth out skew in how
  // many tuples land in each range's windows.
  size_t num_ranges = std::min(windows, pool.num_threads() * 4);
  const oid_t* id = ids.data();
  pool.ParallelFor(num_ranges, [&](size_t r) {
    uint64_t range_begin = (windows * r / num_ranges) * window_elems;
    uint64_t range_end =
        std::min<uint64_t>(n, (windows * (r + 1) / num_ranges) * window_elems);
    // Private cursors clipped to [range_begin, range_end): within each
    // cluster the ids ascend, so the clip points are binary searches.
    std::vector<ClusterCursor> local;
    local.reserve(clusters.size());
    for (const ClusterCursor& c : clusters) {
      ClusterCursor seg = detail::SeekRange(id, c, range_begin, range_end, n);
      if (seg.start != seg.end) local.push_back(seg);
    }
    simcache::NoTracer* tracer = nullptr;
    detail::DeclusterMergeRange(values.data(), id, local.data(), local.size(),
                                window_elems,
                                /*first_limit=*/range_begin + window_elems,
                                result.data(), tracer);
  });
}

/// Radix-Decluster fused with the Positional-Join that feeds it — the
/// streamed decluster side, which keeps no clustered value buffer:
/// outs[a][positions[p]] = columns[a][ids[p]] for every clustered index p.
/// `ids` are the column oids in clustered order, `positions` each one's
/// result row, `clusters` their cursors (MakeCursors); within a cluster the
/// positions ascend (§3.2 property (2)).
///
/// The result is cut into ranges of `range_rows` rows, never fewer rows
/// than there are clusters so the per-range seeks stay amortized. Each
/// column runs one ParallelFor whose grains are the ranges: a grain seeks
/// every cluster's segment of positions inside its range (SeekRange, as
/// RadixDeclusterParallel does) and drains the segments in turn. That is
/// Fig. 6's merge with the window set to the range — all writes land in
/// one cache-sized range — and each value is fetched through its clustered
/// id at the moment the merge consumes it. Every result slot is written
/// once with the value the serial two-phase gather + RadixDecluster writes,
/// so the output is byte-identical to it on any pool; a null or size-1 pool
/// runs the ranges in order on the calling thread. `busy_seconds`, when
/// non-null, accumulates the grains' summed run time (thread-seconds).
template <typename T>
void RadixDeclusterGather(const std::vector<std::span<const T>>& columns,
                          std::span<const oid_t> ids,
                          std::span<const oid_t> positions,
                          const std::vector<ClusterCursor>& clusters,
                          size_t range_rows,
                          const std::vector<std::span<T>>& outs,
                          ThreadPool* pool, double* busy_seconds = nullptr) {
  RADIX_CHECK(columns.size() == outs.size());
  RADIX_CHECK(ids.size() == positions.size());
  RADIX_CHECK(range_rows > 0);
  const size_t n = positions.size();
  for (const std::span<T>& out : outs) RADIX_CHECK(out.size() == n);
#ifndef NDEBUG
  AssertDeclusterPreconditions(positions, clusters, n);
#endif
  const size_t range = std::max(range_rows, clusters.size());
  const size_t ranges = (n + range - 1) / range;
  const oid_t* id = ids.data();
  const oid_t* pos = positions.data();
  std::atomic<uint64_t> busy_nanos{0};
  pool = KernelPool(pool);
  for (size_t a = 0; a < columns.size(); ++a) {
    const T* column = columns[a].data();
    T* out = outs[a].data();
    auto drain = [&](size_t r) {
      Timer timer;
      const uint64_t begin = uint64_t{r} * range;
      const uint64_t end = std::min<uint64_t>(n, begin + range);
      for (const ClusterCursor& c : clusters) {
        const ClusterCursor seg = detail::SeekRange(pos, c, begin, end, n);
        for (uint64_t p = seg.start; p < seg.end; ++p) {
          out[pos[p]] = column[id[p]];
        }
      }
      busy_nanos.fetch_add(timer.ElapsedNanos(), std::memory_order_relaxed);
    };
    if (pool == nullptr) {
      for (size_t r = 0; r < ranges; ++r) drain(r);
    } else {
      pool->ParallelFor(ranges, drain);
    }
  }
  if (busy_seconds != nullptr) *busy_seconds += 1e-9 * busy_nanos.load();
}

/// Byte-oriented Radix-Decluster for fixed-width rows of `row_bytes` each
/// (the NSM post-projection path, where one "value" is a π-attribute
/// record). Scalability degrades with row width as O(C^2 / T^2) — the
/// effect the paper uses to explain why Radix-Decluster favours DSM.
template <typename Tracer = simcache::NoTracer>
void RadixDeclusterRows(const uint8_t* values, size_t row_bytes,
                        std::span<const oid_t> ids,
                        std::vector<ClusterCursor> clusters,
                        size_t window_elems, uint8_t* result,
                        Tracer* tracer = nullptr) {
  RADIX_CHECK(window_elems > 0);
#ifndef NDEBUG
  AssertDeclusterPreconditions(ids, clusters, ids.size());
#endif
  const oid_t* id = ids.data();
  size_t nclusters = clusters.size();
  ClusterCursor* cl = clusters.data();

  for (uint64_t window_limit = window_elems; nclusters > 0;
       window_limit += window_elems) {
    for (size_t i = 0; i < nclusters; ++i) {
      if constexpr (Tracer::kEnabled) tracer->Touch(&cl[i], sizeof(ClusterCursor));
      while (true) {
        uint64_t pos = cl[i].start;
        if constexpr (Tracer::kEnabled) tracer->Touch(&id[pos], sizeof(oid_t));
        if (id[pos] >= window_limit) break;
        if constexpr (Tracer::kEnabled) {
          tracer->Touch(values + pos * row_bytes, row_bytes);
          tracer->Touch(result + size_t{id[pos]} * row_bytes, row_bytes);
        }
        std::memcpy(result + size_t{id[pos]} * row_bytes,
                    values + pos * row_bytes, row_bytes);
        if (++cl[i].start >= cl[i].end) {
          cl[i] = cl[--nclusters];
          if (i >= nclusters) break;
        }
      }
      if (i >= nclusters) break;
    }
  }
}

}  // namespace radix::decluster

#endif  // RADIX_DECLUSTER_RADIX_DECLUSTER_H_
