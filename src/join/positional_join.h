#ifndef RADIX_JOIN_POSITIONAL_JOIN_H_
#define RADIX_JOIN_POSITIONAL_JOIN_H_

#include <algorithm>
#include <bit>
#include <span>
#include <type_traits>
#include <vector>

#include "cluster/radix_cluster.h"
#include "common/simd_kernels.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "simcache/mem_tracer.h"
#include "storage/varchar.h"

namespace radix::join {

namespace detail {

/// Whether the untraced gather over `source_rows` values of T can run the
/// dispatched SIMD kernel: 4-byte values only, and the source must stay
/// addressable by the sign-extended 32-bit indices hardware gathers use.
/// (Little-endian is additionally required by the pair-sided variants,
/// which reinterpret OidPair as a 64-bit word and pick a 32-bit half.)
template <typename T>
inline bool CanDispatchGather(size_t source_rows) {
  return std::is_same_v<T, value_t> && source_rows <= simd::kMaxGatherIndex;
}

inline constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

}  // namespace detail

/// Positional-Join (pointer-based join, §3): result[i] = values[ids[i]].
/// In MonetDB a column is an array, so this is the whole projection kernel;
/// its *memory behaviour* depends entirely on the order of `ids`:
///   unsorted  -> r_acc over the source column,
///   sorted    -> s_trav (oids ascending),
///   clustered -> per-cluster random access confined to a cache-sized
///                region (the "partial-cluster" strategy of §3.1).
/// The code is the same; the names exist so benchmarks/tests say which
/// input order they exercise.
template <typename T, typename Tracer = simcache::NoTracer>
void PositionalJoin(std::span<const oid_t> ids, std::span<const T> values,
                    std::span<T> out, Tracer* tracer = nullptr) {
  const oid_t* id = ids.data();
  const T* v = values.data();
  T* o = out.data();
  size_t n = ids.size();
  if constexpr (!Tracer::kEnabled && std::is_same_v<T, value_t>) {
    if (detail::CanDispatchGather<T>(values.size())) {
      simd::Kernels().gather_i32(id, n, v, o);
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if constexpr (Tracer::kEnabled) {
      tracer->Touch(&id[i], sizeof(oid_t));
      tracer->Touch(&v[id[i]], sizeof(T));
      tracer->Touch(&o[i], sizeof(T));
    }
    o[i] = v[id[i]];
  }
}

/// Positional-Join taking one side of a join index directly (avoids
/// materializing an oid column).
template <typename T, bool kLeft, typename Tracer = simcache::NoTracer>
void PositionalJoinPairs(std::span<const cluster::OidPair> index,
                         std::span<const T> values, std::span<T> out,
                         Tracer* tracer = nullptr) {
  const cluster::OidPair* p = index.data();
  const T* v = values.data();
  T* o = out.data();
  size_t n = index.size();
  if constexpr (!Tracer::kEnabled && std::is_same_v<T, value_t> &&
                detail::kLittleEndian) {
    if (detail::CanDispatchGather<T>(values.size())) {
      // OidPair is an 8-byte {left, right}; little-endian makes `left` the
      // low half of the 64-bit word.
      const auto* words = reinterpret_cast<const uint64_t*>(p);
      const simd::KernelTable& kernels = simd::Kernels();
      (kLeft ? kernels.gather_pairs_lo_i32 : kernels.gather_pairs_hi_i32)(
          words, n, v, o);
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    oid_t id = kLeft ? p[i].left : p[i].right;
    if constexpr (Tracer::kEnabled) {
      tracer->Touch(&p[i], sizeof(cluster::OidPair));
      tracer->Touch(&v[id], sizeof(T));
      tracer->Touch(&o[i], sizeof(T));
    }
    o[i] = v[id];
  }
}

/// Range-restricted Positional-Join: out[i - begin] = values[ids[i]] for
/// i in [begin, end). `out` is the chunk-local base, so a streamed gather
/// can land in a chunk buffer; passing `full_out + begin` reproduces the
/// unrestricted kernel one slice at a time. The building block of both the
/// chunked pipeline gather and the parallel per-column gather below.
template <typename T>
void PositionalJoinRange(std::span<const oid_t> ids, size_t begin, size_t end,
                         std::span<const T> values, T* out) {
  RADIX_DCHECK(begin <= end && end <= ids.size());
  const oid_t* id = ids.data();
  const T* v = values.data();
  if constexpr (std::is_same_v<T, value_t>) {
    if (detail::CanDispatchGather<T>(values.size())) {
      simd::Kernels().gather_i32(id + begin, end - begin, v, out);
      return;
    }
  }
  for (size_t i = begin; i < end; ++i) {
    out[i - begin] = v[id[i]];
  }
}

/// Range-restricted PositionalJoinPairs (same out convention as
/// PositionalJoinRange).
template <typename T, bool kLeft>
void PositionalJoinPairsRange(std::span<const cluster::OidPair> index,
                              size_t begin, size_t end,
                              std::span<const T> values, T* out) {
  RADIX_DCHECK(begin <= end && end <= index.size());
  const cluster::OidPair* p = index.data();
  const T* v = values.data();
  if constexpr (std::is_same_v<T, value_t> && detail::kLittleEndian) {
    if (detail::CanDispatchGather<T>(values.size())) {
      const auto* words = reinterpret_cast<const uint64_t*>(p + begin);
      const simd::KernelTable& kernels = simd::Kernels();
      (kLeft ? kernels.gather_pairs_lo_i32 : kernels.gather_pairs_hi_i32)(
          words, end - begin, v, out);
      return;
    }
  }
  for (size_t i = begin; i < end; ++i) {
    out[i - begin] = v[kLeft ? p[i].left : p[i].right];
  }
}

/// Varchar Positional-Join off one side of a join index (the varchar
/// analogue of PositionalJoinPairs): gathers values[id] for the chosen
/// side's oids into a fresh offsets+heap column. Like
/// storage::PositionalJoinVarchar this is an offset-array lookup plus a
/// heap dereference per tuple — a second, correlated random stream whose
/// cache behaviour scales with the average string length.
storage::VarcharColumn PositionalJoinVarcharPairs(
    std::span<const cluster::OidPair> index, bool left_side,
    const storage::VarcharColumn& values);

namespace detail {

/// Slice count for the parallel gathers: ~2 items per thread per column,
/// but never slices producing less than ~4 KiB of output — tinier items
/// would be all scheduling overhead.
template <typename T>
size_t GatherSlices(size_t n, const ThreadPool& pool) {
  size_t min_rows = std::max<size_t>(1, 4096 / sizeof(T));
  return std::clamp<size_t>(n / min_rows, 1, pool.num_threads() * 2);
}

}  // namespace detail

/// The per-column positional-join gather loop, parallelized over
/// (column x row-slice) work items (the ROADMAP follow-up from the thread
/// pool PR). Byte-identical to the serial loop: items write disjoint output
/// ranges and read shared immutable inputs, so only the write order varies.
/// A null or size-1 pool runs the exact serial loop.
template <typename T>
void PositionalJoinColumns(std::span<const oid_t> ids,
                           const std::vector<std::span<const T>>& columns,
                           const std::vector<std::span<T>>& outs,
                           ThreadPool* pool) {
  RADIX_CHECK(columns.size() == outs.size());
  size_t n = ids.size();
  if (KernelPool(pool) == nullptr || n == 0 || columns.empty()) {
    for (size_t a = 0; a < columns.size(); ++a) {
      PositionalJoin<T>(ids, columns[a], outs[a]);
    }
    return;
  }
  size_t slices = detail::GatherSlices<T>(n, *pool);
  pool->ParallelFor(columns.size() * slices, [&](size_t item) {
    size_t a = item / slices;
    size_t s = item % slices;
    size_t begin = n * s / slices;
    size_t end = n * (s + 1) / slices;
    PositionalJoinRange<T>(ids, begin, end, columns[a],
                           outs[a].data() + begin);
  });
}

/// Parallel per-column gather off a join index side; see
/// PositionalJoinColumns for the contract.
template <typename T, bool kLeft>
void PositionalJoinPairsColumns(std::span<const cluster::OidPair> index,
                                const std::vector<std::span<const T>>& columns,
                                const std::vector<std::span<T>>& outs,
                                ThreadPool* pool) {
  RADIX_CHECK(columns.size() == outs.size());
  size_t n = index.size();
  if (KernelPool(pool) == nullptr || n == 0 || columns.empty()) {
    for (size_t a = 0; a < columns.size(); ++a) {
      PositionalJoinPairs<T, kLeft>(index, columns[a], outs[a]);
    }
    return;
  }
  size_t slices = detail::GatherSlices<T>(n, *pool);
  pool->ParallelFor(columns.size() * slices, [&](size_t item) {
    size_t a = item / slices;
    size_t s = item % slices;
    size_t begin = n * s / slices;
    size_t end = n * (s + 1) / slices;
    PositionalJoinPairsRange<T, kLeft>(index, begin, end, columns[a],
                                       outs[a].data() + begin);
  });
}

}  // namespace radix::join

#endif  // RADIX_JOIN_POSITIONAL_JOIN_H_
