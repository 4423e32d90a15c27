#ifndef RADIX_CLUSTER_RADIX_CLUSTER_H_
#define RADIX_CLUSTER_RADIX_CLUSTER_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "common/bits.h"
#include "common/macros.h"
#include "common/simd_kernels.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "simcache/mem_tracer.h"
#include "storage/column.h"

namespace radix::cluster {

namespace detail {

/// The scatter half of a clustering pass: stable append of each input
/// tuple to its bucket's cursor. `insert` holds the starting cursor per
/// bucket and is consumed. For untraced 8-byte tuples inside the
/// write-combining window the stores stream past the cache
/// (simd::WcScatter64) — byte-identical output, but without the
/// read-for-ownership + eviction traffic of 2^Bp cursor lines (the §3.1
/// scatter wall). The traced path keeps the plain loop so MemTracer sees
/// the true per-tuple access stream.
template <typename T, typename RadixFn, typename Tracer>
void ScatterPass(const T* in, T* out, size_t n, RadixFn radix_of,
                 uint32_t shift, radix_bits_t pass_bits,
                 std::vector<uint64_t>& insert, Tracer& tracer) {
  const size_t buckets = size_t{1} << pass_bits;
  if constexpr (!Tracer::kEnabled && sizeof(T) == 8) {
    if (simd::UseNtScatter(buckets, n)) {
      simd::WcScatter64 wc(reinterpret_cast<uint64_t*>(out), buckets,
                           insert.data());
      for (size_t i = 0; i < n; ++i) {
        const size_t b = RadixBits(radix_of(in[i]), shift, pass_bits);
        uint64_t word;
        std::memcpy(&word, &in[i], sizeof(word));
        wc.Push(b, word);
      }
      wc.Flush();
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if constexpr (Tracer::kEnabled) tracer.Touch(&in[i], sizeof(T));
    const size_t b = RadixBits(radix_of(in[i]), shift, pass_bits);
    if constexpr (Tracer::kEnabled) tracer.Touch(&out[insert[b]], sizeof(T));
    out[insert[b]++] = in[i];
  }
}

}  // namespace detail

/// Cluster boundaries after a (partial) Radix-Cluster: cluster k occupies
/// [offsets[k], offsets[k+1]) in the clustered array. offsets.size() == H+1.
struct ClusterBorders {
  std::vector<uint64_t> offsets;

  size_t num_clusters() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  uint64_t start(size_t k) const { return offsets[k]; }
  uint64_t end(size_t k) const { return offsets[k + 1]; }
  uint64_t size(size_t k) const { return offsets[k + 1] - offsets[k]; }
  uint64_t total() const { return offsets.empty() ? 0 : offsets.back(); }
};

/// Parameters of radix_cluster(B, P, I) as used throughout the paper:
/// cluster on bits [ignore_bits, ignore_bits + total_bits) of the tuples'
/// radix value, in `passes` sequential passes, most-significant slice
/// first. ignore_bits > 0 yields the *partial* Radix-Cluster of §3.1
/// ("stop early and ignore a certain number of lower Radix-Bits").
struct ClusterSpec {
  radix_bits_t total_bits = 0;   ///< B
  radix_bits_t ignore_bits = 0;  ///< I
  uint32_t passes = 1;           ///< P

  size_t num_clusters() const { return size_t{1} << total_bits; }

  /// Split B into `passes` per-pass bit counts Bp (sum == B), largest
  /// first, as evenly as possible.
  std::vector<radix_bits_t> PassBits() const {
    std::vector<radix_bits_t> bits(passes);
    radix_bits_t base = total_bits / passes;
    radix_bits_t extra = total_bits % passes;
    for (uint32_t p = 0; p < passes; ++p) {
      bits[p] = base + (p < extra ? 1 : 0);
    }
    return bits;
  }

  /// Number of passes that actually cluster (Bp > 0); the rest are no-ops.
  /// The final result lives in the scratch buffer (and must be copied back)
  /// exactly when this is odd — the cost the model charges as
  /// s_trav ⊕ s_trav in RadixClusterCost.
  uint32_t EffectivePasses() const {
    return passes == 0 ? 0 : (total_bits < passes ? total_bits : passes);
  }

  /// The passes after the first: the bits below the first pass's slice, in
  /// one pass fewer. Its PassBits() are this spec's minus the first entry,
  /// so running the first pass and then Tail() on each resulting cluster is
  /// the whole spec. A spec that clusters nothing is its own tail.
  ClusterSpec Tail() const {
    ClusterSpec tail = *this;
    if (total_bits == 0) return tail;
    tail.total_bits = total_bits - PassBits()[0];
    tail.passes = passes - 1;
    return tail;
  }
};

/// Recoverable validation for a ClusterSpec against the radix value width
/// (radix functions return uint64_t, so the default width is 64). Rejects
/// the degenerate configurations the kernels would otherwise mislabel:
///   * passes == 0 with total_bits > 0 would return UNclustered data with
///     borders claiming 2^B clusters;
///   * total_bits + ignore_bits beyond the value width would cluster on
///     bits that do not exist (everything lands in cluster 0).
/// The kernels RADIX_CHECK this; API boundaries that want a Status instead
/// of an abort call it directly.
[[nodiscard]] Status ValidateClusterSpec(const ClusterSpec& spec,
                                         uint32_t value_bits = 64);

/// One histogram+scatter pass over [in, in+n) into `out`, clustering on
/// `pass_bits` bits of radix(v) starting at bit `shift`. `borders_out`, if
/// non-null, receives the 2^pass_bits cluster offsets *relative to out*.
///
/// This is the memory-access kernel the paper models as
///   s_trav(X) ⊙ nest({Xj}, 2^Bp, s_trav(Xj), ran):
/// a sequential read of the input concurrent with one append cursor per
/// output cluster. The cursors are what limits single-pass fan-out: beyond
/// the number of cache lines / TLB entries the pass starts thrashing (§2.1).
template <typename T, typename RadixFn, typename Tracer>
void RadixClusterPass(const T* in, T* out, size_t n, RadixFn radix_of,
                      uint32_t shift, radix_bits_t pass_bits,
                      std::vector<uint64_t>* borders_out, Tracer& tracer) {
  size_t buckets = size_t{1} << pass_bits;
  std::vector<uint64_t> histogram(buckets, 0);
  for (size_t i = 0; i < n; ++i) {
    if constexpr (Tracer::kEnabled) tracer.Touch(&in[i], sizeof(T));
    ++histogram[RadixBits(radix_of(in[i]), shift, pass_bits)];
  }
  // Exclusive prefix sum (dispatched; untraced in the original too — the
  // model charges the pass for the data streams, not the 2^Bp cursors).
  std::vector<uint64_t> cursor(buckets + 1, 0);
  simd::Kernels().prefix_sum(histogram.data(), buckets, cursor.data());
  if (borders_out != nullptr) *borders_out = cursor;
  // Scatter. Stable: append order within a cluster == scan order, the
  // property Radix-Decluster's window merge relies on.
  std::vector<uint64_t> insert(cursor.begin(), cursor.end() - 1);
  detail::ScatterPass(in, out, n, radix_of, shift, pass_bits, insert, tracer);
}

/// Multi-pass Radix-Cluster driver: clusters `data` (in place, using
/// `scratch` as the alternate buffer) per `spec`, returning the final
/// H = 2^B cluster borders. After return, the clustered data is in `data`
/// — unless `result` is non-null: then an odd number of passes leaves it in
/// `scratch` with no copy-back, and *result names the buffer that holds it.
///
/// Pass p refines every cluster produced by pass p-1 using the next
/// lower-significance slice of bits, exactly as in paper Fig. 2.
template <typename T, typename RadixFn, typename Tracer>
ClusterBorders RadixClusterMultiPass(T* data, T* scratch, size_t n,
                                     RadixFn radix_of, const ClusterSpec& spec,
                                     Tracer& tracer, T** result = nullptr) {
  RADIX_CHECK(ValidateClusterSpec(spec).ok());
  ClusterBorders borders;
  borders.offsets = {0, n};
  if (result != nullptr) *result = data;
  if (spec.total_bits == 0) return borders;

  std::vector<radix_bits_t> pass_bits = spec.PassBits();
  uint32_t bits_done = 0;
  T* src = data;
  T* dst = scratch;

  for (uint32_t p = 0; p < spec.passes; ++p) {
    radix_bits_t bp = pass_bits[p];
    if (bp == 0) continue;
    bits_done += bp;
    uint32_t shift = spec.ignore_bits + spec.total_bits - bits_done;

    std::vector<uint64_t> new_offsets;
    new_offsets.reserve((borders.num_clusters() << bp) + 1);
    new_offsets.push_back(0);
    for (size_t c = 0; c < borders.num_clusters(); ++c) {
      uint64_t begin = borders.start(c);
      uint64_t len = borders.size(c);
      std::vector<uint64_t> sub;
      RadixClusterPass(src + begin, dst + begin, len, radix_of, shift, bp,
                       &sub, tracer);
      for (size_t b = 1; b < sub.size(); ++b) {
        new_offsets.push_back(begin + sub[b]);
      }
    }
    borders.offsets = std::move(new_offsets);
    std::swap(src, dst);
  }
  if (result != nullptr) {
    *result = src;
    return borders;
  }
  if (src != data) {
    // Odd number of effective passes: the result sits in `scratch`, copy it
    // back. Trace the read/write interleaved per element — touching whole
    // buffers after the fact would misattribute the misses (the write
    // stream evicting the read stream). RadixClusterCost charges this as
    // the s_trav ⊕ s_trav copy-back term.
    if constexpr (Tracer::kEnabled) {
      for (size_t i = 0; i < n; ++i) {
        tracer.Touch(&src[i], sizeof(T));
        tracer.Touch(&data[i], sizeof(T));
        data[i] = src[i];
      }
    } else {
      std::memcpy(data, src, n * sizeof(T));
    }
  }
  return borders;
}

/// Convenience wrapper allocating its own scratch space.
template <typename T, typename RadixFn>
ClusterBorders RadixCluster(std::span<T> data, RadixFn radix_of,
                            const ClusterSpec& spec) {
  storage::Column<T> scratch(data.size());
  simcache::NoTracer tracer;
  return RadixClusterMultiPass(data.data(), scratch.data(), data.size(),
                               radix_of, spec, tracer);
}

namespace detail {

/// The schedule of a stable pass over `items` input segments taken in
/// order: histogram(s, h) counts segment s's tuples per bucket into `h`
/// (2^pass_bits zeros on entry); a bucket-major, segment-minor prefix sum
/// turns the counts into disjoint write cursors that keep scan order; then
/// scatter(s, cursors) writes segment s's tuples, advancing its cursors.
/// Segments run as work items on `pool` (nullptr: in order on the calling
/// thread). Returns the pass's 2^pass_bits + 1 borders. The output equals
/// the serial stable pass over the concatenated segments, whatever the
/// segment boundaries.
template <typename HistogramFn, typename ScatterFn>
std::vector<uint64_t> SegmentedPass(size_t items, radix_bits_t pass_bits,
                                    const HistogramFn& histogram,
                                    const ScatterFn& scatter,
                                    ThreadPool* pool) {
  const size_t buckets = size_t{1} << pass_bits;
  auto for_each_segment = [&](const std::function<void(size_t)>& body) {
    if (KernelPool(pool) != nullptr && items > 1) {
      pool->ParallelFor(items, body);
    } else {
      for (size_t s = 0; s < items; ++s) body(s);
    }
  };

  std::vector<std::vector<uint64_t>> hist(items);
  for_each_segment([&](size_t s) {
    hist[s].assign(buckets, 0);
    histogram(s, hist[s]);
  });

  // Global prefix sum over (bucket, segment); hist[s][b] becomes segment
  // s's starting write cursor for bucket b.
  std::vector<uint64_t> cursor(buckets + 1, 0);
  uint64_t run = 0;
  for (size_t b = 0; b < buckets; ++b) {
    cursor[b] = run;
    for (size_t s = 0; s < items; ++s) {
      uint64_t count = hist[s][b];
      hist[s][b] = run;
      run += count;
    }
  }
  cursor[buckets] = run;

  for_each_segment([&](size_t s) { scatter(s, hist[s]); });
  return cursor;
}

}  // namespace detail

/// One stable histogram+scatter pass over the concatenation of
/// `segments`, written to `out`, without materializing the concatenation
/// (detail::SegmentedPass). Byte-identical, with `borders_out` as in
/// RadixClusterPass, to the serial stable pass over the concatenated input.
/// Segments run as work items on `pool`; nullptr runs them in order on the
/// calling thread.
///
/// This is both the parallel pass (segments = one input slice per thread)
/// and the fused scatter of a partitioned join's per-cluster shards into
/// the first Radix-Cluster pass of the index (segments = the shards).
template <typename T, typename RadixFn>
void RadixClusterPassSegments(std::span<const std::span<const T>> segments,
                              T* out, RadixFn radix_of, uint32_t shift,
                              radix_bits_t pass_bits,
                              std::vector<uint64_t>* borders_out,
                              ThreadPool* pool) {
  std::vector<uint64_t> borders = detail::SegmentedPass(
      segments.size(), pass_bits,
      [&](size_t s, std::vector<uint64_t>& h) {
        for (const T& t : segments[s]) {
          ++h[RadixBits(radix_of(t), shift, pass_bits)];
        }
      },
      [&](size_t s, std::vector<uint64_t>& cursors) {
        // Each segment owns disjoint cursor runs; its write-combining
        // buffers only ever stream lines wholly inside its own runs
        // (partial head and tail lines go through plain coherent stores),
        // so per-item WcScatter64 instances need no synchronisation beyond
        // the pool join.
        simcache::NoTracer tracer;
        detail::ScatterPass(segments[s].data(), out, segments[s].size(),
                            radix_of, shift, pass_bits, cursors, tracer);
      },
      pool);
  if (borders_out != nullptr) *borders_out = std::move(borders);
}

/// One stable pass over tuples that exist only as a function of their row
/// — a key column plus the row number, one side of a join index plus the
/// result position: make(i) builds tuple i, and emit(at, t) stores tuple t
/// at position `at` of the clustered order, so no array of input tuples is
/// written first and the output may be split across arrays. Rows run in
/// contiguous slices on `pool` (SliceCount decides by row count). Returns
/// the 2^pass_bits + 1 borders; byte-identical to RadixClusterPass over the
/// materialized tuples.
template <typename MakeFn, typename RadixFn, typename EmitFn>
std::vector<uint64_t> RadixClusterPassRows(size_t n, const MakeFn& make,
                                           RadixFn radix_of, uint32_t shift,
                                           radix_bits_t pass_bits,
                                           const EmitFn& emit,
                                           ThreadPool* pool) {
  const size_t slices = SliceCount(pool, n);
  auto rows = [&](size_t s, auto&& body) {
    for (size_t i = n * s / slices, end = n * (s + 1) / slices; i < end; ++i) {
      body(i);
    }
  };
  return detail::SegmentedPass(
      slices, pass_bits,
      [&](size_t s, std::vector<uint64_t>& h) {
        rows(s, [&](size_t i) {
          ++h[RadixBits(radix_of(make(i)), shift, pass_bits)];
        });
      },
      [&](size_t s, std::vector<uint64_t>& cursors) {
        rows(s, [&](size_t i) {
          const auto t = make(i);
          emit(cursors[RadixBits(radix_of(t), shift, pass_bits)]++, t);
        });
      },
      slices > 1 ? pool : nullptr);
}

/// Parallel single pass: the classic per-thread-histogram scheme, i.e.
/// RadixClusterPassSegments over one contiguous input slice per thread.
/// Because slice order == scan order, the output (and the borders) are
/// byte-identical to the serial stable pass.
///
/// Untraced by design: MemTracer is a single sequential access stream and
/// stays meaningful only on the serial path (pool size 1 falls back to it).
template <typename T, typename RadixFn>
void RadixClusterPassParallel(const T* in, T* out, size_t n, RadixFn radix_of,
                              uint32_t shift, radix_bits_t pass_bits,
                              std::vector<uint64_t>* borders_out,
                              ThreadPool& pool) {
  size_t nthreads = pool.num_threads();
  if (nthreads <= 1 || n < 4 * nthreads) {
    simcache::NoTracer tracer;
    RadixClusterPass(in, out, n, radix_of, shift, pass_bits, borders_out,
                     tracer);
    return;
  }
  std::vector<std::span<const T>> slices(nthreads);
  for (size_t t = 0; t < nthreads; ++t) {
    const size_t begin = n * t / nthreads;
    slices[t] = {in + begin, n * (t + 1) / nthreads - begin};
  }
  RadixClusterPassSegments<T>(slices, out, radix_of, shift, pass_bits,
                              borders_out, &pool);
}

/// Runs `tail` (the passes after the first, ClusterSpec::Tail()) on every
/// cluster of `*borders`, refining them in place into the final borders.
/// Clusters are disjoint, so each is an independent work item on `pool`
/// (nullptr: in order on the calling thread) running the serial driver over
/// its own ranges of `data` and `scratch`. Every cluster runs the same
/// passes, so all results land in one buffer: the return value (`data` when
/// `tail` clusters nothing). Byte-identical to running the passes one after
/// another over the whole array.
template <typename T, typename RadixFn>
T* RadixRefineClusters(T* data, T* scratch, ClusterBorders* borders,
                       RadixFn radix_of, const ClusterSpec& tail,
                       ThreadPool* pool) {
  if (tail.total_bits == 0) return data;
  const ClusterBorders& prev = *borders;
  const size_t nclusters = prev.num_clusters();
  std::vector<ClusterBorders> subs(nclusters);
  auto refine = [&](size_t c) {
    simcache::NoTracer tracer;
    const uint64_t begin = prev.start(c);
    T* ignored = nullptr;
    subs[c] = RadixClusterMultiPass(data + begin, scratch + begin,
                                    prev.size(c), radix_of, tail, tracer,
                                    &ignored);
  };
  if (KernelPool(pool) != nullptr) {
    pool->ParallelFor(nclusters, refine);
  } else {
    for (size_t c = 0; c < nclusters; ++c) refine(c);
  }
  std::vector<uint64_t> merged;
  merged.reserve((nclusters << tail.total_bits) + 1);
  merged.push_back(0);
  for (size_t c = 0; c < nclusters; ++c) {
    for (size_t b = 1; b < subs[c].offsets.size(); ++b) {
      merged.push_back(prev.start(c) + subs[c].offsets[b]);
    }
  }
  borders->offsets = std::move(merged);
  return tail.EffectivePasses() % 2 == 1 ? scratch : data;
}

/// Parallel multi-pass driver, byte-identical to RadixClusterMultiPass run
/// with NoTracer, with the same `result` contract. The first pass (one
/// input cluster) uses the per-thread-histogram pass over the whole array;
/// the remaining passes fan the first pass's clusters out as independent
/// work items (RadixRefineClusters) — the partition plan bounds per-pass
/// fan-out, so each item refines a disjoint input range into a disjoint
/// output slice and no further synchronisation is needed.
template <typename T, typename RadixFn>
ClusterBorders RadixClusterMultiPassParallel(T* data, T* scratch, size_t n,
                                             RadixFn radix_of,
                                             const ClusterSpec& spec,
                                             ThreadPool& pool,
                                             T** result = nullptr) {
  RADIX_CHECK(ValidateClusterSpec(spec).ok());
  if (pool.num_threads() <= 1) {
    simcache::NoTracer tracer;
    return RadixClusterMultiPass(data, scratch, n, radix_of, spec, tracer,
                                 result);
  }
  ClusterBorders borders;
  borders.offsets = {0, n};
  T* out = data;
  if (spec.total_bits != 0) {
    const radix_bits_t first = spec.PassBits()[0];
    RadixClusterPassParallel(data, scratch, n, radix_of,
                             spec.ignore_bits + spec.total_bits - first, first,
                             &borders.offsets, pool);
    out = RadixRefineClusters(scratch, data, &borders, radix_of, spec.Tail(),
                              &pool);
  }
  if (result != nullptr) {
    *result = out;
  } else if (out != data) {
    ForEachSlice(&pool, n, [&](size_t begin, size_t end) {
      std::memcpy(data + begin, out + begin, (end - begin) * sizeof(T));
    });
  }
  return borders;
}

/// A [left-oid, right-oid] pair: one entry of a join index [Val87].
struct OidPair {
  oid_t left;
  oid_t right;
};
static_assert(sizeof(OidPair) == 8, "join index entries must stay 8 bytes");

/// A (key, oid) pair carried through clustering into Partitioned Hash-Join.
struct KeyOid {
  value_t key;
  oid_t oid;
};
static_assert(sizeof(KeyOid) == 8);

}  // namespace radix::cluster

#endif  // RADIX_CLUSTER_RADIX_CLUSTER_H_
