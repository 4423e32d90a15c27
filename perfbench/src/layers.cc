#include "layers.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "bench.h"
#include "cluster/partition_plan.h"
#include "common/cpu_dispatch.h"
#include "common/overflow.h"
#include "common/simd_kernels.h"
#include "decluster/paged_decluster.h"
#include "decluster/radix_decluster.h"
#include "decluster/window.h"
#include "join/partitioned_hash_join.h"
#include "join/positional_join.h"
#include "project/checksum.h"
#include "project/dsm_post.h"
#include "storage/column.h"
#include "storage/varchar.h"

namespace perfbench {

namespace {

using radix::oid_t;
using radix::value_t;
using radix::project::SideStrategy;

/// Keeps kernel outputs observable so the probes cannot be optimized away.
volatile uint64_t g_sink = 0;

template <typename F>
double MedianMs(int reps, F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    f();
    ms.push_back(NsToMs(NowNs() - t0));
  }
  return Median(ms);
}

/// The engine's order-independent result checksum (project/checksum.h):
/// the sum of per-row digests in the canonical column order.
uint64_t ResultChecksum(
    size_t rows, const std::vector<radix::storage::Column<value_t>>& left,
    const std::vector<radix::storage::Column<value_t>>& right,
    const std::vector<radix::storage::VarcharColumn>& left_var,
    const std::vector<radix::storage::VarcharColumn>& right_var) {
  uint64_t sum = 0;
  for (size_t i = 0; i < rows; ++i) {
    radix::project::RowDigest d;
    for (const auto& c : left) d.AddValue(c[i]);
    for (const auto& c : right) d.AddValue(c[i]);
    for (const auto& c : left_var) d.AddString(c.at(i));
    for (const auto& c : right_var) d.AddString(c.at(i));
    sum = radix::WrapAdd(sum, d.digest());
  }
  return sum;
}

}  // namespace

ReplayOutcome ReplayDsmPost(const radix::workload::JoinWorkload& w,
                            const radix::engine::QuerySpec& spec,
                            const radix::engine::Explanation& ex,
                            const radix::hardware::MemoryHierarchy& hw,
                            radix::ThreadPool* pool, SpanRecorder* rec) {
  namespace join = radix::join;
  namespace storage = radix::storage;
  namespace detail = radix::project::detail;
  ReplayOutcome out;
  ScopedSpan query(rec, kSpanQuery);

  join::JoinIndex index;
  {
    ScopedSpan span(rec, kSpanJoin);
    join::PartitionedHashJoinOptions jopts;
    jopts.pool = pool;
    index = join::PartitionedHashJoin(w.dsm_left.key().span(),
                                      w.dsm_right.key().span(), hw, jopts);
  }
  const size_t n = index.size();
  out.rows = n;
  const radix::project::DsmPostOptions& sides = ex.side_options;
  {
    ScopedSpan span(rec, kSpanCluster);
    detail::ReorderIndexLeft(index, w.dsm_left.cardinality(), hw, sides.left,
                             sides.left_bits, pool);
  }

  std::vector<storage::Column<value_t>> left_out(spec.pi_left);
  std::vector<storage::Column<value_t>> right_out(spec.pi_right);
  std::vector<std::span<const value_t>> left_in(spec.pi_left);
  std::vector<std::span<value_t>> left_dst(spec.pi_left);
  for (size_t a = 0; a < spec.pi_left; ++a) {
    left_out[a].Resize(n);
    left_in[a] = w.dsm_left.attr(1 + a).span();
    left_dst[a] = left_out[a].span();
  }
  std::vector<storage::VarcharColumn> left_var;
  std::vector<storage::VarcharColumn> right_var;
  {
    ScopedSpan span(rec, kSpanGather);
    join::PositionalJoinPairsColumns<value_t, /*kLeft=*/true>(
        index.span(), left_in, left_dst, pool);
    for (size_t c = 0; c < spec.pi_varchar_left; ++c) {
      left_var.push_back(join::PositionalJoinVarcharPairs(
          index.span(), /*left_side=*/true, w.left_varchars[c]));
    }
  }
  out.gather_bytes += static_cast<double>(n * spec.pi_left) *
                      (sizeof(radix::cluster::OidPair) + 2 * sizeof(value_t));

  std::vector<oid_t> ids = index.RightOids();
  std::vector<std::span<const value_t>> right_in(spec.pi_right);
  for (size_t a = 0; a < spec.pi_right; ++a) {
    right_out[a].Resize(n);
    right_in[a] = w.dsm_right.attr(1 + a).span();
  }
  // Only u and d keep the result order on the right side; the executor
  // coerces s and c to d (paper §4.1), and so does the replay.
  if (sides.right == SideStrategy::kUnsorted) {
    ScopedSpan span(rec, kSpanGather);
    std::vector<std::span<value_t>> right_dst(spec.pi_right);
    for (size_t a = 0; a < spec.pi_right; ++a) right_dst[a] = right_out[a].span();
    join::PositionalJoinColumns<value_t>(ids, right_in, right_dst, pool);
    for (size_t c = 0; c < spec.pi_varchar_right; ++c) {
      right_var.push_back(
          storage::PositionalJoinVarchar(ids, w.right_varchars[c]));
    }
    out.gather_bytes += static_cast<double>(n * spec.pi_right) *
                        (sizeof(oid_t) + 2 * sizeof(value_t));
  } else {
    const radix::cluster::ClusterSpec cspec =
        detail::SpecFor(SideStrategy::kClustered, n,
                        w.dsm_right.cardinality(), hw, sides.right_bits);
    std::vector<oid_t> result_pos(n);
    std::iota(result_pos.begin(), result_pos.end(), oid_t{0});
    radix::cluster::ClusterBorders borders;
    {
      ScopedSpan span(rec, kSpanCluster);
      borders = detail::ClusterIds(ids, result_pos, cspec, pool);
    }
    size_t window = sides.window_elems;
    if (window == 0) {
      window = radix::decluster::WindowPolicy::ChooseWindowElems(
          hw, sizeof(value_t), borders.num_clusters(), n);
    }
    out.window_elems = window;
    storage::Column<value_t> clustered(n);
    for (size_t a = 0; a < spec.pi_right; ++a) {
      {
        ScopedSpan span(rec, kSpanGather);
        join::PositionalJoinColumns<value_t>(ids, {right_in[a]},
                                             {clustered.span()}, pool);
      }
      ScopedSpan span(rec, kSpanDecluster);
      std::vector<radix::decluster::ClusterCursor> cursors =
          radix::decluster::MakeCursors(borders);
      if (pool != nullptr) {
        radix::decluster::RadixDeclusterParallel<value_t>(
            clustered.span(), result_pos, cursors, window,
            right_out[a].span(), *pool);
      } else {
        radix::decluster::RadixDecluster<value_t>(
            clustered.span(), result_pos, std::move(cursors), window,
            right_out[a].span());
      }
    }
    out.gather_bytes += static_cast<double>(n * spec.pi_right) *
                        (sizeof(oid_t) + 2 * sizeof(value_t));
    for (size_t c = 0; c < spec.pi_varchar_right; ++c) {
      storage::VarcharColumn clustered_var;
      {
        ScopedSpan span(rec, kSpanGather);
        clustered_var = storage::PositionalJoinVarchar(ids, w.right_varchars[c]);
      }
      // The varchar window is sized for the bytes of phase 3, exactly as
      // the executor sizes it.
      size_t vwindow = sides.window_elems;
      if (vwindow == 0) {
        const size_t avg =
            clustered_var.size() == 0
                ? 1
                : std::max<size_t>(1, clustered_var.heap_bytes() /
                                          clustered_var.size());
        vwindow = radix::decluster::WindowPolicy::ChooseWindowElems(
            hw, std::max(sizeof(uint32_t), avg), borders.num_clusters(), n);
      }
      ScopedSpan span(rec, kSpanDeclusterVarchar);
      right_var.push_back(radix::decluster::RadixDeclusterVarchar(
          clustered_var, result_pos, borders, vwindow));
    }
  }

  ScopedSpan span(rec, kSpanChecksum);
  out.checksum = ResultChecksum(n, left_out, right_out, left_var, right_var);
  return out;
}

uint32_t JoinBits(const radix::workload::JoinWorkload& w,
                  const radix::hardware::MemoryHierarchy& hw) {
  return radix::cluster::PartitionedJoinBits(
      w.dsm_right.cardinality(), sizeof(radix::cluster::KeyOid), hw);
}

double PartitionMs(const radix::workload::JoinWorkload& w,
                   const radix::hardware::MemoryHierarchy& hw,
                   radix::ThreadPool* pool, SpanRecorder* rec) {
  const radix::radix_bits_t bits =
      static_cast<radix::radix_bits_t>(JoinBits(w, hw));
  if (bits == 0) return 0;
  const radix::radix_bits_t per_pass = radix::cluster::MaxPassBits(hw);
  const uint32_t passes = (bits + per_pass - 1) / per_pass;
  radix::storage::Column<radix::cluster::KeyOid> left(w.dsm_left.cardinality());
  radix::storage::Column<radix::cluster::KeyOid> right(
      w.dsm_right.cardinality());
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(rec, kSpanPartition);
    radix::join::ClusterKeyOid(w.dsm_left.key().span(), left.span(), bits,
                               passes, pool);
    radix::join::ClusterKeyOid(w.dsm_right.key().span(), right.span(), bits,
                               passes, pool);
  }
  const double ms = NsToMs(NowNs() - t0);
  g_sink = g_sink + left[left.size() / 2].oid + right[0].oid;
  return ms;
}

KernelRates MeasureKernels(const radix::workload::JoinWorkload& w,
                           const radix::hardware::MemoryHierarchy& hw,
                           int reps) {
  namespace simd = radix::simd;
  const simd::KernelTable& fast = simd::Kernels();
  const simd::KernelTable& scalar = *simd::detail::ScalarKernels();
  const size_t n = w.dsm_right.cardinality();
  const uint32_t bits = radix::cluster::MaxPassBits(hw);
  const size_t buckets = size_t{1} << bits;
  const uint32_t mask = static_cast<uint32_t>(buckets - 1);
  // value_t and uint32_t are the signed/unsigned pair of one width, so the
  // key columns may be read through either.
  const auto* right_keys =
      reinterpret_cast<const uint32_t*>(w.dsm_right.key().data());
  const auto* left_keys =
      reinterpret_cast<const uint32_t*>(w.dsm_left.key().data());
  const value_t* payload = w.dsm_right.attr(1).data();

  KernelRates rates;
  rates.isa = static_cast<int>(radix::cpu::ActiveIsa());

  std::vector<uint64_t> hist(buckets);
  std::vector<uint64_t> cursor(buckets + 1);
  auto histogram = [&](const simd::KernelTable& t) {
    return MedianMs(reps, [&] {
      std::fill(hist.begin(), hist.end(), 0);
      t.radix_histogram(right_keys, n, 0, bits, hist.data());
      t.prefix_sum(hist.data(), buckets, cursor.data());
      g_sink = g_sink + cursor[buckets];
    });
  };
  const double hist_fast = histogram(fast);
  const double hist_scalar = histogram(scalar);
  rates.radix_count = {static_cast<double>(n * sizeof(uint32_t)) / hist_fast / 1e6,
                       hist_scalar / hist_fast};

  std::vector<value_t> gathered(n);
  auto gather = [&](const simd::KernelTable& t) {
    return MedianMs(reps, [&] {
      t.gather_i32(left_keys, n, payload, gathered.data());
      g_sink = g_sink + static_cast<uint32_t>(gathered[n / 2]);
    });
  };
  const double gather_fast = gather(fast);
  const double gather_scalar = gather(scalar);
  rates.gather = {static_cast<double>(n * (sizeof(uint32_t) + 2 * sizeof(value_t))) /
                      gather_fast / 1e6,
                  gather_scalar / gather_fast};

  // The clustering scatter of (key, oid) tuples: through WcScatter64 when
  // the table streams (the production policy), plain stores otherwise.
  std::vector<uint64_t> tuples(n);
  for (size_t i = 0; i < n; ++i) {
    tuples[i] = uint64_t{right_keys[i]} | (uint64_t{static_cast<uint32_t>(i)} << 32);
  }
  std::fill(hist.begin(), hist.end(), 0);
  scalar.radix_histogram(right_keys, n, 0, bits, hist.data());
  scalar.prefix_sum(hist.data(), buckets, cursor.data());
  std::vector<uint64_t> scattered(n);
  std::vector<uint64_t> pos(buckets);
  auto scatter = [&](const simd::KernelTable& t) {
    return MedianMs(reps, [&] {
      if (t.nt_scatter) {
        simd::WcScatter64 wc(scattered.data(), buckets, cursor.data());
        for (size_t i = 0; i < n; ++i) wc.Push(right_keys[i] & mask, tuples[i]);
        wc.Flush();
      } else {
        std::copy(cursor.begin(), cursor.begin() + buckets, pos.begin());
        for (size_t i = 0; i < n; ++i) scattered[pos[right_keys[i] & mask]++] = tuples[i];
      }
      g_sink = g_sink + scattered[n / 2];
    });
  };
  const double scatter_fast = scatter(fast);
  const double scatter_scalar = scatter(scalar);
  rates.scatter = {static_cast<double>(n * 2 * sizeof(uint64_t)) / scatter_fast / 1e6,
                   scatter_scalar / scatter_fast};
  return rates;
}

}  // namespace perfbench
