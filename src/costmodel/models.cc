#include "costmodel/models.h"

#include <algorithm>
#include <cmath>

#include "cluster/radix_cluster.h"

namespace radix::costmodel {

namespace {

double Pow2(radix_bits_t b) { return std::ldexp(1.0, static_cast<int>(b)); }

CostEstimate Finish(const hardware::MemoryHierarchy& hw, MissVector mv,
                    double cpu_seconds) {
  CostEstimate est;
  est.misses = mv;
  est.seconds = MissesToSeconds(hw, mv, cpu_seconds);
  return est;
}

}  // namespace

CostEstimate RadixClusterCost(const hardware::MemoryHierarchy& hw,
                              const CpuCosts& cpu, size_t tuples,
                              size_t width, radix_bits_t total_bits,
                              uint32_t passes) {
  // Mirror the kernel's pass structure through ClusterSpec itself so the
  // model cannot drift from RadixClusterMultiPass's bit distribution.
  cluster::ClusterSpec spec{.total_bits = total_bits, .ignore_bits = 0,
                            .passes = std::max<uint32_t>(1, passes)};
  Region data = Region::Of(tuples, width);
  MissVector total;
  for (radix_bits_t bp : spec.PassBits()) {
    if (bp == 0) continue;  // the kernel skips zero-bit passes
    double fanout = Pow2(bp);
    // Per pass: histogram scan (s_trav input) ⊕ scatter
    // (s_trav input ⊙ nest over output clusters).
    std::vector<WeightedPattern> concurrent = {
        {[&](const PatternContext& ctx) { return STrav(ctx, data); },
         data.bytes()},
        {[&, fanout](const PatternContext& ctx) {
           return NestSTrav(ctx, fanout, data);
         },
         data.bytes()},
    };
    total += STrav({&hw, 1.0}, data);        // histogram pass
    total += Concurrent(hw, concurrent);     // scatter pass
  }
  if (spec.EffectivePasses() % 2 == 1) {
    // Odd number of executed passes leaves the result in the scratch
    // buffer; the kernel copies it back: s_trav(read) ⊕ s_trav(write).
    total += STrav({&hw, 1.0}, data);
    total += STrav({&hw, 1.0}, data);
  }
  double cpu_s = cpu.cluster_ns_per_tuple * 1e-9 *
                 static_cast<double>(tuples) * 2.0 * spec.EffectivePasses();
  return Finish(hw, total, cpu_s);
}

CostEstimate PartitionedHashJoinCost(const hardware::MemoryHierarchy& hw,
                                     const CpuCosts& cpu, size_t left_tuples,
                                     size_t right_tuples, size_t tuple_width,
                                     radix_bits_t bits) {
  double clusters = Pow2(bits);
  // Per cluster pair: build = s_trav(inner) ⊙ r_trav(hash table);
  // probe = s_trav(outer) ⊙ r_acc(|outer|, inner + table) ⊙ s_trav(out).
  Region inner = Region::Of(
      std::max<size_t>(1, static_cast<size_t>(right_tuples / clusters)),
      tuple_width);
  // Bucket heads + chain links roughly double the footprint.
  Region table = {inner.tuples, inner.width * 2};
  Region outer = Region::Of(
      std::max<size_t>(1, static_cast<size_t>(left_tuples / clusters)),
      tuple_width);
  Region out = {outer.tuples, sizeof(oid_t) * 2.0};

  std::vector<WeightedPattern> build = {
      {[&](const PatternContext& ctx) { return STrav(ctx, inner); },
       inner.bytes()},
      {[&](const PatternContext& ctx) { return RTrav(ctx, table); },
       table.bytes()},
  };
  Region probe_target = {inner.tuples + table.tuples,
                         (inner.bytes() + table.bytes()) /
                             std::max(1.0, inner.tuples + table.tuples)};
  std::vector<WeightedPattern> probe = {
      {[&](const PatternContext& ctx) { return STrav(ctx, outer); },
       outer.bytes()},
      {[&](const PatternContext& ctx) {
         return RAcc(ctx, outer.tuples, probe_target);
       },
       probe_target.bytes()},
      {[&](const PatternContext& ctx) { return STrav(ctx, out); },
       out.bytes()},
  };
  MissVector per_cluster = Concurrent(hw, build) + Concurrent(hw, probe);
  MissVector total = per_cluster * clusters;
  double cpu_s = 1e-9 * (cpu.hash_build_ns_per_tuple * right_tuples +
                         cpu.hash_probe_ns_per_tuple * left_tuples);
  return Finish(hw, total, cpu_s);
}

CostEstimate ClusteredPositionalJoinCost(const hardware::MemoryHierarchy& hw,
                                         const CpuCosts& cpu,
                                         size_t index_tuples,
                                         size_t column_tuples, size_t width,
                                         radix_bits_t bits, bool sorted) {
  Region ids = Region::Of(index_tuples, sizeof(oid_t));
  Region column = Region::Of(column_tuples, width);
  Region out = Region::Of(index_tuples, width);
  MissVector total;
  if (sorted) {
    std::vector<WeightedPattern> pats = {
        {[&](const PatternContext& ctx) { return STrav(ctx, ids); },
         ids.bytes()},
        {[&](const PatternContext& ctx) { return STrav(ctx, column); },
         column.bytes()},
        {[&](const PatternContext& ctx) { return STrav(ctx, out); },
         out.bytes()},
    };
    total = Concurrent(hw, pats);
  } else {
    double clusters = Pow2(bits);
    Region sub_column = {column.tuples / clusters, column.width};
    Region sub_ids = {ids.tuples / clusters, ids.width};
    Region sub_out = {ids.tuples / clusters, out.width};
    std::vector<WeightedPattern> pats = {
        {[&](const PatternContext& ctx) { return STrav(ctx, sub_ids); },
         sub_ids.bytes()},
        {[&](const PatternContext& ctx) {
           return RAcc(ctx, sub_ids.tuples, sub_column);
         },
         sub_column.bytes()},
        {[&](const PatternContext& ctx) { return STrav(ctx, sub_out); },
         sub_out.bytes()},
    };
    total = Concurrent(hw, pats) * clusters;
  }
  double cpu_s = cpu.pos_join_ns_per_tuple * 1e-9 * index_tuples;
  return Finish(hw, total, cpu_s);
}

CostEstimate RadixDeclusterCost(const hardware::MemoryHierarchy& hw,
                                const CpuCosts& cpu, size_t tuples,
                                size_t width, radix_bits_t bits,
                                size_t window_elems) {
  double clusters = Pow2(bits);
  double windows = std::max(
      1.0, static_cast<double>(tuples) / static_cast<double>(window_elems));
  // Per window: (1/#w)-th of CLUST_VALUES and CLUST_RESULT read
  // sequentially across all clusters ⊙ rr_trav over the window ⊕ one
  // sequential sweep over the cluster-border array.
  Region values_slice = {static_cast<double>(tuples) / windows,
                         static_cast<double>(width)};
  Region result_slice = {static_cast<double>(tuples) / windows,
                         static_cast<double>(sizeof(oid_t))};
  Region window = {static_cast<double>(window_elems),
                   static_cast<double>(width)};
  Region borders = {clusters, 2.0 * sizeof(uint64_t)};

  // The sequential value/result streams only keep a line or two per live
  // cluster resident, so the window effectively owns the cache: evaluate
  // the streams at full capacity and the window at a fixed large share
  // (the Fig. 6 default reserves half the cache for the window).
  PatternContext stream_ctx{&hw, 1.0};
  PatternContext window_ctx{&hw, 0.75};
  MissVector per_window = STrav(stream_ctx, values_slice) +
                          STrav(stream_ctx, result_slice) +
                          RrTrav(window_ctx, clusters, window,
                                 clusters * width);
  MissVector total = per_window * windows;
  total += RsTrav({&hw, 1.0}, windows, borders);
  // Per-cluster startup: each window sweep touches every live cluster's
  // read cursor at least once in both streams (the TLB term of Fig. 7a).
  total.tlb += 2.0 * clusters * windows *
               std::clamp(clusters / static_cast<double>(hw.tlb.entries == 0
                                                             ? 64
                                                             : hw.tlb.entries),
                          0.0, 1.0);
  double cpu_s = cpu.decluster_ns_per_tuple * 1e-9 * tuples +
                 1e-9 * 2.0 * clusters * windows;  // cursor sweep overhead
  return Finish(hw, total, cpu_s);
}

CostEstimate VarcharRadixDeclusterCost(const hardware::MemoryHierarchy& hw,
                                       const CpuCosts& cpu, size_t tuples,
                                       size_t avg_len, radix_bits_t bits,
                                       size_t window_elems) {
  avg_len = std::max<size_t>(1, avg_len);
  // Phase 1: decluster the lengths — a fixed-width decluster of uint32s.
  CostEstimate est = RadixDeclusterCost(hw, cpu, tuples, sizeof(uint32_t),
                                        bits, window_elems);
  // Phase 2: sequential prefix sum — read the length array, write the
  // byte-position array; pure bandwidth plus a cheap add per tuple.
  Region sizes = Region::Of(tuples, sizeof(uint32_t));
  Region positions = Region::Of(tuples, sizeof(uint64_t));
  MissVector prefix = STrav({&hw, 1.0}, sizes) + STrav({&hw, 1.0}, positions);
  est.misses += prefix;
  est.seconds += MissesToSeconds(
      hw, prefix, 0.25e-9 * static_cast<double>(tuples));
  // Phase 3: decluster the value bytes — same merge control flow, but the
  // streams and the insertion window carry avg_len bytes per tuple.
  CostEstimate bytes_pass =
      RadixDeclusterCost(hw, cpu, tuples, avg_len, bits, window_elems);
  est.misses += bytes_pass.misses;
  est.seconds += bytes_pass.seconds;
  return est;
}

CostEstimate RadixDeclusterGatherCost(const hardware::MemoryHierarchy& hw,
                                      const CpuCosts& cpu, size_t tuples,
                                      size_t column_tuples, size_t width,
                                      radix_bits_t bits, size_t range_rows) {
  const double n = static_cast<double>(std::max<size_t>(1, tuples));
  const double clusters = Pow2(bits);
  // The kernel's range: never fewer rows than clusters, at most the result.
  const double range =
      std::clamp(static_cast<double>(range_rows), clusters, n);
  const double ranges = std::ceil(n / range);
  const double per_range = n / ranges;
  Region ids_slice = {per_range, static_cast<double>(sizeof(oid_t))};
  Region pos_slice = {per_range, static_cast<double>(sizeof(oid_t))};
  Region sub_column = {static_cast<double>(column_tuples) / clusters,
                       static_cast<double>(width)};
  Region window = {per_range, static_cast<double>(width)};
  // As in RadixDeclusterCost, the sequential streams keep only a line or
  // two per cluster resident, so the range and the column region the
  // current segment reads own the cache.
  PatternContext ctx{&hw, 1.0};
  MissVector per_range_misses =
      STrav(ctx, ids_slice) + STrav(ctx, pos_slice) +
      RAcc(ctx, per_range / clusters, sub_column) * clusters +
      RrTrav(ctx, clusters, window, clusters * width);
  MissVector total = per_range_misses * ranges;
  // Seeks: one binary search per cluster and range over the cluster's
  // positions (cache-resident comparisons).
  const double seek_steps =
      clusters * ranges * std::log2(std::max(2.0, n / clusters));
  const double cpu_s =
      (cpu.pos_join_ns_per_tuple + cpu.decluster_ns_per_tuple) * 1e-9 * n +
      1e-9 * seek_steps;
  return Finish(hw, total, cpu_s);
}

CostEstimate LeftJiveJoinCost(const hardware::MemoryHierarchy& hw,
                              const CpuCosts& cpu, size_t index_tuples,
                              size_t left_tuples, size_t width,
                              radix_bits_t bits) {
  double clusters = Pow2(bits);
  Region index = Region::Of(index_tuples, sizeof(oid_t) * 2);
  Region left = Region::Of(left_tuples, width);
  Region out_left = Region::Of(index_tuples, width);
  Region out_entries = Region::Of(index_tuples, sizeof(oid_t) * 2);
  std::vector<WeightedPattern> pats = {
      {[&](const PatternContext& ctx) { return STrav(ctx, index); },
       index.bytes()},
      {[&](const PatternContext& ctx) { return STrav(ctx, left); },
       left.bytes()},
      {[&](const PatternContext& ctx) { return STrav(ctx, out_left); },
       out_left.bytes()},
      {[&, clusters](const PatternContext& ctx) {
         return NestSTrav(ctx, clusters, out_entries);
       },
       out_entries.bytes()},
  };
  MissVector total = Concurrent(hw, pats);
  double cpu_s = (cpu.pos_join_ns_per_tuple + cpu.cluster_ns_per_tuple) *
                 1e-9 * index_tuples;
  return Finish(hw, total, cpu_s);
}

CostEstimate RightJiveJoinCost(const hardware::MemoryHierarchy& hw,
                               const CpuCosts& cpu, size_t index_tuples,
                               size_t right_tuples, size_t width,
                               radix_bits_t bits) {
  double clusters = Pow2(bits);
  Region entries = Region::Of(index_tuples, sizeof(oid_t) * 2);
  Region right_slice = {static_cast<double>(right_tuples) / clusters,
                        static_cast<double>(width)};
  Region result = Region::Of(index_tuples, width);
  double per_cluster_tuples =
      static_cast<double>(index_tuples) / std::max(1.0, clusters);
  std::vector<WeightedPattern> per_cluster = {
      {[&](const PatternContext& ctx) {
         Region slice = {per_cluster_tuples, sizeof(oid_t) * 2.0};
         return STrav(ctx, slice);
       },
       per_cluster_tuples * sizeof(oid_t) * 2},
      {[&](const PatternContext& ctx) {
         return RAcc(ctx, per_cluster_tuples, right_slice);
       },
       right_slice.bytes()},
      {[&](const PatternContext& ctx) {
         // Writes land at result positions spread over the whole result
         // column: random traversal of the full region, one touch per
         // cluster entry.
         Region writes = {per_cluster_tuples,
                          result.bytes() / std::max(1.0, per_cluster_tuples)};
         return RTrav(ctx, writes);
       },
       result.bytes() / clusters},
  };
  MissVector total = Concurrent(hw, per_cluster) * clusters;
  // Entry sort within each cluster dominates CPU.
  double log_term = std::log2(std::max(2.0, per_cluster_tuples));
  double cpu_s = cpu.jive_sort_ns_per_tuple * 1e-9 * index_tuples *
                     log_term / 16.0 +
                 cpu.pos_join_ns_per_tuple * 1e-9 * index_tuples;
  MissVector borders_sweep = STrav({&hw, 1.0}, entries);
  total += borders_sweep;
  return Finish(hw, total, cpu_s);
}

}  // namespace radix::costmodel
