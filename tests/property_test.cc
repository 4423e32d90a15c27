// Cross-module property tests: randomized invariants that tie cluster,
// sort, decluster and projections together.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "cluster/radix_cluster.h"
#include "cluster/radix_count.h"
#include "cluster/radix_sort.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "decluster/radix_decluster.h"
#include "hardware/memory_hierarchy.h"
#include "join/positional_join.h"
#include "project/dsm_post.h"
#include "project/executor.h"
#include "workload/distributions.h"
#include "workload/generator.h"

namespace radix {
namespace {

using cluster::ClusterBorders;
using cluster::ClusterSpec;

TEST(ClusterProperty, PartialClusterPlusInClusterSortEqualsFullSort) {
  // Partial cluster on the top B bits, then sorting each cluster
  // independently, must equal a full sort — this is exactly why "stopping
  // early" (ignore bits) is sound (§3.1).
  Rng rng(1);
  for (int round = 0; round < 10; ++round) {
    size_t n = 1000 + rng.Below(20000);
    std::vector<oid_t> data(n);
    std::iota(data.begin(), data.end(), 0u);
    workload::Shuffle(data.data(), n, rng);
    std::vector<oid_t> expected = data;
    std::sort(expected.begin(), expected.end());

    radix_bits_t sig = SignificantBits(n);
    radix_bits_t bits = 1 + static_cast<radix_bits_t>(rng.Below(sig));
    ClusterSpec spec{.total_bits = bits,
                     .ignore_bits = static_cast<radix_bits_t>(sig - bits),
                     .passes = 1 + static_cast<uint32_t>(rng.Below(3))};
    ClusterBorders borders = cluster::RadixCluster(
        std::span<oid_t>(data), [](oid_t v) { return uint64_t{v}; }, spec);
    for (size_t k = 0; k < borders.num_clusters(); ++k) {
      std::sort(data.begin() + borders.start(k), data.begin() + borders.end(k));
    }
    ASSERT_EQ(data, expected) << "round " << round << " bits " << bits;
  }
}

TEST(ClusterProperty, BordersFromCountMatchBordersFromCluster) {
  Rng rng(2);
  for (int round = 0; round < 10; ++round) {
    size_t n = 500 + rng.Below(5000);
    std::vector<oid_t> data(n);
    for (auto& v : data) v = static_cast<oid_t>(rng.Below(n));
    radix_bits_t sig = SignificantBits(n);
    radix_bits_t bits = 1 + static_cast<radix_bits_t>(rng.Below(6));
    if (bits > sig) bits = sig;
    ClusterSpec spec{.total_bits = bits,
                     .ignore_bits = static_cast<radix_bits_t>(sig - bits),
                     .passes = 1};
    ClusterBorders from_cluster = cluster::RadixCluster(
        std::span<oid_t>(data), [](oid_t v) { return uint64_t{v}; }, spec);
    ClusterBorders from_count =
        cluster::RadixCount(data, spec.total_bits, spec.ignore_bits);
    ASSERT_EQ(from_cluster.offsets, from_count.offsets);
  }
}

TEST(DeclusterProperty, ClusterThenDeclusterIsIdentityOnAnyPayload) {
  // For arbitrary payload columns (not just f(position)): fetching via the
  // clustered ids then declustering equals a plain gather by original ids.
  Rng rng(3);
  for (int round = 0; round < 8; ++round) {
    size_t n = 1000 + rng.Below(30000);
    size_t column_n = n + rng.Below(n);
    // Random ids into the column (duplicates allowed, like a join index).
    std::vector<oid_t> ids(n);
    for (auto& id : ids) id = static_cast<oid_t>(rng.Below(column_n));
    std::vector<value_t> column(column_n);
    for (auto& v : column) v = static_cast<value_t>(rng.Next());

    // Expected: direct gather.
    std::vector<value_t> expected(n);
    join::PositionalJoin<value_t>(ids, column, std::span<value_t>(expected));

    // Cluster (id, position) on id, gather clustered, decluster back.
    struct IdPos {
      oid_t id, pos;
    };
    std::vector<IdPos> pairs(n);
    for (size_t i = 0; i < n; ++i) pairs[i] = {ids[i], static_cast<oid_t>(i)};
    radix_bits_t sig = SignificantBits(column_n);
    radix_bits_t bits = 1 + static_cast<radix_bits_t>(rng.Below(8));
    if (bits > sig) bits = sig;
    ClusterSpec spec{.total_bits = bits,
                     .ignore_bits = static_cast<radix_bits_t>(sig - bits),
                     .passes = 1};
    std::vector<IdPos> scratch(n);
    simcache::NoTracer nt;
    auto radix_of = [](const IdPos& p) -> uint64_t { return p.id; };
    ClusterBorders borders = cluster::RadixClusterMultiPass(
        pairs.data(), scratch.data(), n, radix_of, spec, nt);

    std::vector<value_t> clustered_vals(n);
    std::vector<oid_t> result_pos(n);
    for (size_t i = 0; i < n; ++i) {
      clustered_vals[i] = column[pairs[i].id];
      result_pos[i] = pairs[i].pos;
    }
    std::vector<value_t> result(n);
    size_t window = 1 + rng.Below(8192);
    decluster::RadixDecluster<value_t>(clustered_vals, result_pos,
                                       decluster::MakeCursors(borders), window,
                                       std::span<value_t>(result));
    ASSERT_EQ(result, expected) << "round " << round;
  }
}

TEST(ProjectSideProperty, AllStrategiesProduceSameMultiset) {
  // u, s, c reorder rows; d preserves order. All must produce the same
  // multiset of fetched values for the same ids.
  Rng rng(4);
  size_t n = 20000;
  size_t column_n = 30000;
  std::vector<oid_t> base_ids(n);
  for (auto& id : base_ids) id = static_cast<oid_t>(rng.Below(column_n));
  std::vector<value_t> column(column_n);
  for (auto& v : column) v = static_cast<value_t>(rng.Next());

  auto hw = hardware::MemoryHierarchy::Pentium4();
  auto run = [&](project::SideStrategy strategy) {
    std::vector<oid_t> ids = base_ids;
    std::vector<value_t> out(n);
    project::PhaseBreakdown phases;
    project::ProjectSide(ids, strategy, {std::span<const value_t>(column)},
                         {std::span<value_t>(out)}, column_n, hw,
                         project::DsmPostOptions::kAuto, 0, &phases);
    std::sort(out.begin(), out.end());
    return out;
  };
  auto u = run(project::SideStrategy::kUnsorted);
  EXPECT_EQ(run(project::SideStrategy::kSorted), u);
  EXPECT_EQ(run(project::SideStrategy::kClustered), u);
  EXPECT_EQ(run(project::SideStrategy::kDecluster), u);
}

TEST(ParallelProperty, ClusterAndDeclusterBitIdenticalToSerial) {
  // The parallel kernels' whole contract: for every spec shape the paper
  // exercises — B = 0 no-op, single-pass, multi-pass, Zipf-skewed keys,
  // sparse inputs where most clusters are empty — and every thread count,
  // the parallel Radix-Cluster produces byte-identical data + borders, and
  // the parallel Radix-Decluster over the clustered positions produces a
  // byte-identical result column.
  struct Shape {
    const char* name;
    size_t n;
    radix_bits_t bits;
    uint32_t passes;
    bool zipf;
  };
  const Shape shapes[] = {
      {"B=0 no-op", 10'000, 0, 1, false},
      {"single-pass", 20'000, 6, 1, false},
      {"multi-pass", 30'000, 11, 3, false},
      {"Zipf-skewed", 30'000, 8, 2, true},
      {"empty clusters", 300, 10, 2, false},
  };
  struct KeyPos {
    oid_t key;  // join attribute the index is clustered on
    oid_t pos;  // result position carried through (ascending per cluster)
  };
  auto radix_of = [](const KeyPos& p) -> uint64_t { return KeyHash{}(p.key); };

  for (uint64_t seed : {1u, 42u, 12345u}) {
    for (const Shape& s : shapes) {
      Rng rng(seed);
      workload::ZipfGenerator zipf(1 << 16, 0.9);
      std::vector<KeyPos> base(s.n);
      for (size_t i = 0; i < s.n; ++i) {
        oid_t key = s.zipf ? static_cast<oid_t>(zipf.Next(rng))
                           : static_cast<oid_t>(rng.Below(s.n));
        base[i] = {key, static_cast<oid_t>(i)};
      }
      ClusterSpec spec{.total_bits = s.bits, .ignore_bits = 0,
                       .passes = s.passes};

      // Serial reference: cluster, then decluster a payload column.
      std::vector<KeyPos> serial = base;
      std::vector<KeyPos> scratch(s.n);
      simcache::NoTracer nt;
      ClusterBorders serial_borders = cluster::RadixClusterMultiPass(
          serial.data(), scratch.data(), s.n, radix_of, spec, nt);

      std::vector<value_t> values(s.n);
      std::vector<oid_t> positions(s.n);
      for (size_t i = 0; i < s.n; ++i) {
        values[i] = static_cast<value_t>(serial[i].pos * 13 + 1);
        positions[i] = serial[i].pos;
      }
      size_t window = 64 + seed % 1000;  // deliberately non-round
      std::vector<value_t> serial_result(s.n, -1);
      decluster::RadixDecluster<value_t>(
          values, positions, decluster::MakeCursors(serial_borders), window,
          std::span<value_t>(serial_result));

      for (size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        std::vector<KeyPos> parallel = base;
        ClusterBorders par_borders = cluster::RadixClusterMultiPassParallel(
            parallel.data(), scratch.data(), s.n, radix_of, spec, pool);
        ASSERT_EQ(par_borders.offsets, serial_borders.offsets)
            << s.name << " seed=" << seed << " threads=" << threads;
        ASSERT_EQ(std::memcmp(parallel.data(), serial.data(),
                              s.n * sizeof(KeyPos)),
                  0)
            << s.name << " seed=" << seed << " threads=" << threads;

        std::vector<value_t> par_result(s.n, -2);
        decluster::RadixDeclusterParallel<value_t>(
            values, positions, decluster::MakeCursors(par_borders), window,
            std::span<value_t>(par_result), pool);
        ASSERT_EQ(par_result, serial_result)
            << s.name << " seed=" << seed << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelProperty, PerColumnGatherBitIdenticalToSerial) {
  // The parallelized positional-join gather loops (column x row-slice work
  // items) must be byte-identical to the serial per-column loops, for both
  // the oid-column and the join-index flavours.
  Rng rng(6);
  for (size_t n : {0u, 100u, 30000u}) {
    size_t column_n = n + 1 + rng.Below(n + 1);
    size_t pi = 3;
    std::vector<oid_t> ids(n);
    std::vector<cluster::OidPair> index(n);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<oid_t>(rng.Below(column_n));
      index[i] = {static_cast<oid_t>(rng.Below(column_n)),
                  static_cast<oid_t>(rng.Below(column_n))};
    }
    std::vector<std::vector<value_t>> columns(pi);
    std::vector<std::span<const value_t>> col_spans(pi);
    for (size_t a = 0; a < pi; ++a) {
      columns[a].resize(column_n);
      for (auto& v : columns[a]) v = static_cast<value_t>(rng.Next());
      col_spans[a] = columns[a];
    }
    auto run_ids = [&](ThreadPool* pool) {
      std::vector<std::vector<value_t>> out(pi,
                                            std::vector<value_t>(n, -1));
      std::vector<std::span<value_t>> out_spans(out.begin(), out.end());
      join::PositionalJoinColumns<value_t>(ids, col_spans, out_spans, pool);
      return out;
    };
    auto run_pairs = [&](ThreadPool* pool) {
      std::vector<std::vector<value_t>> out(pi,
                                            std::vector<value_t>(n, -1));
      std::vector<std::span<value_t>> out_spans(out.begin(), out.end());
      join::PositionalJoinPairsColumns<value_t, /*kLeft=*/true>(
          index, col_spans, out_spans, pool);
      return out;
    };
    auto serial_ids = run_ids(nullptr);
    auto serial_pairs = run_pairs(nullptr);
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(threads);
      ASSERT_EQ(run_ids(&pool), serial_ids) << "n=" << n << " threads=" << threads;
      ASSERT_EQ(run_pairs(&pool), serial_pairs)
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(StreamingProperty, StreamingMatchesMaterializingAcrossStrategies) {
  // RunQueryStreaming's whole contract: identical checksum and cardinality
  // to RunQuery for every DSM-post side-strategy combination (Fig. 10c's
  // u/u, c/u, c/d, s/d), across seeds x threads x chunk sizes including
  // chunk_rows >= N.
  auto hw = hardware::MemoryHierarchy::Pentium4();
  struct Combo {
    project::SideStrategy left, right;
  };
  const Combo combos[] = {
      {project::SideStrategy::kUnsorted, project::SideStrategy::kUnsorted},
      {project::SideStrategy::kClustered, project::SideStrategy::kUnsorted},
      {project::SideStrategy::kClustered, project::SideStrategy::kDecluster},
      {project::SideStrategy::kSorted, project::SideStrategy::kDecluster},
  };
  for (uint64_t seed : {7u, 99u}) {
    workload::JoinWorkloadSpec spec;
    spec.cardinality = 15000 + 1000 * seed;
    spec.num_attrs = 3;
    spec.hit_rate = 1.0;
    spec.seed = seed;
    spec.build_nsm = false;
    workload::JoinWorkload w = workload::MakeJoinWorkload(spec);
    for (const Combo& combo : combos) {
      project::QueryOptions opts;
      opts.pi_left = 2;
      opts.pi_right = 2;
      opts.plan_sides = false;
      opts.left = combo.left;
      opts.right = combo.right;
      project::QueryRun ref = project::RunQuery(
          w, project::JoinStrategy::kDsmPostDecluster, opts, hw);
      for (size_t threads : {1u, 2u, 4u}) {
        ThreadPool pool(threads);
        opts.pool = &pool;
        for (size_t chunk_rows :
             {size_t{977}, size_t{8192}, spec.cardinality * 2}) {
          opts.chunk_rows = chunk_rows;
          project::QueryRun streamed = project::RunQueryStreaming(
              w, project::JoinStrategy::kDsmPostDecluster, opts, hw);
          ASSERT_EQ(streamed.checksum, ref.checksum)
              << "seed=" << seed << " combo=" << ref.detail
              << " threads=" << threads << " chunk_rows=" << chunk_rows;
          ASSERT_EQ(streamed.result_cardinality, ref.result_cardinality);
          ASSERT_EQ(streamed.detail, ref.detail);
        }
      }
    }
  }
}

TEST(StreamingProperty, ChunkRowsOneEdgeCase) {
  // chunk_rows = 1 degenerates to one chunk per non-empty cluster (and one
  // row per chunk on the order-preserving streams) — the smallest legal
  // chunking must still agree with the materializing run.
  auto hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 4000;
  spec.num_attrs = 3;
  spec.seed = 3;
  spec.build_nsm = false;
  workload::JoinWorkload w = workload::MakeJoinWorkload(spec);
  for (auto right : {project::SideStrategy::kUnsorted,
                     project::SideStrategy::kDecluster}) {
    project::QueryOptions opts;
    opts.pi_left = 2;
    opts.pi_right = 2;
    opts.plan_sides = false;
    opts.left = project::SideStrategy::kClustered;
    opts.right = right;
    project::QueryRun ref = project::RunQuery(
        w, project::JoinStrategy::kDsmPostDecluster, opts, hw);
    for (size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      opts.pool = &pool;
      opts.chunk_rows = 1;
      project::QueryRun streamed = project::RunQueryStreaming(
          w, project::JoinStrategy::kDsmPostDecluster, opts, hw);
      ASSERT_EQ(streamed.checksum, ref.checksum)
          << ref.detail << " threads=" << threads;
      ASSERT_EQ(streamed.result_cardinality, ref.result_cardinality);
    }
  }
}

TEST(SortProperty, RadixSortMatchesStdSortOnPairs) {
  Rng rng(5);
  for (int round = 0; round < 6; ++round) {
    size_t n = 100 + rng.Below(50000);
    oid_t domain = static_cast<oid_t>(1 + rng.Below(1u << 20));
    std::vector<cluster::OidPair> pairs(n);
    for (auto& p : pairs) {
      p = {static_cast<oid_t>(rng.Below(domain)),
           static_cast<oid_t>(rng.Below(domain))};
    }
    auto expected = pairs;
    std::stable_sort(expected.begin(), expected.end(),
                     [](const cluster::OidPair& a, const cluster::OidPair& b) {
                       return a.left < b.left;
                     });
    cluster::RadixSortJoinIndex(std::span<cluster::OidPair>(pairs), domain,
                                /*by_left=*/true);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(pairs[i].left, expected[i].left);
      // Stability: right oids in the same order for equal left keys.
      ASSERT_EQ(pairs[i].right, expected[i].right);
    }
  }
}

}  // namespace
}  // namespace radix
