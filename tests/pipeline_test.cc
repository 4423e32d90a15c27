// Tests for the pipeline/ streaming chunked execution subsystem: chunk
// planning, the memory gauge, the bounded-ring executor, the incremental
// (chunked) decluster merge, and the end-to-end streamed projection —
// including the headline invariant that peak intermediate bytes are
// O(chunk_rows * columns), independent of N.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "cluster/radix_cluster.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "decluster/radix_decluster.h"
#include "hardware/memory_hierarchy.h"
#include "join/partitioned_hash_join.h"
#include "pipeline/chunk.h"
#include "pipeline/executor.h"
#include "pipeline/memory_gauge.h"
#include "project/dsm_post.h"
#include "project/executor.h"
#include "workload/generator.h"

namespace radix {
namespace {

using cluster::ClusterBorders;
using pipeline::ChunkDesc;
using pipeline::ChunkPlan;

ClusterBorders BordersFromSizes(const std::vector<uint64_t>& sizes) {
  ClusterBorders b;
  b.offsets.push_back(0);
  for (uint64_t s : sizes) b.offsets.push_back(b.offsets.back() + s);
  return b;
}

TEST(PipelineChunkPlan, ClusterAlignedChunksPartitionTheClusters) {
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    size_t num_clusters = 1 + rng.Below(200);
    std::vector<uint64_t> sizes(num_clusters);
    for (auto& s : sizes) s = rng.Below(50);  // empties included
    ClusterBorders borders = BordersFromSizes(sizes);
    size_t target = 1 + rng.Below(300);
    ChunkPlan plan = pipeline::MakeClusterAlignedChunks(borders, target);

    EXPECT_EQ(plan.total_rows, borders.total());
    size_t rows_seen = 0;
    size_t next_cluster = SIZE_MAX;
    size_t max_rows = 0;
    for (size_t i = 0; i < plan.chunks.size(); ++i) {
      const ChunkDesc& d = plan.chunks[i];
      EXPECT_EQ(d.index, i);
      // Cluster-aligned: chunk boundaries sit exactly on cluster borders.
      EXPECT_EQ(d.row_begin, borders.start(d.cluster_begin));
      EXPECT_EQ(d.row_end, borders.end(d.cluster_end - 1));
      EXPECT_GT(d.rows(), 0u);
      // Chunks only exceed the target when a single cluster does.
      if (d.rows() > target) {
        uint64_t biggest = 0;
        for (size_t c = d.cluster_begin; c < d.cluster_end; ++c) {
          biggest = std::max(biggest, borders.size(c));
        }
        EXPECT_GT(biggest, target);
      }
      if (i > 0) {
        EXPECT_EQ(d.cluster_begin, next_cluster);
      }
      next_cluster = d.cluster_end;
      rows_seen += d.rows();
      max_rows = std::max(max_rows, d.rows());
    }
    EXPECT_EQ(rows_seen, borders.total());
    EXPECT_EQ(plan.max_rows, max_rows);
  }
}

TEST(PipelineChunkPlan, EdgeCases) {
  // chunk_rows >= N: one chunk (the materializing execution as a plan).
  ClusterBorders b = BordersFromSizes({3, 0, 5, 2});
  ChunkPlan one = pipeline::MakeClusterAlignedChunks(b, 100);
  ASSERT_EQ(one.chunks.size(), 1u);
  EXPECT_EQ(one.chunks[0].rows(), 10u);
  EXPECT_EQ(one.chunks[0].cluster_end, 4u);
  // Same for target 0 (auto: single chunk).
  EXPECT_EQ(pipeline::MakeClusterAlignedChunks(b, 0).chunks.size(), 1u);

  // chunk_rows = 1: one chunk per non-empty cluster.
  ChunkPlan fine = pipeline::MakeClusterAlignedChunks(b, 1);
  ASSERT_EQ(fine.chunks.size(), 3u);
  EXPECT_EQ(fine.max_rows, 5u);

  // Empty borders / all-empty clusters.
  EXPECT_TRUE(
      pipeline::MakeClusterAlignedChunks(ClusterBorders{}, 8).chunks.empty());
  EXPECT_TRUE(pipeline::MakeClusterAlignedChunks(BordersFromSizes({0, 0}), 8)
                  .chunks.empty());

  // Row chunks: exact cover, last chunk short.
  ChunkPlan rows = pipeline::MakeRowChunks(10, 4);
  ASSERT_EQ(rows.chunks.size(), 3u);
  EXPECT_EQ(rows.chunks[2].row_begin, 8u);
  EXPECT_EQ(rows.chunks[2].row_end, 10u);
  EXPECT_EQ(rows.max_rows, 4u);
  EXPECT_TRUE(pipeline::MakeRowChunks(0, 4).chunks.empty());
  EXPECT_EQ(pipeline::MakeRowChunks(10, 0).chunks.size(), 1u);
}

TEST(PipelineMemory, GaugeTracksCurrentAndPeak) {
  pipeline::MemoryGauge& g = pipeline::MemoryGauge::Instance();
  size_t base = g.current_bytes();
  g.ResetPeak();
  {
    pipeline::ChunkArena a;
    a.Reset(3, 100);
    EXPECT_EQ(g.current_bytes(), base + 3 * 100 * sizeof(value_t));
    a.Reset(2, 10);  // shrink: current drops, peak stays
    EXPECT_EQ(g.current_bytes(), base + 2 * 10 * sizeof(value_t));
    EXPECT_GE(g.peak_bytes(), base + 3 * 100 * sizeof(value_t));
  }
  EXPECT_EQ(g.current_bytes(), base);  // destructor released
}

TEST(PipelineDecluster, ChunkedMergeMatchesFullMerge) {
  // Splitting the clusters into arbitrary chunk ranges and merging each
  // chunk with chunk-local values must reproduce the full RadixDecluster.
  Rng rng(13);
  for (int round = 0; round < 10; ++round) {
    size_t n = 2000 + rng.Below(20000);
    struct KeyPos {
      oid_t key, pos;
    };
    std::vector<KeyPos> pairs(n);
    for (size_t i = 0; i < n; ++i) {
      pairs[i] = {static_cast<oid_t>(rng.Below(n)), static_cast<oid_t>(i)};
    }
    radix_bits_t sig = SignificantBits(n);
    radix_bits_t bits = 1 + static_cast<radix_bits_t>(rng.Below(8));
    if (bits > sig) bits = sig;
    cluster::ClusterSpec spec{.total_bits = bits,
                              .ignore_bits =
                                  static_cast<radix_bits_t>(sig - bits),
                              .passes = 1};
    std::vector<KeyPos> scratch(n);
    simcache::NoTracer nt;
    auto radix_of = [](const KeyPos& p) -> uint64_t { return p.key; };
    ClusterBorders borders = cluster::RadixClusterMultiPass(
        pairs.data(), scratch.data(), n, radix_of, spec, nt);

    std::vector<value_t> values(n);
    std::vector<oid_t> positions(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = static_cast<value_t>(pairs[i].pos * 31 + 7);
      positions[i] = pairs[i].pos;
    }
    size_t window = 1 + rng.Below(4096);
    std::vector<value_t> expected(n, -1);
    decluster::RadixDecluster<value_t>(values, positions,
                                       decluster::MakeCursors(borders), window,
                                       std::span<value_t>(expected));

    size_t target = 1 + rng.Below(n);
    ChunkPlan plan = pipeline::MakeClusterAlignedChunks(borders, target);
    std::vector<value_t> result(n, -2);
    for (const ChunkDesc& d : plan.chunks) {
      // Chunk-local copy of the values, as the gather stage would produce.
      std::vector<value_t> chunk_vals(values.begin() + d.row_begin,
                                      values.begin() + d.row_end);
      decluster::RadixDeclusterChunk<value_t>(
          chunk_vals.data(), d.row_begin, positions,
          decluster::MakeCursorsForRange(borders, d.cluster_begin,
                                         d.cluster_end),
          window, std::span<value_t>(result));
    }
    ASSERT_EQ(result, expected) << "round " << round << " target " << target;
  }
}

// A stage that records which chunks it saw; used to test the executor's
// scheduling contract rather than any query semantics.
class CountingStage : public pipeline::ChunkStage {
 public:
  explicit CountingStage(std::vector<std::atomic<int>>* counts)
      : counts_(counts) {}
  void Run(pipeline::WorkChunk& chunk) override {
    (*counts_)[chunk.desc.index].fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<int>>* counts_;
};

TEST(PipelineExecutor, RunsEveryChunkExactlyOnceAcrossConfigs) {
  ChunkPlan plan = pipeline::MakeRowChunks(9973, 100);
  for (size_t threads : {1u, 2u, 4u}) {
    for (size_t ring : {0u, 1u, 2u, 8u}) {
      ThreadPool pool(threads);
      pipeline::ExecutorOptions opts;
      opts.pool = &pool;
      opts.ring_slots = ring;
      std::vector<std::atomic<int>> gathered(plan.chunks.size());
      std::vector<std::atomic<int>> sunk(plan.chunks.size());
      CountingStage gather(&gathered);
      CountingStage sink(&sunk);
      pipeline::StreamingExecutor exec(opts);
      pipeline::PipelineStats stats;
      exec.Run(plan, gather, &sink, &stats);
      EXPECT_EQ(stats.chunks, plan.chunks.size());
      EXPECT_GE(stats.ring_slots, 1u);
      if (ring != 0) {
        EXPECT_LE(stats.ring_slots, ring);
      }
      for (size_t i = 0; i < plan.chunks.size(); ++i) {
        ASSERT_EQ(gathered[i].load(), 1) << "threads=" << threads;
        ASSERT_EQ(sunk[i].load(), 1) << "threads=" << threads;
      }
    }
  }
}

TEST(PipelineExecutor, EmptyPlanIsANoOp) {
  pipeline::ExecutorOptions opts;
  pipeline::StreamingExecutor exec(opts);
  std::vector<std::atomic<int>> counts;
  CountingStage gather(&counts);
  pipeline::PipelineStats stats;
  exec.Run(ChunkPlan{}, gather, nullptr, &stats);
  EXPECT_EQ(stats.chunks, 0u);
}

workload::JoinWorkload SmallWorkload(size_t n, size_t attrs, uint64_t seed) {
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = attrs;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  spec.build_nsm = false;
  return workload::MakeJoinWorkload(spec);
}

TEST(PipelineStreaming, ResultColumnsByteIdenticalToMaterializing) {
  auto hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkload w = SmallWorkload(30000, 4, 5);
  join::JoinIndex index_a = join::PartitionedHashJoin(
      w.dsm_left.key().span(), w.dsm_right.key().span(), hw);
  join::JoinIndex index_b(index_a.pairs());

  project::DsmPostOptions popts;
  popts.left = project::SideStrategy::kClustered;
  popts.right = project::SideStrategy::kDecluster;
  storage::DsmResult mat = project::DsmPostProject(
      index_a, w.dsm_left, w.dsm_right, 3, 3, hw, popts);
  storage::DsmResult streamed = project::DsmPostProjectStreaming(
      index_b, w.dsm_left, w.dsm_right, 3, 3, hw, popts,
      /*chunk_rows=*/4096);

  ASSERT_EQ(streamed.cardinality, mat.cardinality);
  for (size_t a = 0; a < 3; ++a) {
    ASSERT_EQ(0, std::memcmp(streamed.left_columns[a].data(),
                             mat.left_columns[a].data(),
                             mat.left_columns[a].size_bytes()))
        << "left column " << a;
    ASSERT_EQ(0, std::memcmp(streamed.right_columns[a].data(),
                             mat.right_columns[a].data(),
                             mat.right_columns[a].size_bytes()))
        << "right column " << a;
  }
}

// The acceptance-criteria test: peak intermediate bytes of the streamed
// projection are bounded by ring_slots * chunk_rows * columns — and stay
// flat when N quadruples — where the materializing projector's clustered
// value buffer alone is N * sizeof(value_t). Radix bits are pinned so
// cluster (and therefore chunk) granularity is deterministic; with auto
// bits the partial-cluster spec keeps clusters around half the cache, so
// the bound holds with chunk_rows ~ cache instead.
TEST(PipelineStreaming, PeakIntermediateBytesBoundedByChunkNotByN) {
  auto hw = hardware::MemoryHierarchy::Pentium4();
  constexpr size_t kChunkRows = 4096;
  constexpr size_t kPi = 3;
  constexpr radix_bits_t kRightBits = 9;  // ~N/512 rows per cluster
  pipeline::MemoryGauge& gauge = pipeline::MemoryGauge::Instance();

  auto peak_for = [&](size_t n, size_t threads) {
    workload::JoinWorkload w = SmallWorkload(n, kPi + 1, 17);
    join::JoinIndex index = join::PartitionedHashJoin(
        w.dsm_left.key().span(), w.dsm_right.key().span(), hw);
    join::JoinIndex index_ref(index.pairs());
    project::DsmPostOptions popts;
    popts.left = project::SideStrategy::kClustered;
    popts.right = project::SideStrategy::kDecluster;
    popts.right_bits = kRightBits;
    ThreadPool pool(threads);
    popts.pool = &pool;
    gauge.ResetPeak();
    size_t before = gauge.current_bytes();
    storage::DsmResult streamed = project::DsmPostProjectStreaming(
        index, w.dsm_left, w.dsm_right, kPi, kPi, hw, popts, kChunkRows);
    size_t peak = gauge.peak_bytes() - before;
    // While here: the streamed result matches the materializing reference.
    storage::DsmResult ref = project::DsmPostProject(
        index_ref, w.dsm_left, w.dsm_right, kPi, kPi, hw, popts);
    EXPECT_EQ(streamed.cardinality, ref.cardinality);
    EXPECT_EQ(0, std::memcmp(streamed.right_columns[0].data(),
                             ref.right_columns[0].data(),
                             ref.right_columns[0].size_bytes()));
    return peak;
  };

  for (size_t threads : {1u, 4u}) {
    size_t small_n = 1u << 16;
    size_t large_n = 1u << 18;
    size_t peak_small = peak_for(small_n, threads);
    size_t peak_large = peak_for(large_n, threads);

    // Ring bound: auto ring is threads + 2 (threaded) or 1 (serial); a
    // chunk overshoots kChunkRows by at most one cluster (N / 2^bits rows).
    size_t ring = threads > 1 ? threads + 2 : 1;
    size_t max_chunk = kChunkRows + (large_n >> kRightBits);
    size_t bound = ring * kPi * max_chunk * sizeof(value_t);
    EXPECT_GT(peak_small, 0u) << "threads=" << threads;
    EXPECT_LE(peak_small, bound) << "threads=" << threads;
    EXPECT_LE(peak_large, bound) << "threads=" << threads;
    // Independent of N: quadrupling the relation leaves the peak exactly
    // flat (the permutation keys cluster evenly, so chunk shapes are
    // identical), where a materializing O(N * columns) intermediate would
    // have quadrupled.
    EXPECT_EQ(peak_small, peak_large) << "threads=" << threads;
    EXPECT_LT(peak_large, kPi * large_n * sizeof(value_t) / 4)
        << "threads=" << threads;
  }
}

TEST(PipelineStreaming, OverlapAwarePhasesStayWithinWallClock) {
  auto hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkload w = SmallWorkload(60000, 4, 23);
  ThreadPool pool(4);
  project::QueryOptions opts;
  opts.pi_left = 3;
  opts.pi_right = 3;
  opts.pool = &pool;
  opts.chunk_rows = 2048;

  project::QueryRun streamed = project::RunQueryStreaming(
      w, project::JoinStrategy::kDsmPostDecluster, opts, hw);
  EXPECT_GT(streamed.phases.pipeline_wall_seconds, 0.0);
  EXPECT_TRUE(streamed.phases.overlapped());
  // The overlapped sections count by wall time in total(), so phases no
  // longer sum past the run (generous slack: timer granularity and
  // scheduling noise on loaded CI machines).
  EXPECT_LE(streamed.phases.total(), streamed.seconds * 1.25 + 0.05);

  project::QueryRun mat = project::RunQuery(
      w, project::JoinStrategy::kDsmPostDecluster, opts, hw);
  EXPECT_EQ(mat.phases.pipeline_wall_seconds, 0.0);
  EXPECT_FALSE(mat.phases.overlapped());
  EXPECT_DOUBLE_EQ(mat.phases.total(), mat.phases.busy_total());
}

TEST(PipelineStreaming, FallsBackForStrategiesWithoutAStreamingPath) {
  auto hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 8000;
  spec.num_attrs = 3;
  spec.seed = 9;
  workload::JoinWorkload w = workload::MakeJoinWorkload(spec);
  project::QueryOptions opts;
  opts.pi_left = 2;
  opts.pi_right = 2;
  for (auto strategy : {project::JoinStrategy::kDsmPrePhash,
                        project::JoinStrategy::kNsmPostDecluster}) {
    project::QueryRun s = project::RunQueryStreaming(w, strategy, opts, hw);
    project::QueryRun m = project::RunQuery(w, strategy, opts, hw);
    EXPECT_EQ(s.checksum, m.checksum);
    EXPECT_EQ(s.result_cardinality, m.result_cardinality);
  }
}

}  // namespace
}  // namespace radix
