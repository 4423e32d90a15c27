// Tests for the pipeline/ memory gauge and the streamed projection (a
// non-zero DsmPostOptions::chunk_rows) — including the headline invariant
// that it keeps no value intermediate at all, where the materializing
// projector keeps exactly one N-row clustered value column.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/thread_pool.h"
#include "hardware/memory_hierarchy.h"
#include "join/partitioned_hash_join.h"
#include "pipeline/chunk.h"
#include "pipeline/memory_gauge.h"
#include "project/dsm_post.h"
#include "project/executor.h"
#include "workload/generator.h"

namespace radix {
namespace {

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
  popts.chunk_rows = 4096;
  storage::DsmResult streamed = project::DsmPostProject(
      index_b, w.dsm_left, w.dsm_right, 3, 3, hw, popts);

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

// Peak intermediate bytes: the streamed projection fuses the decluster
// side's gather into the merge, so it registers nothing with the gauge at
// any N or thread count; the materializing projector's one intermediate is
// its clustered value column, exactly N * sizeof(value_t) bytes (reused
// across columns).
TEST(PipelineStreaming, PeakIntermediateBytesBoundedByChunkNotByN) {
  auto hw = hardware::MemoryHierarchy::Pentium4();
  constexpr size_t kChunkRows = 4096;
  constexpr size_t kPi = 3;
  constexpr radix_bits_t kRightBits = 9;
  pipeline::MemoryGauge& gauge = pipeline::MemoryGauge::Instance();

  struct Peaks {
    size_t streamed;
    size_t materialized;
  };
  auto peaks_for = [&](size_t n, size_t threads) {
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
    Peaks peaks;
    gauge.ResetPeak();
    size_t before = gauge.current_bytes();
    popts.chunk_rows = kChunkRows;
    storage::DsmResult streamed = project::DsmPostProject(
        index, w.dsm_left, w.dsm_right, kPi, kPi, hw, popts);
    peaks.streamed = gauge.peak_bytes() - before;
    gauge.ResetPeak();
    before = gauge.current_bytes();
    popts.chunk_rows = 0;
    storage::DsmResult ref = project::DsmPostProject(
        index_ref, w.dsm_left, w.dsm_right, kPi, kPi, hw, popts);
    peaks.materialized = gauge.peak_bytes() - before;
    EXPECT_EQ(gauge.current_bytes(), before);  // the buffer was returned
    // While here: the streamed result matches the materializing reference.
    EXPECT_EQ(streamed.cardinality, ref.cardinality);
    EXPECT_EQ(0, std::memcmp(streamed.right_columns[0].data(),
                             ref.right_columns[0].data(),
                             ref.right_columns[0].size_bytes()));
    return peaks;
  };

  for (size_t threads : {1u, 4u}) {
    for (size_t n : {size_t{1} << 16, size_t{1} << 18}) {
      Peaks peaks = peaks_for(n, threads);
      EXPECT_EQ(peaks.streamed, 0u) << "n=" << n << " threads=" << threads;
      EXPECT_EQ(peaks.materialized, n * sizeof(value_t))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(PipelineStreaming, OverlapAwarePhasesStayWithinWallClock) {
  auto hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkload w = SmallWorkload(60000, 4, 23);
  ThreadPool pool(4);
  project::QueryOptions opts;
  opts.pi_left = 3;
  opts.pi_right = 3;
  // Only a d right side streams; the planner would pick u at this size.
  opts.plan_sides = false;
  opts.left = project::SideStrategy::kClustered;
  opts.right = project::SideStrategy::kDecluster;
  opts.pool = &pool;
  opts.chunk_rows = 2048;

  project::QueryRun streamed = project::RunQuery(
      w, project::JoinStrategy::kDsmPostDecluster, opts, hw);
  EXPECT_GT(streamed.phases.pipeline_wall_seconds, 0.0);
  EXPECT_TRUE(streamed.phases.overlapped());
  // The streamed decluster phase counts by wall time in total(), so phases
  // no longer sum past the run (generous slack: timer granularity and
  // scheduling noise on loaded CI machines).
  EXPECT_LE(streamed.phases.total(), streamed.seconds * 1.25 + 0.05);

  opts.chunk_rows = 0;
  project::QueryRun mat = project::RunQuery(
      w, project::JoinStrategy::kDsmPostDecluster, opts, hw);
  EXPECT_EQ(mat.phases.pipeline_wall_seconds, 0.0);
  EXPECT_FALSE(mat.phases.overlapped());
  EXPECT_DOUBLE_EQ(mat.phases.total(), mat.phases.busy_total());
}

TEST(PipelineStreaming, FallsBackForStrategiesWithoutAStreamingPath) {
  // The Fig. 10 comparison strategies ignore a streamed range: a non-zero
  // chunk_rows leaves their checksums unchanged.
  auto hw = hardware::MemoryHierarchy::Pentium4();
  workload::JoinWorkloadSpec spec;
  spec.cardinality = 8000;
  spec.num_attrs = 3;
  spec.seed = 9;
  workload::JoinWorkload w = workload::MakeJoinWorkload(spec);
  project::QueryOptions opts;
  opts.pi_left = 2;
  opts.pi_right = 2;
  project::QueryOptions ranged = opts;
  ranged.chunk_rows = 1024;
  for (auto strategy : {project::JoinStrategy::kDsmPrePhash,
                        project::JoinStrategy::kNsmPreHash,
                        project::JoinStrategy::kNsmPrePhash,
                        project::JoinStrategy::kNsmPostDecluster,
                        project::JoinStrategy::kNsmPostJive}) {
    project::QueryRun s = project::RunQuery(w, strategy, ranged, hw);
    project::QueryRun m = project::RunQuery(w, strategy, opts, hw);
    EXPECT_EQ(s.checksum, m.checksum) << project::JoinStrategyName(strategy);
    EXPECT_EQ(s.result_cardinality, m.result_cardinality);
  }
}

}  // namespace
}  // namespace radix
