// Multi-client stress tests for the concurrent serving path: N client
// threads share one Engine (one pool, one admission gate, one plan cache)
// and every result is checksum-verified against the single-threaded serial
// execution of the same (shape, seed). The suite carries the `threaded`
// CTest label, so the TSan CI job races it by construction.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "engine/engine.h"
#include "hardware/memory_hierarchy.h"
#include "project/executor.h"
#include "workload/generator.h"

namespace radix::engine {
namespace {

using project::JoinStrategy;

hardware::MemoryHierarchy P4() {
  return hardware::MemoryHierarchy::Pentium4();
}

EngineConfig P4Config(size_t threads) {
  EngineConfig cfg;
  cfg.hierarchy = P4();
  cfg.num_threads = threads;
  return cfg;
}

/// Execute a prepared query, failing the test on a non-OK Status.
project::QueryRun RunOk(const PreparedQuery& q) {
  project::QueryRun run;
  Status status = q.Execute(&run);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return run;
}

workload::JoinWorkload MakeW(size_t n, uint64_t seed) {
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = 4;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  spec.varchar.num_cols = 1;  // shape 2 projects a varchar column
  return workload::MakeJoinWorkload(spec);
}

/// The three query shapes of the stress mix: the paper's DSM
/// post-projection query, a pre-projection comparison strategy (serial
/// kernels, exercises admission + cache without the pool), and a varchar
/// projection (Fig. 12 paged decluster, string bytes in the checksum).
std::vector<QuerySpec> StressShapes() {
  std::vector<QuerySpec> shapes(3);
  shapes[0].strategy = JoinStrategy::kDsmPostDecluster;
  shapes[0].pi_left = 2;
  shapes[0].pi_right = 2;
  shapes[1].strategy = JoinStrategy::kDsmPrePhash;
  shapes[1].pi_left = 1;
  shapes[1].pi_right = 1;
  shapes[2].strategy = JoinStrategy::kDsmPostDecluster;
  shapes[2].pi_left = 1;
  shapes[2].pi_right = 1;
  shapes[2].pi_varchar_right = 1;
  return shapes;
}

constexpr uint64_t kSeeds[] = {7, 19, 31};
constexpr size_t kStressN = 1 << 12;

struct Expected {
  uint64_t checksum;
  size_t cardinality;
};

/// Serial ground truth, computed once per process on a single-threaded
/// engine: expected[shape][seed-index].
const std::vector<std::vector<Expected>>& SerialExpectations(
    const std::vector<workload::JoinWorkload>& workloads) {
  static std::vector<std::vector<Expected>> expected = [&] {
    Engine serial(P4Config(/*threads=*/1));
    std::vector<QuerySpec> shapes = StressShapes();
    std::vector<std::vector<Expected>> out(shapes.size());
    for (size_t s = 0; s < shapes.size(); ++s) {
      for (const workload::JoinWorkload& w : workloads) {
        project::QueryRun run = RunOk(serial.Prepare(w, shapes[s]));
        out[s].push_back(Expected{run.checksum, run.result_cardinality});
      }
    }
    return out;
  }();
  return expected;
}

const std::vector<workload::JoinWorkload>& StressWorkloads() {
  static std::vector<workload::JoinWorkload> workloads = [] {
    std::vector<workload::JoinWorkload> out;
    for (uint64_t seed : kSeeds) out.push_back(MakeW(kStressN, seed));
    return out;
  }();
  return workloads;
}

/// The core stress loop: `clients` threads hammer one shared engine with a
/// deterministic interleaving of shape x seed, each result cross-checked
/// against the serial expectation.
void RunStress(Engine& eng, size_t clients, size_t queries_per_client) {
  const std::vector<workload::JoinWorkload>& workloads = StressWorkloads();
  const std::vector<std::vector<Expected>>& expected =
      SerialExpectations(workloads);
  std::vector<QuerySpec> shapes = StressShapes();

  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (size_t q = 0; q < queries_per_client; ++q) {
        // Deterministic per-client schedule that still differs between
        // clients, so shapes and seeds collide across threads.
        size_t shape = (c + q) % shapes.size();
        size_t seed = (c + 2 * q) % std::size(kSeeds);
        project::QueryRun run;
        Status status =
            eng.Prepare(workloads[seed], shapes[shape]).Execute(&run);
        if (!status.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const Expected& want = expected[shape][seed];
        if (run.checksum != want.checksum ||
            run.result_cardinality != want.cardinality) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.queries_executed, clients * queries_per_client);
  EXPECT_EQ(stats.admission.reserved_bytes, 0u);  // everything released
}

TEST(EngineConcurrencyTest, TwoClientsMatchSerialChecksums) {
  Engine eng(P4Config(/*threads=*/2));
  RunStress(eng, /*clients=*/2, /*queries_per_client=*/6);
}

TEST(EngineConcurrencyTest, FourClientsMatchSerialChecksums) {
  Engine eng(P4Config(/*threads=*/2));
  RunStress(eng, /*clients=*/4, /*queries_per_client=*/4);
}

TEST(EngineConcurrencyTest, EightClientsMatchSerialChecksums) {
  Engine eng(P4Config(/*threads=*/2));
  RunStress(eng, /*clients=*/8, /*queries_per_client=*/3);
}

TEST(EngineConcurrencyTest, EightClientsOnSerialEngineMatchSerialChecksums) {
  // No pool at all: concurrency comes purely from the client threads, so
  // this isolates the engine bookkeeping (cache, admission, stats) from
  // the shared-pool scheduling.
  Engine eng(P4Config(/*threads=*/1));
  RunStress(eng, /*clients=*/8, /*queries_per_client=*/3);
}

TEST(EngineConcurrencyTest, PointQueriesCompleteWhileHeavyQueryRuns) {
  // A heavy (normal-priority) query must not starve point-ish
  // (high-priority) queries sharing the pool — and, the other way, the
  // point queries' grains must not starve the heavy query: everyone
  // completes with correct results.
  EngineConfig cfg = P4Config(/*threads=*/2);
  cfg.point_query_rows_threshold = 1 << 10;  // heavy below is 'normal'
  Engine eng(cfg);

  workload::JoinWorkload heavy_w = MakeW(1 << 15, /*seed=*/3);
  workload::JoinWorkload point_w = MakeW(1 << 10, /*seed=*/5);
  QuerySpec heavy_spec;
  heavy_spec.pi_left = 2;
  heavy_spec.pi_right = 2;
  QuerySpec point_spec;

  PreparedQuery heavy = eng.Prepare(heavy_w, heavy_spec);
  PreparedQuery point = eng.Prepare(point_w, point_spec);
  EXPECT_FALSE(heavy.Explain().high_priority);
  EXPECT_TRUE(point.Explain().high_priority);

  Engine serial(P4Config(/*threads=*/1));
  const uint64_t heavy_sum =
      RunOk(serial.Prepare(heavy_w, heavy_spec)).checksum;
  const uint64_t point_sum =
      RunOk(serial.Prepare(point_w, point_spec)).checksum;

  std::atomic<size_t> bad{0};
  std::thread heavy_client([&] {
    for (int i = 0; i < 3; ++i) {
      if (RunOk(heavy).checksum != heavy_sum) bad.fetch_add(1);
    }
  });
  std::vector<std::thread> point_clients;
  for (int c = 0; c < 4; ++c) {
    point_clients.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        if (RunOk(point).checksum != point_sum) bad.fetch_add(1);
      }
    });
  }
  heavy_client.join();
  for (auto& t : point_clients) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

// ---------------------------------------------------------------------------
// Concurrent RunQuery callers sharing one caller-owned pool must (a) not
// race (TSan gates this suite), (b) construct no pool of their own, and
// (c) still compute serial-identical results even though their
// ParallelFor grains interleave on the SAME pool — the old pool-wide
// Wait() could block one query behind every other query's tasks.
// ---------------------------------------------------------------------------

TEST(SharedPoolConcurrencyTest, ConcurrentLegacyCallsShareCachedPools) {
  const hardware::MemoryHierarchy hw = P4();
  const workload::JoinWorkload& w = StressWorkloads()[0];

  project::QueryOptions serial_opts;
  serial_opts.pi_left = 2;
  serial_opts.pi_right = 2;
  const project::QueryRun serial = project::RunQuery(
      w, JoinStrategy::kDsmPostDecluster, serial_opts, hw);

  ThreadPool pool(2);
  project::QueryOptions par_opts = serial_opts;
  par_opts.pool = &pool;

  const uint64_t pools_before = ThreadPool::TotalConstructed();
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        project::QueryRun run = project::RunQuery(
            w, JoinStrategy::kDsmPostDecluster, par_opts, hw);
        if (run.checksum != serial.checksum ||
            run.result_cardinality != serial.result_cardinality) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // Zero pool constructions under concurrent load: every call runs on the
  // one pool it was given.
  EXPECT_EQ(ThreadPool::TotalConstructed(), pools_before);
}

}  // namespace
}  // namespace radix::engine
