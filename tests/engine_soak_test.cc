// Wall-clock soak of the concurrent serving path: several clients run a
// seeded random mix of query shapes against one shared engine (admission
// budget + plan cache + priorities all on) for a configurable duration,
// verifying every single result against precomputed serial checksums.
//
// Carries the `soak` CTest label (excluded from the default run alongside
// its `threaded` label, which routes it into the TSan CI job). Duration
// scales with RADIX_SOAK_MS — the default keeps `ctest -L soak` quick for
// local runs; the nightly CI job raises it to minutes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "hardware/memory_hierarchy.h"
#include "project/executor.h"
#include "workload/generator.h"

namespace radix::engine {
namespace {

using project::JoinStrategy;

size_t SoakMillis() {
  if (const char* env = std::getenv("RADIX_SOAK_MS")) {
    const long ms = std::atol(env);
    if (ms > 0) return static_cast<size_t>(ms);
  }
  return 1500;  // default: long enough to interleave, short enough for ctest
}

workload::JoinWorkload MakeW(size_t n, uint64_t seed) {
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = 4;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  spec.varchar.num_cols = 1;
  return workload::MakeJoinWorkload(spec);
}

struct SoakQuery {
  const workload::JoinWorkload* workload;
  QuerySpec spec;
  uint64_t checksum;
  size_t cardinality;
};

TEST(EngineSoakTest, MixedShapesUnderLoadStayCorrect) {
  // The mix: mostly point-ish queries with a heavy and a varchar shape
  // sprinkled in, the distribution each client samples from with its own
  // seeded RNG (deterministic schedule per client, racy interleaving
  // between clients — which is the point).
  workload::JoinWorkload small = MakeW(1 << 11, /*seed=*/7);
  workload::JoinWorkload medium = MakeW(1 << 13, /*seed=*/19);
  workload::JoinWorkload heavy = MakeW(1 << 15, /*seed=*/31);

  std::vector<SoakQuery> mix;
  {
    SoakQuery q{&small, QuerySpec{}, 0, 0};  // point query
    mix.push_back(q);
  }
  {
    SoakQuery q{&medium, QuerySpec{}, 0, 0};  // mid-size, 2 columns/side
    q.spec.pi_left = 2;
    q.spec.pi_right = 2;
    mix.push_back(q);
  }
  {
    SoakQuery q{&medium, QuerySpec{}, 0, 0};  // comparison strategy
    q.spec.strategy = JoinStrategy::kDsmPrePhash;
    mix.push_back(q);
  }
  {
    SoakQuery q{&small, QuerySpec{}, 0, 0};  // varchar projection
    q.spec.pi_varchar_right = 1;
    mix.push_back(q);
  }
  {
    SoakQuery q{&heavy, QuerySpec{}, 0, 0};  // the heavy normal-priority one
    q.spec.pi_left = 2;
    q.spec.pi_right = 2;
    mix.push_back(q);
  }
  // Sampling weights: index into `mix` — point-heavy like a real serving
  // mix, so high-priority grains constantly overtake the heavy query.
  const std::vector<size_t> weights = {0, 0, 0, 0, 1, 1, 2, 3, 3, 4};

  EngineConfig serial_cfg;
  serial_cfg.hierarchy = hardware::MemoryHierarchy::Pentium4();
  Engine serial(serial_cfg);
  for (SoakQuery& q : mix) {
    project::QueryRun run;
    ASSERT_TRUE(serial.Prepare(*q.workload, q.spec).Execute(&run).ok());
    q.checksum = run.checksum;
    q.cardinality = run.result_cardinality;
  }

  EngineConfig cfg = serial_cfg;
  cfg.num_threads = 2;
  cfg.point_query_rows_threshold = 1 << 13;  // heavy shape runs 'normal'
  // Budget sized so the heavy materializing queries take turns but nothing
  // is ever rejected: the largest reservation is the heavy shape's
  // materialized intermediates, well under 8 MiB at 1<<15 rows.
  cfg.admission_budget_bytes = size_t{8} << 20;
  cfg.plan_cache_capacity = 8;
  Engine eng(cfg);
  for (const SoakQuery& q : mix) {
    ASSERT_LE(eng.Prepare(*q.workload, q.spec).Explain()
                  .modeled_intermediate_bytes,
              cfg.admission_budget_bytes);
  }

  const size_t duration_ms = SoakMillis();
  constexpr size_t kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> executed{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> errored{0};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::mt19937_64 rng(0x50AC + c);
      while (!stop.load(std::memory_order_relaxed)) {
        const SoakQuery& q = mix[weights[rng() % weights.size()]];
        project::QueryRun run;
        Status status = eng.Prepare(*q.workload, q.spec).Execute(&run);
        if (!status.ok()) {
          errored.fetch_add(1);
          continue;
        }
        executed.fetch_add(1);
        if (run.checksum != q.checksum ||
            run.result_cardinality != q.cardinality) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true);
  for (auto& t : clients) t.join();

  EXPECT_EQ(errored.load(), 0u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(executed.load(), 0u);

  EngineStats stats = eng.Stats();
  EXPECT_EQ(stats.queries_executed, executed.load());
  EXPECT_EQ(stats.admission.reserved_bytes, 0u);
  EXPECT_EQ(stats.admission.waiting, 0u);
  EXPECT_LE(stats.admission.peak_reserved_bytes, cfg.admission_budget_bytes);
  EXPECT_EQ(stats.admission.rejected, 0u);
  // Five shapes, hammered for the whole soak: the cache must be serving.
  EXPECT_GT(stats.plan_cache_hits, 0u);
}

}  // namespace
}  // namespace radix::engine
