// Figure 10c: overall join performance versus cardinality N in
// {15K .. 16M} (omega = 64, pi = 4, h = 1:1), with the DSM post-projection
// strategy-code progression the paper annotates on the curve:
//   u/u (both columns fit cache) -> c/u -> c/d -> s/d as N grows.
// Expected shape: linear scaling in N for all strategies, with a steeper
// segment for DSM-post at the point where columns outgrow the cache and
// the Radix-Decluster machinery kicks in.
//
// Only the DSM columns are materialized (the paper notes that for DSM only
// pi matters, not omega), which keeps the 16M point inside laptop memory.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/engine.h"
#include "workload/generator.h"

namespace {

using namespace radix;  // NOLINT
using project::JoinStrategy;
using project::SideStrategy;

constexpr size_t kPi = 4;
/// RADIX_BENCH_QUICK=1 caps N here.
constexpr size_t kQuickCap = 4'000'000;

workload::JoinWorkload MakeW(size_t n) {
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = kPi + 1;
  spec.hit_rate = 1.0;
  spec.build_nsm = false;  // DSM-only experiment
  return workload::MakeJoinWorkload(spec);
}

/// Planned DSM-post (the paper's annotated curve): the planner picks the
/// side codes by cardinality.
void BM_DsmPostPlanned(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(static_cast<size_t>(state.range(0)),
                                   kQuickCap);
  workload::JoinWorkload w = MakeW(n);
  engine::QuerySpec spec;
  spec.pi_left = kPi;
  spec.pi_right = kPi;
  std::string code;
  for (auto _ : state) {
    project::QueryRun run =
        radix::bench::ExecuteOrExit(radix::bench::BenchEngine(), w, spec);
    code = run.detail;
    benchmark::DoNotOptimize(run.checksum);
  }
  state.SetLabel(code);  // the u/u, c/u, c/d, s/d annotation
  state.counters["N"] = static_cast<double>(n);
}

/// Forced side-code variants, to expose the crossovers between codes.
void RunForced(benchmark::State& state, SideStrategy left,
               SideStrategy right) {
  size_t n = radix::bench::ScaledN(static_cast<size_t>(state.range(0)),
                                   kQuickCap);
  workload::JoinWorkload w = MakeW(n);
  engine::QuerySpec spec;
  spec.pi_left = kPi;
  spec.pi_right = kPi;
  spec.plan_sides = false;
  spec.left = left;
  spec.right = right;
  for (auto _ : state) {
    project::QueryRun run =
        radix::bench::ExecuteOrExit(radix::bench::BenchEngine(), w, spec);
    benchmark::DoNotOptimize(run.checksum);
  }
  state.counters["N"] = static_cast<double>(n);
}

void BM_DsmPost_uu(benchmark::State& s) {
  RunForced(s, SideStrategy::kUnsorted, SideStrategy::kUnsorted);
}
void BM_DsmPost_cu(benchmark::State& s) {
  RunForced(s, SideStrategy::kClustered, SideStrategy::kUnsorted);
}
void BM_DsmPost_cd(benchmark::State& s) {
  RunForced(s, SideStrategy::kClustered, SideStrategy::kDecluster);
}
void BM_DsmPost_sd(benchmark::State& s) {
  RunForced(s, SideStrategy::kSorted, SideStrategy::kDecluster);
}

/// Planned DSM-post over a mixed fixed+varchar projection list (paper §5):
/// same cardinality sweep, with 2 varchar columns per side riding along —
/// the right side's strings run the Fig. 12 three-phase paged decluster
/// once columns outgrow the cache.
void BM_DsmPostPlannedVarchar(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(static_cast<size_t>(state.range(0)),
                                   kQuickCap);
  workload::JoinWorkloadSpec wspec;
  wspec.cardinality = n;
  wspec.num_attrs = kPi + 1;
  wspec.hit_rate = 1.0;
  wspec.build_nsm = false;
  wspec.varchar.num_cols = 2;
  workload::JoinWorkload w = workload::MakeJoinWorkload(wspec);
  engine::QuerySpec spec;
  spec.pi_left = kPi;
  spec.pi_right = kPi;
  spec.pi_varchar_left = 2;
  spec.pi_varchar_right = 2;
  std::string code;
  double modeled_varchar_ms = 0;
  for (auto _ : state) {
    engine::PreparedQuery prepared =
        radix::bench::BenchEngine().Prepare(w, spec);
    modeled_varchar_ms =
        prepared.Explain().varchar_decluster_cost.seconds * 1e3;
    project::QueryRun run = radix::bench::ExecuteOrExit(prepared);
    code = run.detail;
    benchmark::DoNotOptimize(run.checksum);
  }
  state.SetLabel(code);
  state.counters["N"] = static_cast<double>(n);
  state.counters["varchar_cols"] = 4;
  state.counters["modeled_varchar_ms"] = modeled_varchar_ms;
}

void Args(benchmark::internal::Benchmark* b) {
  // Quick mode caps N, so skip an arg whose capped N repeats the previous
  // row's: 16M would rerun the 4M row. Full runs keep every row.
  size_t last_n = 0;
  for (int64_t n : {15'625, 62'500, 250'000, 1'000'000, 4'000'000,
                    16'000'000}) {
    const size_t capped =
        radix::bench::ScaledN(static_cast<size_t>(n), kQuickCap);
    if (capped == last_n) continue;
    last_n = capped;
    b->Args({n});
  }
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

}  // namespace

BENCHMARK(BM_DsmPostPlanned)->Apply(Args);
BENCHMARK(BM_DsmPost_uu)->Apply(Args);
BENCHMARK(BM_DsmPost_cu)->Apply(Args);
BENCHMARK(BM_DsmPost_cd)->Apply(Args);
BENCHMARK(BM_DsmPost_sd)->Apply(Args);
BENCHMARK(BM_DsmPostPlannedVarchar)->Apply(Args);

BENCHMARK_MAIN();
