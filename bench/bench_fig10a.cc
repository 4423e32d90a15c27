// Figure 10a: overall join performance versus projectivity pi (N = 500K,
// omega = 64, hit rate 1:1), across the six end-to-end strategies:
//   NSM-pre-hash, NSM-pre-phash, DSM-pre-phash, DSM-post-decluster,
//   NSM-post-decluster, NSM-post-jive.
// Expected shape (paper §4.2): DSM post-projection wins across the board;
// naive NSM-pre-hash is worst but narrows at high pi (its cache lines are
// used better); the NSM post-projection variants pay the join-index
// creation plus a second pass over the wide base tables and cannot catch
// up. Error bars in the paper (sparse inputs) are reproduced separately in
// bench_fig11's sparse series.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/engine.h"
#include "workload/generator.h"

namespace {

using namespace radix;  // NOLINT
using project::JoinStrategy;

constexpr size_t kOmega = 65;  // key + 64 payload columns

const workload::JoinWorkload& Workload() {
  static workload::JoinWorkload w = [] {
    workload::JoinWorkloadSpec spec;
    spec.cardinality = radix::bench::ScaledN(500'000);
    spec.num_attrs = kOmega;
    spec.hit_rate = 1.0;
    return workload::MakeJoinWorkload(spec);
  }();
  return w;
}

void RunStrategy(benchmark::State& state, JoinStrategy strategy) {
  size_t pi = static_cast<size_t>(state.range(0));
  const auto& w = Workload();
  engine::QuerySpec spec;
  spec.strategy = strategy;
  spec.pi_left = pi;
  spec.pi_right = pi;
  uint64_t checksum = 0;
  project::PhaseBreakdown phases;
  for (auto _ : state) {
    project::QueryRun run =
        radix::bench::ExecuteOrExit(radix::bench::BenchEngine(), w, spec);
    checksum = run.checksum;
    phases = run.phases;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["pi"] = static_cast<double>(pi);
  state.counters["join_ms"] = phases.join_seconds * 1e3;
  state.counters["projection_ms"] =
      (phases.cluster_seconds + phases.projection_seconds +
       phases.decluster_seconds) *
      1e3;
  // Cross-strategy result agreement is asserted in tests; expose the
  // checksum so bench runs can be eyeballed too.
  state.counters["checksum_lo32"] =
      static_cast<double>(checksum & 0xffffffffu);
}

void BM_NsmPreHash(benchmark::State& s) {
  RunStrategy(s, JoinStrategy::kNsmPreHash);
}
void BM_NsmPrePhash(benchmark::State& s) {
  RunStrategy(s, JoinStrategy::kNsmPrePhash);
}
void BM_DsmPrePhash(benchmark::State& s) {
  RunStrategy(s, JoinStrategy::kDsmPrePhash);
}
void BM_DsmPostDecluster(benchmark::State& s) {
  RunStrategy(s, JoinStrategy::kDsmPostDecluster);
}
void BM_NsmPostDecluster(benchmark::State& s) {
  RunStrategy(s, JoinStrategy::kNsmPostDecluster);
}
void BM_NsmPostJive(benchmark::State& s) {
  RunStrategy(s, JoinStrategy::kNsmPostJive);
}

// Varchar variants (paper §5's workload): the projection list mixes
// range(0) fixed columns per side with 2 varchar columns per side, so the
// sweep shows how string payloads shift the Fig. 10a comparison — DSM-post
// pays the three-phase paged decluster, the pre-projection strategies drag
// oid luggage through the join and gather strings at the end.
const workload::JoinWorkload& VarcharWorkload() {
  static workload::JoinWorkload w = [] {
    workload::JoinWorkloadSpec spec;
    spec.cardinality = radix::bench::ScaledN(500'000);
    spec.num_attrs = kOmega;
    spec.hit_rate = 1.0;
    spec.varchar.num_cols = 2;
    return workload::MakeJoinWorkload(spec);
  }();
  return w;
}

void RunStrategyVarchar(benchmark::State& state, JoinStrategy strategy) {
  size_t pi = static_cast<size_t>(state.range(0));
  const auto& w = VarcharWorkload();
  engine::QuerySpec spec;
  spec.strategy = strategy;
  spec.pi_left = pi;
  spec.pi_right = pi;
  spec.pi_varchar_left = 2;
  spec.pi_varchar_right = 2;
  uint64_t checksum = 0;
  for (auto _ : state) {
    project::QueryRun run =
        radix::bench::ExecuteOrExit(radix::bench::BenchEngine(), w, spec);
    checksum = run.checksum;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["pi"] = static_cast<double>(pi);
  state.counters["varchar_cols"] = 4;
  state.counters["checksum_lo32"] =
      static_cast<double>(checksum & 0xffffffffu);
}

void BM_DsmPostDeclusterVarchar(benchmark::State& s) {
  RunStrategyVarchar(s, JoinStrategy::kDsmPostDecluster);
}
void BM_NsmPrePhashVarchar(benchmark::State& s) {
  RunStrategyVarchar(s, JoinStrategy::kNsmPrePhash);
}

void Args(benchmark::internal::Benchmark* b) {
  for (int64_t pi : {1, 4, 16, 64}) b->Args({pi});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

void VarcharArgs(benchmark::internal::Benchmark* b) {
  for (int64_t pi : {1, 4, 16}) b->Args({pi});
  b->Unit(benchmark::kMillisecond)->Iterations(1);
}

}  // namespace

BENCHMARK(BM_NsmPreHash)->Apply(Args);
BENCHMARK(BM_NsmPrePhash)->Apply(Args);
BENCHMARK(BM_DsmPrePhash)->Apply(Args);
BENCHMARK(BM_DsmPostDecluster)->Apply(Args);
BENCHMARK(BM_NsmPostDecluster)->Apply(Args);
BENCHMARK(BM_NsmPostJive)->Apply(Args);
BENCHMARK(BM_DsmPostDeclusterVarchar)->Apply(VarcharArgs);
BENCHMARK(BM_NsmPrePhashVarchar)->Apply(VarcharArgs);

BENCHMARK_MAIN();
