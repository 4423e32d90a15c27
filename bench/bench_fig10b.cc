// Figure 10b: overall join performance versus join hit rate h in
// {1:3, 1:1, 3:1} (N = 500K, omega = 64, pi = 4). Expected shape (paper
// §4.2): all strategies get cheaper as the result shrinks, DSM
// post-projection benefits the most because the (relatively expensive)
// projection phase scales with the result cardinality.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/engine.h"
#include "workload/generator.h"

namespace {

using namespace radix;  // NOLINT
using project::JoinStrategy;

constexpr size_t kOmega = 65;  // key + 64 payload columns
constexpr size_t kPi = 4;

// range(0) encodes the hit rate: 0 -> 1:3 (0.333), 1 -> 1:1, 2 -> 3:1 (3.0)
double HitRate(int64_t code) {
  switch (code) {
    case 0:
      return 1.0 / 3.0;
    case 1:
      return 1.0;
    default:
      return 3.0;
  }
}

const workload::JoinWorkload& Workload(int64_t code) {
  static workload::JoinWorkload w[3] = {};
  static bool built[3] = {false, false, false};
  if (!built[code]) {
    workload::JoinWorkloadSpec spec;
    spec.cardinality = radix::bench::ScaledN(500'000);
    spec.num_attrs = kOmega;
    spec.hit_rate = HitRate(code);
    w[code] = workload::MakeJoinWorkload(spec);
    built[code] = true;
  }
  return w[code];
}

void RunStrategy(benchmark::State& state, JoinStrategy strategy) {
  int64_t code = state.range(0);
  const auto& w = Workload(code);
  engine::QuerySpec spec;
  spec.strategy = strategy;
  spec.pi_left = kPi;
  spec.pi_right = kPi;
  size_t result_size = 0;
  for (auto _ : state) {
    project::QueryRun run =
        radix::bench::ExecuteOrExit(radix::bench::BenchEngine(), w, spec);
    result_size = run.result_cardinality;
    benchmark::DoNotOptimize(result_size);
  }
  state.counters["hit_rate_x100"] = HitRate(code) * 100;
  state.counters["result_tuples"] = static_cast<double>(result_size);
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

// Varchar variant across hit rates: the result cardinality scales the
// string bytes the projection must move, so the 3:1 point triples the
// paged-decluster heap traffic relative to 1:1.
const workload::JoinWorkload& VarcharWorkload(int64_t code) {
  static workload::JoinWorkload w[3] = {};
  static bool built[3] = {false, false, false};
  if (!built[code]) {
    workload::JoinWorkloadSpec spec;
    spec.cardinality = radix::bench::ScaledN(500'000);
    spec.num_attrs = kOmega;
    spec.hit_rate = HitRate(code);
    spec.varchar.num_cols = 2;
    w[code] = workload::MakeJoinWorkload(spec);
    built[code] = true;
  }
  return w[code];
}

void BM_DsmPostDeclusterVarchar(benchmark::State& state) {
  int64_t code = state.range(0);
  const auto& w = VarcharWorkload(code);
  engine::QuerySpec spec;
  spec.strategy = JoinStrategy::kDsmPostDecluster;
  spec.pi_left = kPi;
  spec.pi_right = kPi;
  spec.pi_varchar_left = 2;
  spec.pi_varchar_right = 2;
  size_t result_size = 0;
  for (auto _ : state) {
    project::QueryRun run =
        radix::bench::ExecuteOrExit(radix::bench::BenchEngine(), w, spec);
    result_size = run.result_cardinality;
    benchmark::DoNotOptimize(result_size);
  }
  state.counters["hit_rate_x100"] = HitRate(code) * 100;
  state.counters["varchar_cols"] = 4;
  state.counters["result_tuples"] = static_cast<double>(result_size);
}

void Args(benchmark::internal::Benchmark* b) {
  b->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond)->Iterations(1);
}

}  // namespace

BENCHMARK(BM_NsmPreHash)->Apply(Args);
BENCHMARK(BM_NsmPrePhash)->Apply(Args);
BENCHMARK(BM_DsmPrePhash)->Apply(Args);
BENCHMARK(BM_DsmPostDecluster)->Apply(Args);
BENCHMARK(BM_NsmPostDecluster)->Apply(Args);
BENCHMARK(BM_NsmPostJive)->Apply(Args);
BENCHMARK(BM_DsmPostDeclusterVarchar)->Apply(Args);

BENCHMARK_MAIN();
