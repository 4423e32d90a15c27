// Operator-layer pipeline benchmark: a select -> join -> group-aggregate
// query run through the composable chunk-at-a-time operators (with the
// optimizer's per-edge Fig. 10 strategies) versus a hand-fused
// tuple-at-a-time baseline of the same query. The gap is the price of
// composability; the `modeled_ms` counter carries the optimizer's
// prediction next to the measured time, extending the paper's
// modeled-vs-measured methodology to whole plan trees.

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "ops/executor.h"
#include "ops/optimizer.h"
#include "ops/plan.h"
#include "ops/table.h"
#include "workload/chain.h"

namespace {

using namespace radix;  // NOLINT

// PayloadValue is uniform over [0, 2^31); the midpoint keeps ~half the rows.
constexpr value_t kSelectBound = value_t{1} << 30;

const workload::ChainWorkload& Chain() {
  static const workload::ChainWorkload w = [] {
    workload::ChainWorkloadSpec spec;
    const size_t n = radix::bench::ScaledN(1u << 20, 1u << 17);
    spec.cardinalities = {n, n / 2, n};
    spec.num_attrs = 4;
    return workload::MakeChainWorkload(spec);
  }();
  return w;
}

const ops::Catalog& ChainCatalog() {
  static const ops::Catalog catalog =
      ops::CatalogFromChainWorkload(Chain());
  return catalog;
}

/// σ(t0.a1 < bound) |X| t1 |X| t2, grouped by t2.a1: sum(t0.a1), count.
ops::LogicalPlan PipelinePlan() {
  ops::Predicate pred;
  pred.col = {0, 1, false};
  pred.op = ops::CmpOp::kLt;
  pred.value = kSelectBound;
  ops::LogicalPlan plan;
  plan.root = ops::Aggregate(
      ops::Join(ops::Join(ops::Select(ops::Scan(0), pred), ops::Scan(1), 0, 1),
                ops::Scan(2), 1, 2),
      {{2, 1, false}},
      {{ops::AggFn::kSum, {0, 1, false}}, {ops::AggFn::kCount, {}}});
  return plan;
}

void BM_OpsPipeline(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const ops::Catalog& catalog = ChainCatalog();
  ops::LogicalPlan plan = PipelinePlan();

  ops::PhysicalPlan physical;
  Status opt = ops::Optimize(catalog, plan, radix::bench::BenchHw(),
                             costmodel::CpuCosts::Default(), &physical);
  RADIX_CHECK(opt.ok());
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  size_t rows = 0;
  uint64_t checksum = 0;
  for (auto _ : state) {
    ops::ExecOptions options;
    options.hw = &radix::bench::BenchHw();
    options.pool = pool.get();
    ops::PlanRun run;
    Status status = ops::ExecutePlan(catalog, plan, physical, options, &run);
    RADIX_CHECK(status.ok());
    rows = run.result_rows;
    checksum = run.checksum;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["groups"] = static_cast<double>(rows);
  state.counters["modeled_ms"] = physical.modeled_seconds * 1e3;
  state.counters["edges"] = static_cast<double>(physical.edges.size());
}

/// The same query as one hand-written tuple-at-a-time loop nest: no
/// operators, no chunks, no radix machinery — the fused baseline a person
/// would write for exactly this query and nothing else.
void BM_HandFusedPipeline(benchmark::State& state) {
  const workload::ChainWorkload& w = Chain();
  const auto& k0 = w.tables[0].key();
  const auto& a01 = w.tables[0].attr(1);
  const auto& k1 = w.tables[1].key();
  const auto& k2 = w.tables[2].key();
  const auto& a21 = w.tables[2].attr(1);
  const size_t n0 = w.tables[0].cardinality();

  size_t groups = 0;
  for (auto _ : state) {
    // Build sides once per query, as the operator pipeline must.
    std::unordered_map<value_t, oid_t> h1(w.tables[1].cardinality() * 2);
    for (size_t j = 0; j < w.tables[1].cardinality(); ++j) {
      h1.emplace(k1[j], static_cast<oid_t>(j));
    }
    std::unordered_map<value_t, oid_t> h2(w.tables[2].cardinality() * 2);
    for (size_t j = 0; j < w.tables[2].cardinality(); ++j) {
      h2.emplace(k2[j], static_cast<oid_t>(j));
    }
    struct Acc {
      int64_t sum = 0;
      int64_t count = 0;
    };
    std::unordered_map<value_t, Acc> agg;
    for (size_t i = 0; i < n0; ++i) {
      if (a01[i] >= kSelectBound) continue;
      auto it1 = h1.find(k0[i]);
      if (it1 == h1.end()) continue;
      auto it2 = h2.find(k1[it1->second]);
      if (it2 == h2.end()) continue;
      Acc& acc = agg[a21[it2->second]];
      acc.sum += a01[i];
      acc.count += 1;
    }
    groups = agg.size();
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
}

void Args(benchmark::internal::Benchmark* b) {
  b->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->Iterations(1);
}

}  // namespace

BENCHMARK(BM_OpsPipeline)->Apply(Args);
BENCHMARK(BM_HandFusedPipeline)->Unit(benchmark::kMillisecond)->Iterations(1);

BENCHMARK_MAIN();
