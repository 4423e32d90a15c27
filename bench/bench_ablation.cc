// Ablations for the design choices DESIGN.md calls out:
//  1. the w >= 32 tuples-per-cluster-per-sweep rule (sweep w directly);
//  2. multi-pass vs single-pass Radix-Cluster at high fan-out;
//  3. hashed vs identity clustering under Zipf key skew;
//  4. paged (Section 5, three-phase) vs flat Radix-Decluster overhead;
//  5. serial vs parallel Radix-Cluster / Radix-Decluster (the threads=1
//     row IS the serial kernel; output is byte-identical by contract);
//  6. materializing vs streaming post-projection at the paper's 8M-tuple
//     scale: same checksum, no value intermediate when streamed (the
//     gather fused into the decluster merge);
//  7. scalar vs runtime-dispatched SIMD variants of the hot kernels
//     (radix_count histogram+prefix, positional gather, clustering
//     scatter), with byte-identity checksums CI can compare.

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bufferpool/buffer_manager.h"
#include "cluster/partition_plan.h"
#include "cluster/radix_cluster.h"
#include "common/bits.h"
#include "common/cpu_dispatch.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/simd_kernels.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "decluster/paged_decluster.h"
#include "decluster/radix_decluster.h"
#include "decluster/window.h"
#include "pipeline/memory_gauge.h"
#include "project/dsm_post.h"
#include "project/executor.h"
#include "workload/distributions.h"
#include "workload/generator.h"

namespace {

using namespace radix;  // NOLINT

using ClusteredIds = radix::bench::DeclusterInput;

ClusteredIds MakeClustered(size_t n, radix_bits_t bits, uint64_t seed) {
  return radix::bench::MakeDeclusterInput(n, bits, seed);
}

// ----------------------------------------------------- 1. the w = 32 rule
void BM_TuplesPerClusterSweep(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(4'000'000, 1'000'000);
  constexpr radix_bits_t kBits = 10;
  static ClusteredIds c = MakeClustered(n, kBits, 1);
  size_t w = static_cast<size_t>(state.range(0));  // tuples/cluster/sweep
  size_t window = w << kBits;
  std::vector<value_t> result(n);
  for (auto _ : state) {
    decluster::RadixDecluster<value_t>(c.values, c.ids,
                                       decluster::MakeCursors(c.borders),
                                       window, std::span<value_t>(result));
    benchmark::DoNotOptimize(result.data());
  }
  state.counters["w"] = static_cast<double>(w);
  state.counters["window_KB"] =
      static_cast<double>(window * sizeof(value_t)) / 1024;
}
BENCHMARK(BM_TuplesPerClusterSweep)
    ->RangeMultiplier(2)
    ->Range(1, 256)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ------------------------------------ 2. multi-pass vs single-pass cluster
void BM_ClusterPasses(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(4'000'000, 1'000'000);
  radix_bits_t bits = 14;  // far beyond one pass's healthy fan-out
  uint32_t passes = static_cast<uint32_t>(state.range(0));
  std::vector<cluster::KeyOid> data(n);
  Rng rng(2);
  for (size_t i = 0; i < n; ++i) {
    data[i] = {static_cast<value_t>(rng.Below(n)), static_cast<oid_t>(i)};
  }
  std::vector<cluster::KeyOid> scratch(n);
  auto radix_of = [](const cluster::KeyOid& t) { return KeyHash{}(t.key); };
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<cluster::KeyOid> work = data;
    state.ResumeTiming();
    cluster::ClusterSpec spec{.total_bits = bits, .ignore_bits = 0,
                              .passes = passes};
    simcache::NoTracer tracer;
    auto borders = cluster::RadixClusterMultiPass(work.data(), scratch.data(),
                                                  n, radix_of, spec, tracer);
    benchmark::DoNotOptimize(borders.offsets.data());
  }
  state.counters["passes"] = passes;
  state.counters["B"] = bits;
}
BENCHMARK(BM_ClusterPasses)
    ->DenseRange(1, 4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ------------------------------------------- 3. hashing vs skewed inputs
// Keys are distinct but pathological for low-bit clustering (multiples of
// 4096, as surrogate keys from sequence generators often are): clustering
// on the raw low bits collapses everything into one cluster, while hashing
// "ensures that all bits of the join attribute play a role" (paper §2.2).
void BM_ClusterSkew(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(2'000'000, 500'000);
  bool hashed = state.range(0) != 0;
  std::vector<cluster::KeyOid> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = {static_cast<value_t>(i * 4096), static_cast<oid_t>(i)};
  }
  std::vector<cluster::KeyOid> scratch(n);
  double max_over_mean = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<cluster::KeyOid> work = data;
    state.ResumeTiming();
    cluster::ClusterSpec spec{.total_bits = 8, .ignore_bits = 0, .passes = 2};
    simcache::NoTracer tracer;
    cluster::ClusterBorders borders;
    if (hashed) {
      auto radix_of = [](const cluster::KeyOid& t) { return KeyHash{}(t.key); };
      borders = cluster::RadixClusterMultiPass(work.data(), scratch.data(), n,
                                               radix_of, spec, tracer);
    } else {
      auto radix_of = [](const cluster::KeyOid& t) {
        return static_cast<uint64_t>(static_cast<uint32_t>(t.key));
      };
      borders = cluster::RadixClusterMultiPass(work.data(), scratch.data(), n,
                                               radix_of, spec, tracer);
    }
    uint64_t max_size = 0;
    for (size_t k = 0; k < borders.num_clusters(); ++k) {
      max_size = std::max(max_size, borders.size(k));
    }
    max_over_mean = static_cast<double>(max_size) * borders.num_clusters() /
                    static_cast<double>(n);
    benchmark::DoNotOptimize(borders.offsets.data());
  }
  state.counters["hashed"] = hashed ? 1 : 0;
  state.counters["max_cluster_over_mean"] = max_over_mean;
}
BENCHMARK(BM_ClusterSkew)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ----------------------------------------- 4. paged vs flat decluster
void BM_FlatDecluster(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(2'000'000, 500'000);
  static ClusteredIds c = MakeClustered(n, 8, 4);
  std::vector<value_t> result(n);
  for (auto _ : state) {
    decluster::RadixDecluster<value_t>(c.values, c.ids,
                                       decluster::MakeCursors(c.borders),
                                       64 * 1024, std::span<value_t>(result));
    benchmark::DoNotOptimize(result.data());
  }
  state.counters["variant"] = 0;
}
BENCHMARK(BM_FlatDecluster)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_PagedDeclusterFixedValues(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(2'000'000, 500'000);
  static ClusteredIds c = MakeClustered(n, 8, 4);
  for (auto _ : state) {
    bufferpool::BufferManager bm(8192);
    auto result = decluster::PagedDeclusterFixed(c.values, c.ids, c.borders,
                                                 64 * 1024, &bm);
    benchmark::DoNotOptimize(result.directory.data());
  }
  state.counters["variant"] = 1;
}
BENCHMARK(BM_PagedDeclusterFixedValues)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_PagedDeclusterVarStrings(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(500'000, 200'000);
  static ClusteredIds c = MakeClustered(n, 8, 5);
  static decluster::VarValues values = [] {
    decluster::VarValues v;
    for (oid_t id : c.ids) {
      v.Append("value-" + std::to_string(id));
    }
    return v;
  }();
  for (auto _ : state) {
    bufferpool::BufferManager bm(8192);
    auto result =
        decluster::PagedDeclusterVar(values, c.ids, c.borders, 64 * 1024, &bm);
    benchmark::DoNotOptimize(result.directory.data());
  }
  state.counters["variant"] = 2;
}
BENCHMARK(BM_PagedDeclusterVarStrings)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// --------------------------------------- 5. serial vs parallel kernels
// Paper-scale cardinality (8M tuples, the Fig. 7–9 setting). The serial
// column is Arg(0)=1: a size-1 pool runs the exact serial code path, so
// speedup_vs_serial reads directly off this table.
void BM_ParallelCluster(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(8'000'000, 1'000'000);
  size_t threads = static_cast<size_t>(state.range(0));
  radix_bits_t bits = 14;
  uint32_t passes = cluster::PassesFor(bits, radix::bench::BenchHw());
  std::vector<cluster::KeyOid> data(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    data[i] = {static_cast<value_t>(rng.Below(n)), static_cast<oid_t>(i)};
  }
  std::vector<cluster::KeyOid> scratch(n);
  ThreadPool pool(threads);
  auto radix_of = [](const cluster::KeyOid& t) { return KeyHash{}(t.key); };
  cluster::ClusterSpec spec{.total_bits = bits, .ignore_bits = 0,
                            .passes = passes};
  double seconds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<cluster::KeyOid> work = data;
    state.ResumeTiming();
    Timer timer;
    auto borders = cluster::RadixClusterMultiPassParallel(
        work.data(), scratch.data(), n, radix_of, spec, pool);
    seconds += timer.ElapsedSeconds();
    benchmark::DoNotOptimize(borders.offsets.data());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["N"] = static_cast<double>(n);
  state.counters["B"] = bits;
  state.counters["passes"] = passes;
  state.counters["cluster_ms"] =
      seconds * 1e3 / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ParallelCluster)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ParallelDecluster(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(8'000'000, 1'000'000);
  size_t threads = static_cast<size_t>(state.range(0));
  constexpr radix_bits_t kBits = 10;
  static ClusteredIds c = MakeClustered(n, kBits, 11);
  size_t window = decluster::WindowPolicy::ChooseWindowElems(
      radix::bench::BenchHw(), sizeof(value_t), c.borders.num_clusters(), n);
  ThreadPool pool(threads);
  std::vector<value_t> result(n);
  auto cursors = decluster::MakeCursors(c.borders);
  for (auto _ : state) {
    decluster::RadixDeclusterParallel<value_t>(c.values, c.ids, cursors,
                                               window,
                                               std::span<value_t>(result),
                                               pool);
    benchmark::DoNotOptimize(result.data());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["N"] = static_cast<double>(n);
  state.counters["B"] = kBits;
  state.counters["window_KB"] =
      static_cast<double>(window * sizeof(value_t)) / 1024;
}
BENCHMARK(BM_ParallelDecluster)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ----------------------------- 6. materializing vs streaming projection
// The Fig. 10/11 DSM post-projection query at paper scale (8M tuples),
// executed by RunQuery materializing (chunk_rows 0) vs streamed (a
// cache-sized result range for the d side). Checksums must agree; the
// streaming row additionally reports peak intermediate bytes (MemoryGauge;
// 0 when streamed) and the streamed decluster phase's wall time.
const workload::JoinWorkload& AblationQueryWorkload() {
  static const workload::JoinWorkload w = [] {
    workload::JoinWorkloadSpec spec;
    spec.cardinality = radix::bench::ScaledN(8'000'000, 1'000'000);
    spec.num_attrs = 4;
    spec.hit_rate = 1.0;
    spec.seed = 29;
    spec.build_nsm = false;  // DSM-only ablation; halve the footprint
    return workload::MakeJoinWorkload(spec);
  }();
  return w;
}

project::QueryOptions AblationQueryOptions(size_t threads, size_t chunk_rows) {
  project::QueryOptions options;
  options.pi_left = 3;
  options.pi_right = 3;
  options.plan_sides = false;  // pin c/d so both variants take the full path
  options.left = project::SideStrategy::kClustered;
  options.right = project::SideStrategy::kDecluster;
  options.pool = radix::bench::BenchEngine(threads).pool();
  options.chunk_rows = chunk_rows;
  return options;
}

void BM_QueryMaterializing(benchmark::State& state) {
  const workload::JoinWorkload& w = AblationQueryWorkload();
  size_t threads = static_cast<size_t>(state.range(0));
  const project::QueryOptions options =
      AblationQueryOptions(threads, /*chunk_rows=*/0);
  uint64_t checksum = 0;
  size_t threads_used = 1;
  project::PhaseBreakdown phases;
  for (auto _ : state) {
    project::QueryRun run = project::RunQuery(
        w, project::JoinStrategy::kDsmPostDecluster, options,
        radix::bench::BenchHw());
    checksum = run.checksum;
    phases = run.phases;
    threads_used = run.threads_used;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["threads"] = static_cast<double>(threads_used);
  state.counters["N"] = static_cast<double>(w.dsm_left.cardinality());
  state.counters["checksum_lo32"] =
      static_cast<double>(checksum & 0xffffffffu);
  state.counters["busy_total_ms"] = phases.busy_total() * 1e3;
}
BENCHMARK(BM_QueryMaterializing)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_QueryStreaming(benchmark::State& state) {
  const workload::JoinWorkload& w = AblationQueryWorkload();
  size_t threads = static_cast<size_t>(state.range(0));
  const project::QueryOptions options = AblationQueryOptions(
      threads, project::DefaultChunkRows(radix::bench::BenchHw()));
  pipeline::MemoryGauge& gauge = pipeline::MemoryGauge::Instance();
  uint64_t checksum = 0;
  size_t threads_used = 1;
  project::PhaseBreakdown phases;
  size_t peak = 0;
  for (auto _ : state) {
    gauge.ResetPeak();
    size_t before = gauge.current_bytes();
    project::QueryRun run = project::RunQuery(
        w, project::JoinStrategy::kDsmPostDecluster, options,
        radix::bench::BenchHw());
    peak = gauge.peak_bytes() - before;
    checksum = run.checksum;
    phases = run.phases;
    threads_used = run.threads_used;
    benchmark::DoNotOptimize(checksum);
  }
  state.counters["threads"] = static_cast<double>(threads_used);
  state.counters["N"] = static_cast<double>(w.dsm_left.cardinality());
  state.counters["checksum_lo32"] =
      static_cast<double>(checksum & 0xffffffffu);
  state.counters["peak_intermediate_KB"] = static_cast<double>(peak) / 1024;
  state.counters["pipeline_wall_ms"] = phases.pipeline_wall_seconds * 1e3;
  state.counters["busy_total_ms"] = phases.busy_total() * 1e3;
}
BENCHMARK(BM_QueryStreaming)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// ------------------------------- 7. scalar vs dispatched SIMD kernels
// Arg(0) selects the variant: 0 = the scalar reference table, 1 = the
// dispatched table (whatever cpu::ActiveIsa() resolved to — the `isa`
// counter says which, and the row label names it). Each pair of rows
// carries an identical-input checksum; CI asserts both rows exist and the
// checksums match (byte-identical contract), while the speedup itself is
// only recorded — 1-CPU shared runners make a gated ratio meaningless.

// FNV-1a over a byte range: order-sensitive, so any scatter/gather
// reordering or value difference moves it.
uint64_t Fnv1a(const void* data, size_t bytes) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

const simd::KernelTable& DispatchTable(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const simd::KernelTable& table =
      dispatched ? simd::Kernels() : *simd::detail::ScalarKernels();
  state.SetLabel(table.isa == cpu::Isa::kScalar && dispatched
                     ? "dispatched:scalar"
                     : (dispatched ? std::string("dispatched:") +
                                         cpu::IsaName(table.isa)
                                   : "scalar"));
  state.counters["isa"] = static_cast<double>(table.isa);
  return table;
}

void BM_DispatchRadixCount(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(8'000'000, 1'000'000);
  constexpr radix_bits_t kBits = 10;
  static std::vector<uint32_t> values = [&] {
    std::vector<uint32_t> v(n);
    Rng rng(41);
    for (auto& x : v) x = static_cast<uint32_t>(rng.Next());
    return v;
  }();
  const simd::KernelTable& table = DispatchTable(state);
  std::vector<uint64_t> hist(size_t{1} << kBits);
  std::vector<uint64_t> offsets((size_t{1} << kBits) + 1);
  for (auto _ : state) {
    std::fill(hist.begin(), hist.end(), 0);
    table.radix_histogram(values.data(), n, 0, kBits, hist.data());
    table.prefix_sum(hist.data(), hist.size(), offsets.data());
    benchmark::DoNotOptimize(offsets.data());
  }
  state.counters["N"] = static_cast<double>(n);
  state.counters["B"] = kBits;
  state.counters["checksum_lo32"] = static_cast<double>(
      Fnv1a(offsets.data(), offsets.size() * sizeof(uint64_t)) & 0xffffffffu);
}
BENCHMARK(BM_DispatchRadixCount)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_DispatchGather(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(8'000'000, 1'000'000);
  static std::pair<std::vector<uint32_t>, std::vector<value_t>> input = [&] {
    std::vector<uint32_t> ids(n);
    std::vector<value_t> values(n);
    Rng rng(43);
    for (size_t i = 0; i < n; ++i) {
      ids[i] = static_cast<uint32_t>(rng.Below(n));
      values[i] = static_cast<value_t>(rng.Next());
    }
    return std::pair{std::move(ids), std::move(values)};
  }();
  const simd::KernelTable& table = DispatchTable(state);
  std::vector<value_t> out(n);
  for (auto _ : state) {
    table.gather_i32(input.first.data(), n, input.second.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["N"] = static_cast<double>(n);
  state.counters["checksum_lo32"] = static_cast<double>(
      Fnv1a(out.data(), out.size() * sizeof(value_t)) & 0xffffffffu);
}
BENCHMARK(BM_DispatchGather)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_DispatchScatter(benchmark::State& state) {
  size_t n = radix::bench::ScaledN(8'000'000, 1'000'000);
  constexpr radix_bits_t kBits = 10;
  constexpr size_t kBuckets = size_t{1} << kBits;
  static std::vector<uint64_t> tuples = [&] {
    std::vector<uint64_t> v(n);
    Rng rng(47);
    for (auto& x : v) x = rng.Next();
    return v;
  }();
  const simd::KernelTable& table = DispatchTable(state);
  // Radix of a tuple = its low bits; one full clustering scatter per
  // iteration, through WcScatter64 exactly when the selected table
  // streams (the production policy).
  std::vector<uint64_t> hist(kBuckets);
  std::vector<uint64_t> cursor(kBuckets + 1);
  std::vector<uint64_t> out(n);
  std::vector<uint32_t> keys(n);
  for (size_t i = 0; i < n; ++i) keys[i] = static_cast<uint32_t>(tuples[i]);
  for (auto _ : state) {
    std::fill(hist.begin(), hist.end(), 0);
    table.radix_histogram(keys.data(), n, 0, kBits, hist.data());
    table.prefix_sum(hist.data(), kBuckets, cursor.data());
    if (table.nt_scatter) {
      simd::WcScatter64 wc(out.data(), kBuckets, cursor.data());
      for (size_t i = 0; i < n; ++i) {
        wc.Push(RadixBits(keys[i], 0, kBits), tuples[i]);
      }
      wc.Flush();
    } else {
      for (size_t i = 0; i < n; ++i) {
        out[cursor[RadixBits(keys[i], 0, kBits)]++] = tuples[i];
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["N"] = static_cast<double>(n);
  state.counters["B"] = kBits;
  state.counters["nt_scatter"] = table.nt_scatter ? 1 : 0;
  state.counters["checksum_lo32"] = static_cast<double>(
      Fnv1a(out.data(), out.size() * sizeof(uint64_t)) & 0xffffffffu);
}
BENCHMARK(BM_DispatchScatter)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
