#ifndef RADIX_BENCH_BENCH_COMMON_H_
#define RADIX_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/radix_cluster.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "hardware/memory_hierarchy.h"
#include "workload/distributions.h"

namespace radix::bench {

/// RADIX_BENCH_QUICK=1 caps cardinalities so the full harness finishes in
/// CI time; shapes survive because all thresholds are cache-relative.
inline bool QuickMode() {
  const char* env = std::getenv("RADIX_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

/// Cap a paper cardinality in quick mode.
inline size_t ScaledN(size_t paper_n, size_t quick_cap = 1u << 20) {
  return QuickMode() ? std::min(paper_n, quick_cap) : paper_n;
}

/// The hierarchy used for planning (cluster bits, window sizes) and for the
/// cost-model ("modeled") counters. RADIX_BENCH_HW=p4 pins the paper's
/// Pentium 4 parameters; default is the running machine's geometry.
inline const hardware::MemoryHierarchy& BenchHw() {
  static const hardware::MemoryHierarchy hw = [] {
    const char* env = std::getenv("RADIX_BENCH_HW");
    if (env != nullptr && std::string(env) == "p4") {
      return hardware::MemoryHierarchy::Pentium4();
    }
    return hardware::MemoryHierarchy::Detect();
  }();
  return hw;
}

/// Session engines for the query-level harnesses (Fig. 10 and the
/// materializing-vs-streaming ablation): one engine per requested thread
/// count, constructed once per process on the BenchHw() profile, so
/// benchmark iterations measure queries — not thread spawn or hierarchy
/// detection. Benchmarks are single-threaded drivers; no locking needed.
inline radix::engine::Engine& BenchEngine(size_t threads = 1) {
  static std::map<size_t, std::unique_ptr<radix::engine::Engine>> engines;
  std::unique_ptr<radix::engine::Engine>& eng = engines[threads];
  if (eng == nullptr) {
    radix::engine::EngineConfig cfg;
    cfg.hierarchy = BenchHw();
    cfg.num_threads = threads;
    eng = std::make_unique<radix::engine::Engine>(std::move(cfg));
  }
  return *eng;
}

/// Execute a prepared query; a non-OK Status is printed and exits the
/// harness non-zero, so no row reports a query that did not run.
inline project::QueryRun ExecuteOrExit(const engine::PreparedQuery& query) {
  project::QueryRun run;
  const Status status = query.Execute(&run);
  if (!status.ok()) {
    (void)std::fprintf(stderr, "Execute failed: %s\n",
                       status.ToString().c_str());
    std::exit(1);
  }
  return run;
}

/// Prepare + ExecuteOrExit.
inline project::QueryRun ExecuteOrExit(const engine::Engine& engine,
                                       const workload::JoinWorkload& w,
                                       const engine::QuerySpec& spec) {
  return ExecuteOrExit(engine.Prepare(w, spec));
}

/// A Radix-Decluster input with the *paper's* distribution (Fig. 4): the
/// result positions (ids) are what remains after clustering the join index
/// by the smaller table's oids. Within each cluster the positions ascend,
/// but they are spread over the whole result range — NOT contiguous — which
/// is precisely why the insertion window matters. (Clustering a permutation
/// on its own upper bits would give contiguous per-cluster ranges and make
/// any window look equally good.)
struct DeclusterInput {
  std::vector<value_t> values;  ///< clustered payload (CLUST_VALUES)
  std::vector<oid_t> ids;       ///< clustered result positions (CLUST_RESULT)
  cluster::ClusterBorders borders;
};

inline DeclusterInput MakeDeclusterInput(size_t n, radix_bits_t bits,
                                         uint64_t seed) {
  struct KeyPos {
    oid_t key;  // foreign oid the join index is clustered on
    oid_t pos;  // result position
  };
  Rng rng(seed);
  std::vector<KeyPos> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = {static_cast<oid_t>(rng.Below(n)), static_cast<oid_t>(i)};
  }
  radix_bits_t sig = SignificantBits(n == 0 ? 1 : n);
  radix_bits_t b = bits > sig ? sig : bits;
  cluster::ClusterSpec spec{.total_bits = b,
                            .ignore_bits = static_cast<radix_bits_t>(sig - b),
                            .passes = b > 11 ? 2u : 1u};
  DeclusterInput in;
  std::vector<KeyPos> scratch(n);
  simcache::NoTracer tracer;
  auto radix_of = [](const KeyPos& p) -> uint64_t { return p.key; };
  in.borders = cluster::RadixClusterMultiPass(pairs.data(), scratch.data(), n,
                                              radix_of, spec, tracer);
  in.ids.resize(n);
  in.values.resize(n);
  for (size_t i = 0; i < n; ++i) {
    in.ids[i] = pairs[i].pos;
    // Payload that verification can recompute from the result position.
    in.values[i] = static_cast<value_t>(pairs[i].pos * 7 + 3);
  }
  return in;
}

}  // namespace radix::bench

#endif  // RADIX_BENCH_BENCH_COMMON_H_
