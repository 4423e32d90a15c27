// Quickstart: run the paper's project-join query end-to-end through the
// session engine — the library's public entry point — and print the plan
// *before* it runs (Prepare -> Explain -> Execute).
//
//   SELECT larger.a1, larger.a2, smaller.b1, smaller.b2
//   FROM larger, smaller WHERE larger.key = smaller.key
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart [cardinality]

#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/hash.h"
#include "engine/engine.h"
#include "project/checksum.h"
#include "workload/generator.h"

namespace {

/// Independent ground truth: a scalar nested-loop join + projection digest
/// sharing no code with the radix kernels (only the canonical per-row
/// digest). Any engine strategy must land on exactly this
/// order-independent checksum — string bytes included.
uint64_t ReferenceChecksum(const radix::workload::JoinWorkload& w,
                           size_t pi_left, size_t pi_right,
                           size_t pi_varchar) {
  using radix::value_t;
  std::multimap<value_t, size_t> right_index;
  for (size_t i = 0; i < w.dsm_right.cardinality(); ++i) {
    right_index.emplace(w.dsm_right.key()[i], i);
  }
  uint64_t sum = 0;
  for (size_t i = 0; i < w.dsm_left.cardinality(); ++i) {
    auto [lo, hi] = right_index.equal_range(w.dsm_left.key()[i]);
    for (auto it = lo; it != hi; ++it) {
      radix::project::RowDigest d;
      for (size_t c = 0; c < pi_left; ++c) {
        d.AddValue(w.dsm_left.attr(1 + c)[i]);
      }
      for (size_t c = 0; c < pi_right; ++c) {
        d.AddValue(w.dsm_right.attr(1 + c)[it->second]);
      }
      for (size_t c = 0; c < pi_varchar; ++c) {
        d.AddString(w.left_varchars[c].at(i));
      }
      for (size_t c = 0; c < pi_varchar; ++c) {
        d.AddString(w.right_varchars[c].at(it->second));
      }
      sum += d.digest();
    }
  }
  return sum;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace radix;  // NOLINT

  size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : (1u << 20);

  // 1. Build the session engine once per process. The config owns the
  //    machine description (Detect() reads cache geometry from sysfs; the
  //    paper's Pentium 4 is available as a preset), the worker pool, and
  //    the cost-model constants. calibrate_on_startup = true would refine
  //    the latencies with the §1.1-style runtime Calibrator.
  engine::EngineConfig config;
  config.num_threads = 1;  // serial kernels; try 0 for all hardware threads
  engine::Engine eng(std::move(config));
  std::printf("Memory hierarchy:\n%s\n", eng.hierarchy().ToString().c_str());

  // 2. Generate the paper's workload: two relations of N tuples, 4 fixed
  //    attributes each (key + 3 payload columns) plus one varchar payload
  //    column per side (paper §5's variable-size values), hit rate 1:1.
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = 4;
  spec.hit_rate = 1.0;
  spec.varchar.num_cols = 1;
  workload::JoinWorkload w = workload::MakeJoinWorkload(spec);
  std::printf("Workload: N = %zu tuples per relation, expected result %zu, "
              "varchar heap %zu KB/side\n\n",
              n, w.expected_result_size,
              w.left_varchars[0].heap_bytes() / 1024);

  // 3. Prepare the query. The planner resolves the per-side strategies
  //    (Fig. 10c's u/u -> c/u -> c/d -> s/d progression), the radix/window
  //    parameters, and materializing-vs-streaming execution — and Explain()
  //    shows the whole plan with its modeled cost before anything runs.
  engine::QuerySpec query;
  query.pi_left = 2;
  query.pi_right = 2;
  query.pi_varchar_left = 1;   // mixed fixed+varchar projection list:
  query.pi_varchar_right = 1;  // the right strings run Fig. 12's scheme
  engine::PreparedQuery prepared = eng.Prepare(w, query);
  std::printf("Explain:\n%s\n\n", prepared.Explain().ToString().c_str());

  // 4. Execute on the session resources: Partitioned Hash-Join on the key
  //    columns, then the planned post-projection (e.g. partial cluster on
  //    the left, cluster + positional join + Radix-Decluster on the right).
  project::QueryRun run;
  const Status status = prepared.Execute(&run);
  if (!status.ok()) {
    (void)std::fprintf(stderr, "Execute failed: %s\n",
                       status.ToString().c_str());
    return 1;
  }
  std::printf("Result: %zu tuples, plan %s, %zu thread(s)\n",
              run.result_cardinality, run.detail.c_str(), run.threads_used);
  std::printf("Phases: join %.2f ms, cluster %.2f ms, positional joins "
              "%.2f ms, decluster %.2f ms\n",
              run.phases.join_seconds * 1e3, run.phases.cluster_seconds * 1e3,
              run.phases.projection_seconds * 1e3,
              run.phases.decluster_seconds * 1e3);

  // 5. Verify against ground truth: a scalar nested-loop reference that
  //    shares no code with the radix kernels must produce the same
  //    order-independent checksum — and so must project::RunQuery, the
  //    strategy runner underneath, called directly on the same profile.
  size_t errors = 0;
  uint64_t expected = ReferenceChecksum(w, 2, 2, 1);
  if (run.checksum != expected) ++errors;
  std::printf("Scalar reference check (incl. string bytes): %s\n",
              run.checksum == expected ? "checksum matches" : "MISMATCH");
  project::QueryOptions direct;
  direct.pi_left = 2;
  direct.pi_right = 2;
  direct.pi_varchar_left = 1;
  direct.pi_varchar_right = 1;
  project::QueryRun ref = project::RunQuery(
      w, project::JoinStrategy::kDsmPostDecluster, direct, eng.hierarchy());
  if (run.checksum != ref.checksum) ++errors;
  if (run.result_cardinality != ref.result_cardinality) ++errors;
  std::printf("Cross-check vs direct RunQuery: %s\n",
              run.checksum == ref.checksum ? "checksums match" : "MISMATCH");
  return errors == 0 ? 0 : 1;
}
