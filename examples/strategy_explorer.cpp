// Strategy explorer: runs the paper's project-join query under all six
// end-to-end strategies of Fig. 10 on one workload, prints a comparison
// table, and cross-checks that every strategy computed the same relation
// (order-independent checksum).
//
//   ./build/examples/strategy_explorer [N] [omega] [pi] [hit_rate_pct]
// e.g.
//   ./build/examples/strategy_explorer 500000 64 4 100

#include <cstdio>
#include <cstdlib>

#include "engine/engine.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace radix;  // NOLINT
  using project::JoinStrategy;

  size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500'000;
  size_t omega = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 16;
  size_t pi = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 4;
  double h = argc > 4 ? std::strtod(argv[4], nullptr) / 100.0 : 1.0;
  if (pi + 1 > omega) {
    std::fprintf(stderr, "pi must be < omega\n");
    return 2;
  }

  // One session engine drives all six strategies; Explain() supplies the
  // modeled cost column so measured and predicted sit side by side.
  engine::Engine eng{engine::EngineConfig{}};
  workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = omega;
  spec.hit_rate = h;
  workload::JoinWorkload w = workload::MakeJoinWorkload(spec);

  std::printf("Query: N=%zu, omega=%zu, pi=%zu per side, hit rate %.2f\n\n",
              n, omega, pi, h);
  std::printf("%-22s %10s %10s %12s %11s %8s  %s\n", "strategy", "total ms",
              "join ms", "project ms", "modeled ms", "tuples", "detail");

  engine::QuerySpec qspec;
  qspec.pi_left = pi;
  qspec.pi_right = pi;

  uint64_t reference_checksum = 0;
  bool first = true;
  bool mismatch = false;
  for (JoinStrategy s :
       {JoinStrategy::kNsmPreHash, JoinStrategy::kNsmPrePhash,
        JoinStrategy::kDsmPrePhash, JoinStrategy::kDsmPostDecluster,
        JoinStrategy::kNsmPostDecluster, JoinStrategy::kNsmPostJive}) {
    qspec.strategy = s;
    engine::PreparedQuery prepared = eng.Prepare(w, qspec);
    project::QueryRun run;
    const Status status = prepared.Execute(&run);
    if (!status.ok()) {
      (void)std::fprintf(stderr, "%s: Execute failed: %s\n",
                         project::JoinStrategyName(s),
                         status.ToString().c_str());
      return 1;
    }
    double project_ms = (run.phases.cluster_seconds +
                         run.phases.projection_seconds +
                         run.phases.decluster_seconds) *
                        1e3;
    std::printf("%-22s %10.1f %10.1f %12.1f %11.1f %8zu  %s\n",
                project::JoinStrategyName(s), run.seconds * 1e3,
                run.phases.join_seconds * 1e3, project_ms,
                prepared.Explain().modeled_seconds * 1e3,
                run.result_cardinality, run.detail.c_str());
    if (first) {
      reference_checksum = run.checksum;
      first = false;
    } else if (run.checksum != reference_checksum) {
      mismatch = true;
      std::printf("  ^^ CHECKSUM MISMATCH\n");
    }
  }
  std::printf("\nAll strategies %s the same relation.\n",
              mismatch ? "did NOT compute" : "computed");
  return mismatch ? 1 : 0;
}
