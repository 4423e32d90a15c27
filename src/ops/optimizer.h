#ifndef RADIX_OPS_OPTIMIZER_H_
#define RADIX_OPS_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "costmodel/models.h"
#include "hardware/memory_hierarchy.h"
#include "ops/operator.h"
#include "ops/plan.h"
#include "ops/table.h"

namespace radix::ops {

/// The optimizer's physical choice for one join edge: the Fig. 10 per-side
/// post-projection strategies, chosen by the cost model from the edge's
/// *estimated* input and output cardinalities (selectivities sampled from
/// the base columns, join sizes propagated bottom-up). Edges are stored in
/// post-order of the plan's join nodes — the same traversal the executor
/// uses to build RadixJoinOps, so edge i always belongs to join node i.
struct EdgePlan {
  size_t left_table = 0;
  size_t right_table = 0;
  JoinEdgePhysical physical;
  std::string code;  ///< Fig. 10 point label, e.g. "c/d"
  bool easy = false;
  size_t est_left_rows = 0;
  size_t est_right_rows = 0;
  size_t est_result_rows = 0;
};

/// A costed physical plan for a logical plan tree: per-edge strategies plus
/// the modeled phase costs summed over every edge (the same Appendix-A
/// formulas the two-sided engine Explain uses, applied per edge).
struct PhysicalPlan {
  std::vector<EdgePlan> edges;
  size_t est_result_rows = 0;
  /// Peak modeled footprint of the blocking operators (drained inputs +
  /// join index + materialized output of the widest edge; gathered
  /// grouping pairs for an aggregate) — the admission currency.
  size_t modeled_intermediate_bytes = 0;
  costmodel::CostEstimate join_cost;
  costmodel::CostEstimate cluster_cost;
  costmodel::CostEstimate projection_cost;
  costmodel::CostEstimate decluster_cost;
  double modeled_seconds = 0;

  /// One line per edge: "t0*t1: c/d (est 65536 rows)".
  std::string Summary() const;
};

/// Cost-model-driven physical planning: validates the plan, estimates
/// cardinalities bottom-up (predicate selectivities by strided sampling of
/// the base columns), and picks each join edge's Fig. 10 strategy with
/// project::PlanDsmPost against the edge's estimates. A right side of s/c
/// is coerced to d (only the first projection table of an edge may be
/// reordered, §4.1 — and a composable operator must not reorder its
/// output against its siblings).
[[nodiscard]] Status Optimize(const Catalog& catalog, const LogicalPlan& plan,
                              const hardware::MemoryHierarchy& hw,
                              const costmodel::CpuCosts& cpu,
                              PhysicalPlan* out);

}  // namespace radix::ops

#endif  // RADIX_OPS_OPTIMIZER_H_
