#ifndef RADIX_PROJECT_PLANNER_H_
#define RADIX_PROJECT_PLANNER_H_

#include <cstddef>
#include <string>

#include "cluster/radix_cluster.h"
#include "common/types.h"
#include "costmodel/models.h"
#include "hardware/memory_hierarchy.h"
#include "project/dsm_post.h"
#include "project/strategy.h"

namespace radix::project {

/// Cost-model-driven choice of the DSM post-projection per-side strategies
/// and radix parameters, encoding the decision rules the paper derives:
///  * "easy" joins (the smaller relation's columns fit the cache) use
///    unsorted positional joins, u/u (paper §3);
///  * "hard" joins reorder the left side — partial cluster (c) for low π,
///    full sort (s) once π grows past ~16 (Fig. 8) — as soon as the left
///    column exceeds the target (private) cache;
///  * the right side uses d (Radix-Decluster) once its column exceeds what
///    a random gather can count on hitting — this core's share of the last
///    level, or the target cache if that is larger — else u (Fig. 10c's
///    progression u/u → c/u → c/d → s/d). On the paper's machine both
///    caches are its one private L2.
struct Plan {
  DsmPostOptions options;
  bool easy = false;  ///< both sides' gather working sets fit the cache
  std::string code;   ///< e.g. "c/d", the Fig. 10c point label
};

/// Side strategies a caller fixes instead of planning them.
struct PinnedSides {
  SideStrategy left = SideStrategy::kClustered;
  SideStrategy right = SideStrategy::kDecluster;
};

/// The one resolver of a DSM post-projection's sides: the planned sides,
/// or `pinned` ones when given, with a right side of s or c coerced to d
/// (§4.1: only the first projection table may be reordered), their code
/// and the easy/hard label. The label depends on the inputs only, never on
/// whether the sides were pinned. The options' radix bits and window stay
/// kAuto/0: callers copy their overrides in.
///
/// Per-column-type planning (paper §5): `pi_varchar_left`/`pi_varchar_right`
/// count the variable-size columns projected per side and
/// `avg_varchar_{left,right}_len` their mean value length in bytes.
/// Varchar columns weigh in twice: they count toward the left side's
/// many-columns sort threshold (each is at least as expensive as a fixed
/// gather), and a side with varchar projections only fits a cache if its
/// 8-byte offsets *and* its heap (tuples * avg_len bytes) fit too —
/// otherwise the right side gets the three-phase varchar decluster (d).
Plan PlanDsmPost(size_t left_cardinality, size_t right_cardinality,
                 size_t pi_left, const hardware::MemoryHierarchy& hw,
                 size_t pi_varchar_left = 0, size_t pi_varchar_right = 0,
                 size_t avg_varchar_left_len = 0,
                 size_t avg_varchar_right_len = 0,
                 const PinnedSides* pinned = nullptr);

/// The decluster side's radix plan: its partial-cluster spec and the
/// insertion window for `value_width`-byte values (`window_override`
/// when non-zero).
struct DeclusterPlan {
  cluster::ClusterSpec spec;
  size_t window_elems = 0;
};

DeclusterPlan PlanDeclusterSide(size_t index_rows, size_t right_rows,
                                size_t value_width, radix_bits_t right_bits,
                                size_t window_override,
                                const hardware::MemoryHierarchy& hw);

/// One DSM post-projection join as the Appendix-A cost model sees it.
/// `value_width` is the bytes per fixed-width value (4-byte values, or the
/// oid columns an operator join gathers); a fixed-column count of 0 is
/// charged as 1; `sides` carries the resolved sides, the radix-bits and
/// window overrides and a d right side's streamed result range
/// (`sides.chunk_rows`, 0 = materialize).
struct DsmPostCostInput {
  size_t left_rows = 0;
  size_t right_rows = 0;
  size_t index_rows = 0;
  size_t value_width = sizeof(value_t);
  size_t pi_left = 1;
  size_t pi_right = 1;
  size_t pi_varchar_left = 0;
  size_t pi_varchar_right = 0;
  size_t avg_varchar_left_len = 0;
  size_t avg_varchar_right_len = 0;
  DsmPostOptions sides;
};

/// The caller's per-phase totals; `varchar_decluster` may be null when no
/// right-side varchar column is projected.
struct PhaseCostTotals {
  costmodel::CostEstimate* join;
  costmodel::CostEstimate* cluster;
  costmodel::CostEstimate* projection;
  costmodel::CostEstimate* decluster;
  costmodel::CostEstimate* varchar_decluster = nullptr;
};

/// The modeled cost of one DSM post-projection join, added into `totals`:
/// the partitioned hash join, the left index reorder and gathers, the
/// right side's gathers (u) or cluster + gather + Radix-Decluster (d; one
/// fused RadixDeclusterGatherCost term per column when streamed), and
/// the Fig. 12 varchar decluster term. The engine's two-sided Explain and
/// the ops optimizer's per-edge costs both come from here.
void DsmPostCost(const DsmPostCostInput& in,
                 const hardware::MemoryHierarchy& hw,
                 const costmodel::CpuCosts& cpu, const PhaseCostTotals& totals);

/// The paper's "easy vs hard" boundary: a column of `tuples` 4-byte values
/// fits the target cache.
bool ColumnFitsCache(size_t tuples, const hardware::MemoryHierarchy& hw);

}  // namespace radix::project

#endif  // RADIX_PROJECT_PLANNER_H_
