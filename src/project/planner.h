#ifndef RADIX_PROJECT_PLANNER_H_
#define RADIX_PROJECT_PLANNER_H_

#include <cstddef>
#include <string>

#include "common/types.h"
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
  bool easy = false;  ///< smaller column fits the cache
  std::string code;   ///< e.g. "c/d", the Fig. 10c point label
};

/// `num_threads` is carried into the planned DsmPostOptions verbatim (the
/// strategy choice itself is thread-count independent: parallelism scales
/// every candidate's memory phases alike). 1 = serial kernels.
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
                 size_t index_cardinality, size_t pi_left, size_t pi_right,
                 const hardware::MemoryHierarchy& hw, size_t num_threads = 1,
                 size_t pi_varchar_left = 0, size_t pi_varchar_right = 0,
                 size_t avg_varchar_left_len = 0,
                 size_t avg_varchar_right_len = 0);

/// The paper's "easy vs hard" boundary: a column of `tuples` 4-byte values
/// fits the target cache.
bool ColumnFitsCache(size_t tuples, const hardware::MemoryHierarchy& hw);

/// Cost-model-driven choice of the partial-cluster radix bits for a
/// decluster-side projection: minimizes
///   cluster(B) + pi * (positional_join(B) + decluster(B))
/// over B. Encodes the Fig. 7b discussion: the geometric formula's B is
/// usually optimal, but with very few projection columns the one-off
/// Radix-Cluster dominates and fewer bits win ("It sometimes is better to
/// use even fewer Radix-Bits", §4.1).
radix_bits_t ChooseDeclusterBitsByModel(size_t index_cardinality,
                                        size_t column_cardinality, size_t pi,
                                        const hardware::MemoryHierarchy& hw);

}  // namespace radix::project

#endif  // RADIX_PROJECT_PLANNER_H_
