#include "project/planner.h"

#include <algorithm>

#include "cluster/partition_plan.h"
#include "costmodel/models.h"
#include "decluster/window.h"

namespace radix::project {

bool ColumnFitsCache(size_t tuples, const hardware::MemoryHierarchy& hw) {
  return tuples * sizeof(value_t) <= hw.target_cache().capacity_bytes;
}

namespace {

/// Does one side's random gather working set — its fixed column, plus the
/// offsets + heap of its varchar columns if it projects any — fit `bytes`?
bool SideFits(size_t tuples, size_t pi_varchar, size_t avg_varchar_len,
              size_t bytes) {
  if (tuples * sizeof(value_t) > bytes) return false;
  return pi_varchar == 0 ||
         tuples * (sizeof(uint64_t) + avg_varchar_len) <= bytes;
}

}  // namespace

Plan PlanDsmPost(size_t left_cardinality, size_t right_cardinality,
                 size_t /*index_cardinality*/, size_t pi_left,
                 size_t /*pi_right*/, const hardware::MemoryHierarchy& hw,
                 size_t num_threads, size_t pi_varchar_left,
                 size_t pi_varchar_right, size_t avg_varchar_left_len,
                 size_t avg_varchar_right_len) {
  Plan plan;
  plan.options.num_threads = num_threads;
  const size_t private_bytes = hw.target_cache().capacity_bytes;
  const bool left_fits = SideFits(left_cardinality, pi_varchar_left,
                                  avg_varchar_left_len, private_bytes);
  const bool right_fits = SideFits(right_cardinality, pi_varchar_right,
                                   avg_varchar_right_len, private_bytes);
  plan.easy = left_fits && right_fits;

  // Left side: reordering the index is a one-off, cheap pass, so cluster
  // as soon as the column outgrows the cache this core owns.
  if (left_fits) {
    plan.options.left = SideStrategy::kUnsorted;
  } else if (pi_left + pi_varchar_left > 16) {
    // Fig. 8: with many projection columns the one-off full sort amortizes
    // over the per-column positional joins and beats partial clustering.
    // Varchar columns count: each costs at least a fixed column's gather.
    plan.options.left = SideStrategy::kSorted;
  } else {
    plan.options.left = SideStrategy::kClustered;
  }
  // Right side: d pays cluster + decluster for every column, which only
  // beats a random gather once that gather goes to RAM. A gather whose
  // column fits this core's share of the last level hits there, so u.
  const size_t gather_bytes =
      std::max(private_bytes, hw.llc_share_bytes());
  plan.options.right =
      SideFits(right_cardinality, pi_varchar_right, avg_varchar_right_len,
               gather_bytes)
          ? SideStrategy::kUnsorted
          : SideStrategy::kDecluster;

  plan.code = std::string(SideStrategyCode(plan.options.left)) + "/" +
              SideStrategyCode(plan.options.right);
  return plan;
}

radix_bits_t ChooseDeclusterBitsByModel(size_t index_cardinality,
                                        size_t column_cardinality, size_t pi,
                                        const hardware::MemoryHierarchy& hw) {
  costmodel::CpuCosts cpu = costmodel::CpuCosts::Default();
  radix_bits_t max_bits = SignificantBits(
      column_cardinality == 0 ? 1 : column_cardinality);
  radix_bits_t best_bits = 0;
  double best_cost = -1;
  double columns = static_cast<double>(pi == 0 ? 1 : pi);
  for (radix_bits_t b = 0; b <= max_bits; ++b) {
    uint32_t passes = cluster::PassesFor(b, hw);
    double cluster_s =
        b == 0 ? 0.0
               : costmodel::RadixClusterCost(hw, cpu, index_cardinality, 8, b,
                                             passes)
                     .seconds;
    double posjoin_s = costmodel::ClusteredPositionalJoinCost(
                           hw, cpu, index_cardinality, column_cardinality,
                           sizeof(value_t), b, false)
                           .seconds;
    size_t window = decluster::WindowPolicy::ChooseWindowElems(
        hw, sizeof(value_t), size_t{1} << b, index_cardinality);
    double decluster_s =
        b == 0 ? 0.0  // unsorted: no decluster needed, but posjoin is random
               : costmodel::RadixDeclusterCost(hw, cpu, index_cardinality,
                                               sizeof(value_t), b, window)
                     .seconds;
    double total = cluster_s + columns * (posjoin_s + decluster_s);
    if (best_cost < 0 || total < best_cost) {
      best_cost = total;
      best_bits = b;
    }
  }
  return best_bits;
}

}  // namespace radix::project
