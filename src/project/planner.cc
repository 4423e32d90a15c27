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
                 size_t pi_left, const hardware::MemoryHierarchy& hw,
                 size_t pi_varchar_left, size_t pi_varchar_right,
                 size_t avg_varchar_left_len, size_t avg_varchar_right_len,
                 const PinnedSides* pinned) {
  Plan plan;
  const size_t private_bytes = hw.target_cache().capacity_bytes;
  const bool left_fits = SideFits(left_cardinality, pi_varchar_left,
                                  avg_varchar_left_len, private_bytes);
  const bool right_fits = SideFits(right_cardinality, pi_varchar_right,
                                   avg_varchar_right_len, private_bytes);
  plan.easy = left_fits && right_fits;

  if (pinned != nullptr) {
    plan.options.left = pinned->left;
    plan.options.right = pinned->right;
  } else {
    // Left side: reordering the index is a one-off, cheap pass, so cluster
    // as soon as the column outgrows the cache this core owns.
    if (left_fits) {
      plan.options.left = SideStrategy::kUnsorted;
    } else if (pi_left + pi_varchar_left > 16) {
      // Fig. 8: with many projection columns the one-off full sort
      // amortizes over the per-column positional joins and beats partial
      // clustering. Varchar columns count: each costs at least a fixed
      // column's gather.
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
  }
  if (plan.options.right == SideStrategy::kSorted ||
      plan.options.right == SideStrategy::kClustered) {
    plan.options.right = SideStrategy::kDecluster;
  }

  plan.code = SideStrategyCode(plan.options.left);
  plan.code += "/";
  plan.code += SideStrategyCode(plan.options.right);
  return plan;
}

DeclusterPlan PlanDeclusterSide(size_t index_rows, size_t right_rows,
                                size_t value_width, radix_bits_t right_bits,
                                size_t window_override,
                                const hardware::MemoryHierarchy& hw) {
  DeclusterPlan plan;
  plan.spec = detail::SpecFor(SideStrategy::kClustered, index_rows,
                              right_rows, hw, right_bits);
  plan.window_elems =
      window_override != 0
          ? window_override
          : decluster::WindowPolicy::ChooseWindowElems(
                hw, value_width, size_t{1} << plan.spec.total_bits,
                std::max<size_t>(1, index_rows));
  return plan;
}

void DsmPostCost(const DsmPostCostInput& in,
                 const hardware::MemoryHierarchy& hw,
                 const costmodel::CpuCosts& cpu,
                 const PhaseCostTotals& totals) {
  using costmodel::CostEstimate;
  auto add = [](CostEstimate* into, const CostEstimate& c, double factor) {
    into->misses += c.misses * factor;
    into->seconds += c.seconds * factor;
  };
  const size_t n = in.index_rows;
  // One side's positional gathers: its fixed columns, then its varchar
  // columns, which touch the 8-byte offsets plus avg_len heap bytes per
  // tuple and are modeled as a gather of that width.
  auto varchar_gathers = [&](size_t rows, size_t pi_varchar,
                             size_t varchar_len, radix_bits_t bits,
                             bool sorted) {
    if (pi_varchar > 0) {
      add(totals.projection,
          costmodel::ClusteredPositionalJoinCost(
              hw, cpu, n, rows, sizeof(uint64_t) + varchar_len, bits, sorted),
          static_cast<double>(pi_varchar));
    }
  };
  auto gathers = [&](size_t rows, size_t pi, size_t pi_varchar,
                     size_t varchar_len, radix_bits_t bits, bool sorted) {
    add(totals.projection,
        costmodel::ClusteredPositionalJoinCost(hw, cpu, n, rows,
                                               in.value_width, bits, sorted),
        static_cast<double>(std::max<size_t>(1, pi)));
    varchar_gathers(rows, pi_varchar, varchar_len, bits, sorted);
  };

  // The join index is [left-oid, right-oid] pairs; its partitioned hash
  // join is clustered by cache geometry.
  const size_t pair_width = sizeof(cluster::KeyOid);
  add(totals.join,
      costmodel::PartitionedHashJoinCost(
          hw, cpu, in.left_rows, in.right_rows, pair_width,
          cluster::PartitionedJoinBits(in.right_rows, pair_width, hw)),
      1.0);

  // Left side: reorder the index (full sort, or partial cluster of the oid
  // pairs), then gather in that order.
  const bool sorted = in.sides.left == SideStrategy::kSorted;
  radix_bits_t left_bits = 0;
  if (in.sides.left != SideStrategy::kUnsorted) {
    const cluster::ClusterSpec spec = detail::SpecFor(
        sorted ? SideStrategy::kSorted : SideStrategy::kClustered, n,
        in.left_rows, hw, in.sides.left_bits);
    add(totals.cluster,
        costmodel::RadixClusterCost(hw, cpu, n, sizeof(cluster::OidPair),
                                    spec.total_bits, spec.passes),
        1.0);
    if (!sorted) left_bits = spec.total_bits;
  }
  gathers(in.left_rows, in.pi_left, in.pi_varchar_left,
          in.avg_varchar_left_len, left_bits, sorted);

  // Right side: u gathers in result order; d clusters (id, result-position)
  // pairs once, then gathers and Radix-Declusters every column.
  if (in.sides.right == SideStrategy::kUnsorted) {
    gathers(in.right_rows, in.pi_right, in.pi_varchar_right,
            in.avg_varchar_right_len, /*bits=*/0, /*sorted=*/false);
    return;
  }
  const DeclusterPlan d =
      PlanDeclusterSide(n, in.right_rows, in.value_width, in.sides.right_bits,
                        in.sides.window_elems, hw);
  const radix_bits_t bits = d.spec.total_bits;
  add(totals.cluster,
      costmodel::RadixClusterCost(hw, cpu, n, 2 * sizeof(oid_t), bits,
                                  d.spec.passes),
      1.0);
  const double pi_right = static_cast<double>(std::max<size_t>(1, in.pi_right));
  if (in.sides.chunk_rows != 0) {
    // Streamed: RadixDeclusterGather fetches every fixed value inside the
    // merge, so its one fused term replaces the fixed gather and decluster
    // terms. The varchar columns still gather in clustered order.
    add(totals.decluster,
        costmodel::RadixDeclusterGatherCost(hw, cpu, n, in.right_rows,
                                            in.value_width, bits,
                                            in.sides.chunk_rows),
        pi_right);
    varchar_gathers(in.right_rows, in.pi_varchar_right,
                    in.avg_varchar_right_len, bits, /*sorted=*/false);
  } else {
    gathers(in.right_rows, in.pi_right, in.pi_varchar_right,
            in.avg_varchar_right_len, bits, /*sorted=*/false);
    add(totals.decluster,
        costmodel::RadixDeclusterCost(hw, cpu, n, in.value_width, bits,
                                      d.window_elems),
        pi_right);
  }
  if (in.pi_varchar_right > 0) {
    // The Fig. 12 three-phase paged-decluster term; its window holds
    // avg_len-byte values (the executor sizes it the same way).
    const size_t window =
        PlanDeclusterSide(n, in.right_rows,
                          std::max(sizeof(uint32_t), in.avg_varchar_right_len),
                          in.sides.right_bits, in.sides.window_elems, hw)
            .window_elems;
    add(totals.varchar_decluster,
        costmodel::VarcharRadixDeclusterCost(
            hw, cpu, n, in.avg_varchar_right_len, bits, window),
        static_cast<double>(in.pi_varchar_right));
  }
}

}  // namespace radix::project
