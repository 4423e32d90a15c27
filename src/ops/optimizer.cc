#include "ops/optimizer.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "cluster/radix_cluster.h"
#include "project/planner.h"

namespace radix::ops {

namespace {

/// Predicate selectivity by strided sampling of the base column: cheap,
/// deterministic, and honest about what a real system would have (a
/// statistic, not the truth). A sample with zero hits still reports a
/// small non-zero fraction — downstream estimates divide by these.
double SampleSelectivity(const Catalog& catalog, const Predicate& pred) {
  const Table& table = catalog.table(pred.col.table);
  const size_t n = table.cardinality();
  if (n == 0) return 0.5;
  constexpr size_t kMaxSamples = 1024;
  const size_t step = std::max<size_t>(1, n / kMaxSamples);
  size_t samples = 0;
  size_t hits = 0;
  if (pred.col.is_varchar) {
    const storage::VarcharColumn& col = *table.varchars[pred.col.attr];
    for (size_t i = 0; i < n; i += step) {
      ++samples;
      std::string_view s = col.at(i);
      bool match;
      if (pred.str_prefix) {
        match = s.size() >= pred.str_value.size() &&
                s.compare(0, pred.str_value.size(), pred.str_value) == 0;
      } else {
        match = s == pred.str_value;
      }
      hits += (pred.op == CmpOp::kNe ? !match : match) ? 1 : 0;
    }
  } else {
    const auto& col = table.relation->attr(pred.col.attr);
    for (size_t i = 0; i < n; i += step) {
      ++samples;
      const value_t v = col[i];
      bool match = false;
      switch (pred.op) {
        case CmpOp::kLt: match = v < pred.value; break;
        case CmpOp::kLe: match = v <= pred.value; break;
        case CmpOp::kGt: match = v > pred.value; break;
        case CmpOp::kGe: match = v >= pred.value; break;
        case CmpOp::kEq: match = v == pred.value; break;
        case CmpOp::kNe: match = v != pred.value; break;
      }
      hits += match ? 1 : 0;
    }
  }
  if (hits == 0) return 0.5 / static_cast<double>(samples);
  return static_cast<double>(hits) / static_cast<double>(samples);
}

struct EstimatorState {
  const Catalog* catalog;
  const hardware::MemoryHierarchy* hw;
  const costmodel::CpuCosts* cpu;
  PhysicalPlan* out;
};

/// Bottom-up cardinality estimation + per-edge planning. Returns the
/// estimated row count of the subtree and appends join EdgePlans in
/// post-order.
size_t EstimateNode(EstimatorState* st, const PlanNode& node) {
  switch (node.kind) {
    case NodeKind::kScan:
      return st->catalog->table(node.table).cardinality();
    case NodeKind::kSelect: {
      const size_t child = EstimateNode(st, *node.children[0]);
      const double sel = SampleSelectivity(*st->catalog, node.pred);
      return static_cast<size_t>(std::llround(
          std::max(1.0, sel * static_cast<double>(child))));
    }
    case NodeKind::kJoin: {
      const size_t nl = EstimateNode(st, *node.children[0]);
      const size_t nr = EstimateNode(st, *node.children[1]);
      // Key-equality join over dense key domains: the surviving fraction of
      // each side scales the overlap of the two key sets.
      const size_t base_l =
          st->catalog->table(node.left_table).cardinality();
      const size_t base_r =
          st->catalog->table(node.right_table).cardinality();
      const double fl =
          base_l == 0 ? 0.0
                      : std::min(1.0, static_cast<double>(nl) /
                                          static_cast<double>(base_l));
      const double fr =
          base_r == 0 ? 0.0
                      : std::min(1.0, static_cast<double>(nr) /
                                          static_cast<double>(base_r));
      const size_t overlap = std::min(base_l, base_r);
      const size_t est = static_cast<size_t>(std::llround(
          std::max(1.0, fl * fr * static_cast<double>(overlap))));

      const size_t pi_left = SubtreeTableCount(*node.children[0]);
      const size_t pi_right = SubtreeTableCount(*node.children[1]);

      // Fig. 10 per-edge strategy choice and its cost, against the edge's
      // estimates — the accounting of the two-sided engine Explain, where
      // the "columns" are the subtree oid columns the join gathers.
      project::Plan plan = project::PlanDsmPost(nl, nr, pi_left, *st->hw);
      PhysicalPlan* out = st->out;
      project::DsmPostCostInput in;
      in.left_rows = nl;
      in.right_rows = nr;
      in.index_rows = est;
      in.value_width = sizeof(oid_t);
      in.pi_left = pi_left;
      in.pi_right = pi_right;
      in.sides = plan.options;
      project::DsmPostCost(in, *st->hw, *st->cpu,
                           {&out->join_cost, &out->cluster_cost,
                            &out->projection_cost, &out->decluster_cost});
      // The blocking join's modeled footprint: both drained inputs, the
      // key copies, the join index, and the materialized output oid
      // columns.
      const size_t footprint =
          sizeof(oid_t) * (nl * pi_left + nr * pi_right)  // drained inputs
          + sizeof(value_t) * (nl + nr)                   // gathered keys
          + sizeof(cluster::OidPair) * est                // join index
          + sizeof(oid_t) * est * (pi_left + pi_right);   // output
      out->modeled_intermediate_bytes =
          std::max(out->modeled_intermediate_bytes, footprint);

      EdgePlan edge;
      edge.left_table = node.left_table;
      edge.right_table = node.right_table;
      edge.est_left_rows = nl;
      edge.est_right_rows = nr;
      edge.est_result_rows = est;
      edge.physical.left = plan.options.left;
      edge.physical.right = plan.options.right;
      edge.physical.left_bits = plan.options.left_bits;
      edge.physical.right_bits = plan.options.right_bits;
      edge.easy = plan.easy;
      edge.code = std::move(plan.code);
      out->edges.push_back(std::move(edge));
      return est;
    }
    case NodeKind::kProject:
      return EstimateNode(st, *node.children[0]);
    case NodeKind::kAggregate: {
      const size_t child = EstimateNode(st, *node.children[0]);
      // The aggregate drains its input and clusters (key, row) pairs plus
      // the gathered inputs — that footprint competes with the join edges'.
      const size_t n_inputs =
          node.group_by.size() + node.aggs.size();
      const size_t footprint =
          child * (sizeof(cluster::KeyOid) + sizeof(value_t) * n_inputs);
      st->out->modeled_intermediate_bytes =
          std::max(st->out->modeled_intermediate_bytes, footprint);
      // Output rows: bounded by the input; without group statistics assume
      // most keys are distinct for small inputs.
      return node.group_by.empty() ? 1 : child;
    }
  }
  return 0;
}

}  // namespace

std::string PhysicalPlan::Summary() const {
  std::string s;
  for (const EdgePlan& e : edges) {
    if (!s.empty()) s += "; ";
    // Appended term by term: GCC 12's -Wrestrict false-fires on chained
    // operator+ temporaries (same workaround as PR 1's string concats).
    s += "t";
    s += std::to_string(e.left_table);
    s += "*t";
    s += std::to_string(e.right_table);
    s += ": ";
    s += e.code;
    s += " (est ";
    s += std::to_string(e.est_result_rows);
    s += " rows";
    if (e.easy) s += ", easy";
    s += ")";
  }
  if (s.empty()) s = "no joins";
  return s;
}

Status Optimize(const Catalog& catalog, const LogicalPlan& plan,
                const hardware::MemoryHierarchy& hw,
                const costmodel::CpuCosts& cpu, PhysicalPlan* out) {
  Status valid = ValidatePlan(catalog, plan);
  if (!valid.ok()) return valid;

  *out = PhysicalPlan{};
  EstimatorState st{&catalog, &hw, &cpu, out};
  out->est_result_rows = EstimateNode(&st, *plan.root);
  out->modeled_seconds = out->join_cost.seconds + out->cluster_cost.seconds +
                         out->projection_cost.seconds +
                         out->decluster_cost.seconds;
  return Status::OK();
}

}  // namespace radix::ops
