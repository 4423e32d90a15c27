// Differential fuzz target: random logical plan trees through the whole
// optimized stack — ops::Optimize (cost-model strategy choice) +
// ops::ExecutePlan (chunked operator engine over the radix kernels) —
// against ops::ReferenceExecute, the scalar tuple-at-a-time interpreter
// with no radix machinery. The checksum construction is shared, so:
//   * if the optimized path accepts the tree, the reference must too, and
//     row count + checksum must match exactly (a divergence is a wrong
//     answer in some radix kernel or in the estimator's plumbing);
//   * if the optimized path rejects the tree, the reference must reject it
//     as well (Status parity — an error-path divergence would read as a
//     found bug in every later differential run).
//
// The tree builder deliberately decodes table/attr indices from ranges one
// past the catalog, so a slice of inputs is malformed: the parity branch
// is exercised on every run, and the validator itself is under test (the
// post-order fix in ops/plan.cc came from this harness; regression seed
// oob_scan_under_project).

#include <cstdint>
#include <memory>
#include <vector>

#include "costmodel/models.h"
#include "fuzz_check.h"
#include "fuzz_input.h"
#include "hardware/memory_hierarchy.h"
#include "ops/executor.h"
#include "ops/optimizer.h"
#include "ops/plan.h"
#include "ops/reference.h"
#include "ops/table.h"
#include "workload/chain.h"

namespace {

using radix::fuzz::FuzzInput;
using radix::ops::ColumnRef;
using radix::ops::LogicalPlan;
using radix::ops::PlanNode;

constexpr size_t kTables = 3;

/// One static chain workload: 3 joinable tables, fixed + varchar payloads.
/// Building data per input would drown the signal in generator time.
struct Fixture {
  radix::workload::ChainWorkload workload;
  radix::ops::Catalog catalog;
  radix::hardware::MemoryHierarchy hw;
  radix::costmodel::CpuCosts cpu;

  Fixture()
      : workload([] {
          radix::workload::ChainWorkloadSpec spec;
          spec.cardinalities = {600, 400, 500};
          spec.num_attrs = 3;
          spec.seed = 11;
          spec.varchar.num_cols = 1;
          spec.varchar.min_len = 0;
          spec.varchar.max_len = 12;
          spec.varchar.empty_fraction = 0.05;
          return radix::workload::MakeChainWorkload(spec);
        }()),
        catalog(radix::ops::CatalogFromChainWorkload(workload)),
        hw(radix::hardware::MemoryHierarchy::Pentium4()),
        cpu(radix::costmodel::CpuCosts::Default()) {}
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// Mostly-valid index: in range, but one past it a few % of the time so
/// malformed trees stay in the input distribution.
size_t TableIndex(FuzzInput& in) {
  return in.U8() % 16 == 0 ? kTables + in.SizeInRange(0, 2)
                           : in.SizeInRange(0, kTables - 1);
}

ColumnRef DecodeColumnRef(FuzzInput& in, const std::vector<size_t>& tables) {
  ColumnRef ref;
  ref.table = tables.empty() || in.U8() % 16 == 0 ? TableIndex(in)
                                                  : tables[in.SizeInRange(
                                                        0, tables.size() - 1)];
  ref.is_varchar = in.U8() % 4 == 0;
  // Valid attrs: fixed 0..2 (key + 2 payloads), varchar only column 0;
  // decode one past to probe the attr-range checks.
  ref.attr = ref.is_varchar ? in.SizeInRange(0, 1) : in.SizeInRange(0, 3);
  return ref;
}

radix::ops::Predicate DecodePredicate(FuzzInput& in,
                                      const std::vector<size_t>& tables) {
  radix::ops::Predicate pred;
  pred.col = DecodeColumnRef(in, tables);
  pred.op = static_cast<radix::ops::CmpOp>(in.InRange(0, 5));
  if (pred.col.is_varchar) {
    pred.str_value = in.Ascii(in.SizeInRange(0, 6));
    pred.str_prefix = in.Bool();
  } else {
    pred.value = in.I32() % 4096;  // near the payload range, so selects bite
  }
  return pred;
}

/// Random join/select tree; `tables` collects the scanned tables so column
/// refs and join keys usually name visible tables.
std::unique_ptr<PlanNode> BuildSubtree(FuzzInput& in, size_t depth,
                                       std::vector<size_t>* tables) {
  const uint8_t pick = in.U8();
  if (depth == 0 || pick % 4 == 0) {
    const size_t t = TableIndex(in);
    tables->push_back(t);
    return radix::ops::Scan(t);
  }
  if (pick % 4 == 1) {
    std::unique_ptr<PlanNode> child = BuildSubtree(in, depth - 1, tables);
    return radix::ops::Select(std::move(child), DecodePredicate(in, *tables));
  }
  std::vector<size_t> left_tables, right_tables;
  std::unique_ptr<PlanNode> left = BuildSubtree(in, depth - 1, &left_tables);
  std::unique_ptr<PlanNode> right = BuildSubtree(in, depth - 1, &right_tables);
  const size_t lt = left_tables.empty() || in.U8() % 16 == 0
                        ? TableIndex(in)
                        : left_tables[in.SizeInRange(0, left_tables.size() - 1)];
  const size_t rt =
      right_tables.empty() || in.U8() % 16 == 0
          ? TableIndex(in)
          : right_tables[in.SizeInRange(0, right_tables.size() - 1)];
  tables->insert(tables->end(), left_tables.begin(), left_tables.end());
  tables->insert(tables->end(), right_tables.begin(), right_tables.end());
  return radix::ops::Join(std::move(left), std::move(right), lt, rt);
}

LogicalPlan BuildPlan(FuzzInput& in) {
  std::vector<size_t> tables;
  // Decoded before the call: argument evaluation order is unspecified and
  // the byte stream must decode identically on every compiler, or corpus
  // seeds would mean different trees in different builds.
  const size_t depth = in.SizeInRange(1, 3);
  std::unique_ptr<PlanNode> body = BuildSubtree(in, depth, &tables);
  LogicalPlan plan;
  if (in.Bool()) {
    std::vector<ColumnRef> columns;
    const size_t n_cols = in.SizeInRange(1, 4);
    for (size_t i = 0; i < n_cols; ++i) {
      columns.push_back(DecodeColumnRef(in, tables));
    }
    plan.root = radix::ops::Project(std::move(body), std::move(columns));
  } else {
    std::vector<ColumnRef> group_by;
    if (in.Bool()) {
      ColumnRef g = DecodeColumnRef(in, tables);
      group_by.push_back(g);
    }
    std::vector<radix::ops::AggExpr> aggs;
    const size_t n_aggs = in.SizeInRange(1, 3);
    for (size_t i = 0; i < n_aggs; ++i) {
      radix::ops::AggExpr agg;
      agg.fn = static_cast<radix::ops::AggFn>(in.InRange(0, 3));
      agg.col = DecodeColumnRef(in, tables);
      aggs.push_back(agg);
    }
    plan.root =
        radix::ops::Aggregate(std::move(body), std::move(group_by), aggs);
  }
  return plan;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const Fixture& f = fixture();

  LogicalPlan plan = BuildPlan(in);
  // Chunk-size sweep: 0 = cache-sized default; tiny chunks stress the
  // chunk-boundary logic the most.
  const size_t chunk_rows_choices[] = {0, 1, 7, 64, 1000};
  radix::ops::ExecOptions exec_opts;
  exec_opts.hw = &f.hw;
  exec_opts.chunk_rows = chunk_rows_choices[in.InRange(0, 4)];

  radix::ops::PlanRun ref_run;
  radix::Status ref = radix::ops::ReferenceExecute(f.catalog, plan, &ref_run);

  radix::ops::PhysicalPlan physical;
  radix::Status opt =
      radix::ops::Optimize(f.catalog, plan, f.hw, f.cpu, &physical);

  if (!opt.ok()) {
    FUZZ_CHECK(!ref.ok(),
               "reference must reject every tree the optimizer rejects");
    return 0;
  }
  FUZZ_CHECK(ref.ok(), "reference must accept every tree the optimizer accepts");

  radix::ops::PlanRun run;
  radix::Status ex =
      radix::ops::ExecutePlan(f.catalog, plan, physical, exec_opts, &run);
  FUZZ_CHECK(ex.ok(), "executor must execute every optimized plan");
  FUZZ_CHECK(run.result_rows == ref_run.result_rows,
             "row-count divergence from the scalar reference");
  FUZZ_CHECK(run.checksum == ref_run.checksum,
             "checksum divergence from the scalar reference");
  return 0;
}
