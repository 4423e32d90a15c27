// Differential fuzz target: the six Fig. 10 projection strategies over a
// decoded varchar workload, each checked against an O(n^2) nested-loop
// scalar reference (no hash tables, no radix kernels — only the
// deterministic payload functions and the shared per-row digest). The
// decoded dimensions are exactly the workload knobs of paper §4/§5:
// cardinality, hit rate, selectivity, projection widths, and the varchar
// distribution (uniform / Zipf-skewed / empty-heavy), so the fuzzer walks
// the same parameter space as Figs. 10-13 but off the grid the tests pin.
// A last run pins the DSM post-projection's sides (u/u, c/u, c/d, s/d) and
// decodes the d side's streamed range (0 = materialize, 1, or 1..2N).

#include <cstdint>
#include <vector>

#include "common/overflow.h"
#include "fuzz_check.h"
#include "fuzz_input.h"
#include "hardware/memory_hierarchy.h"
#include "project/checksum.h"
#include "project/executor.h"
#include "project/planner.h"
#include "project/strategy.h"
#include "workload/generator.h"

namespace {

using radix::value_t;
using radix::project::JoinStrategy;
using radix::project::SideStrategy;

/// The nested-loop oracle from tests/varchar_query_test.cc, verbatim in
/// construction: per-row digests over (left fixed, right fixed, left
/// varchar, right varchar), summed mod 2^64.
uint64_t ReferenceChecksum(const radix::workload::JoinWorkload& w,
                           const radix::workload::JoinWorkloadSpec& ws,
                           const radix::project::QueryOptions& opt,
                           size_t* cardinality) {
  uint64_t sum = 0;
  size_t rows = 0;
  const size_t n = w.dsm_left.cardinality();
  for (size_t i = 0; i < n; ++i) {
    const value_t lk = w.dsm_left.key()[i];
    for (size_t j = 0; j < w.dsm_right.cardinality(); ++j) {
      if (w.dsm_right.key()[j] != lk) continue;
      radix::project::RowDigest d;
      for (size_t c = 0; c < opt.pi_left; ++c) {
        d.AddValue(radix::workload::PayloadValue(lk, 1 + c));
      }
      for (size_t c = 0; c < opt.pi_right; ++c) {
        d.AddValue(radix::workload::PayloadValue(lk, 1 + c + 1000));
      }
      for (size_t c = 0; c < opt.pi_varchar_left; ++c) {
        d.AddString(radix::workload::PayloadString(lk, c, ws.varchar));
      }
      for (size_t c = 0; c < opt.pi_varchar_right; ++c) {
        d.AddString(radix::workload::PayloadString(
            lk, radix::workload::kRightVarcharAttrOffset + c, ws.varchar));
      }
      sum = radix::WrapAdd(sum, d.digest());
      ++rows;
    }
  }
  if (cardinality != nullptr) *cardinality = rows;
  return sum;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  radix::fuzz::FuzzInput in(data, size);

  radix::workload::JoinWorkloadSpec ws;
  ws.cardinality = in.SizeInRange(1, 288);
  ws.num_attrs = in.SizeInRange(2, 4);
  const double hit_rates[] = {0.3, 1.0, 3.0};
  ws.hit_rate = hit_rates[in.InRange(0, 2)];
  ws.selectivity = in.Bool() ? 1.0 : 0.5;
  ws.seed = in.U64();
  ws.varchar.num_cols = in.SizeInRange(1, 2);
  ws.varchar.min_len = in.SizeInRange(0, 4);
  ws.varchar.max_len = ws.varchar.min_len + in.SizeInRange(0, 24);
  ws.varchar.zipf_skew = in.Bool() ? 0.0 : 1.2;
  ws.varchar.empty_fraction =
      static_cast<double>(in.InRange(0, 10)) / 10.0;  // includes all-empty
  const radix::workload::JoinWorkload w = radix::workload::MakeJoinWorkload(ws);

  radix::project::QueryOptions opt;
  opt.pi_left = in.SizeInRange(0, ws.num_attrs - 1);
  opt.pi_right = in.SizeInRange(0, ws.num_attrs - 1);
  opt.pi_varchar_left = in.SizeInRange(0, ws.varchar.num_cols);
  opt.pi_varchar_right = in.SizeInRange(0, ws.varchar.num_cols);
  // At least one projected column: the engine's row count rides on the
  // materialized columns (zero-width rows collapse to cardinality 0, see
  // executor.cc), so the all-empty projection list is outside the query
  // contract — and outside Fig. 10's parameter space, which always
  // projects width >= 1.
  if (opt.pi_left + opt.pi_right + opt.pi_varchar_left + opt.pi_varchar_right ==
      0) {
    opt.pi_left = 1;
  }

  size_t expected_rows = 0;
  const uint64_t expected =
      ReferenceChecksum(w, ws, opt, &expected_rows);

  const auto hw = radix::hardware::MemoryHierarchy::Pentium4();
  for (int s = 0; s <= 5; ++s) {
    const auto strategy = static_cast<JoinStrategy>(s);
    radix::project::QueryRun run =
        radix::project::RunQuery(w, strategy, opt, hw);
    FUZZ_CHECK(run.result_cardinality == expected_rows,
               radix::project::JoinStrategyName(strategy));
    FUZZ_CHECK(run.checksum == expected,
               radix::project::JoinStrategyName(strategy));
  }

  // Decoded after every field above, so the committed corpus keeps its
  // meaning (an exhausted stream decodes u/u, materializing).
  const radix::project::PinnedSides sides[] = {
      {SideStrategy::kUnsorted, SideStrategy::kUnsorted},
      {SideStrategy::kClustered, SideStrategy::kUnsorted},
      {SideStrategy::kClustered, SideStrategy::kDecluster},
      {SideStrategy::kSorted, SideStrategy::kDecluster}};
  const radix::project::PinnedSides& pinned = sides[in.InRange(0, 3)];
  const uint64_t range_kind = in.InRange(0, 2);
  const size_t range_rows = in.SizeInRange(1, 2 * ws.cardinality);
  radix::project::QueryOptions popt = opt;
  popt.plan_sides = false;
  popt.left = pinned.left;
  popt.right = pinned.right;
  popt.chunk_rows = range_kind == 0 ? 0 : (range_kind == 1 ? 1 : range_rows);
  const radix::project::QueryRun run = radix::project::RunQuery(
      w, JoinStrategy::kDsmPostDecluster, popt, hw);
  FUZZ_CHECK(run.result_cardinality == expected_rows, "pinned DSM-post");
  FUZZ_CHECK(run.checksum == expected, "pinned DSM-post");
  return 0;
}
