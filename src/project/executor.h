#ifndef RADIX_PROJECT_EXECUTOR_H_
#define RADIX_PROJECT_EXECUTOR_H_

#include <cstdint>
#include <string>

#include "common/types.h"
#include "hardware/memory_hierarchy.h"
#include "project/strategy.h"
#include "workload/generator.h"

namespace radix {
class ThreadPool;
}  // namespace radix

namespace radix::pipeline {
class MemoryGauge;
}  // namespace radix::pipeline

namespace radix::project {

/// End-to-end run of the paper's project-join query under one overall
/// strategy; the unit of comparison in Fig. 10. The checksum is an
/// order-independent digest of all result values, used to assert that every
/// strategy computed the same relation (result *order* legitimately
/// differs between strategies).
struct QueryRun {
  JoinStrategy strategy;
  size_t result_cardinality = 0;
  double seconds = 0;
  PhaseBreakdown phases;
  uint64_t checksum = 0;
  std::string detail;  ///< e.g. the DSM-post plan code "c/d"
  /// Worker threads that actually executed the projection kernels. Only
  /// kDsmPostDecluster has parallel kernels so far: it reports the pool
  /// size; every other strategy runs serial and honestly reports 1,
  /// whatever QueryOptions::pool holds — so benchmark tables cannot
  /// mislabel serial runs as parallel.
  size_t threads_used = 1;
};

struct QueryOptions {
  size_t pi_left = 1;
  size_t pi_right = 1;
  /// Varchar projection columns per side, taken from the workload's
  /// {left,right}_varchars (must be <= their size). String bytes are folded
  /// into QueryRun::checksum with the same per-row digest every strategy
  /// (and the scalar references) uses, so a checksum match asserts the
  /// strategies produced byte-identical string results. DSM post-projection
  /// declusters right-side varchars with the Fig. 12 three-phase scheme;
  /// every other strategy gathers them via PositionalJoinVarchar from
  /// result-order oids (pre-projection strategies carry those oids through
  /// the join as extra intermediate luggage — charged to their time).
  size_t pi_varchar_left = 0;
  size_t pi_varchar_right = 0;
  /// Use the planner for DSM-post side strategies (default); otherwise
  /// explicit codes.
  bool plan_sides = true;
  SideStrategy left = SideStrategy::kClustered;
  SideStrategy right = SideStrategy::kDecluster;
  /// Radix-bits / insertion-window overrides forwarded to DsmPostOptions
  /// (how an engine-prepared plan pins its parameters); the defaults mean
  /// "derive from cache geometry", exactly as before.
  static constexpr radix_bits_t kAutoBits = ~radix_bits_t{0};
  radix_bits_t left_bits = kAutoBits;
  radix_bits_t right_bits = kAutoBits;
  size_t window_elems = 0;
  /// Caller-owned pool for the Radix-Cluster / Radix-Decluster kernels of
  /// the DSM post-projection strategy (kDsmPostDecluster) — the only
  /// strategy with parallel kernels so far; the NSM and pre-projection
  /// strategies run serial regardless and report QueryRun::threads_used
  /// == 1. nullptr (default) or a one-thread pool runs the exact serial
  /// kernels (required for MemTracer runs); a larger pool runs the
  /// parallel kernels with byte-identical output.
  ThreadPool* pool = nullptr;
  /// Chunk size (rows) for RunQueryStreaming: its row chunks and result
  /// ranges; 0 = auto, a cache-sized range per column (DefaultChunkRows).
  /// RunQuery ignores it.
  size_t chunk_rows = 0;
  /// Gauge the materializing decluster side's clustered value column
  /// registers its bytes with; nullptr = the process-wide
  /// pipeline::MemoryGauge::Instance(). The engine's admission controller
  /// injects its own gauge here so the memory it meters is the memory it
  /// admitted against.
  pipeline::MemoryGauge* gauge = nullptr;
};

/// Execute the query on a generated workload with the given strategy —
/// the Fig. 10 strategy runner behind engine::Engine, which prepares the
/// options (plan, pool, chunk size) it passes here. A pinned DSM-post plan
/// resolves through PlanDsmPost like a planned one, so QueryRun::detail
/// names the sides that ran.
QueryRun RunQuery(const workload::JoinWorkload& w, JoinStrategy strategy,
                  const QueryOptions& options,
                  const hardware::MemoryHierarchy& hw);

/// Streamed execution: for the DSM post-projection strategy the ordered
/// gathers run over row chunks of options.chunk_rows rows and a d right
/// side runs the fused gather + Radix-Decluster per result range
/// (DsmPostProjectStreaming), so no value intermediate is kept. Checksum,
/// cardinality and the result columns themselves are identical to RunQuery
/// for every strategy/seed. Strategies without a streaming path (the NSM
/// and pre-projection families, whose intermediates are row-major records)
/// and varchar projections fall back to RunQuery.
QueryRun RunQueryStreaming(const workload::JoinWorkload& w,
                           JoinStrategy strategy, const QueryOptions& options,
                           const hardware::MemoryHierarchy& hw);

}  // namespace radix::project

#endif  // RADIX_PROJECT_EXECUTOR_H_
