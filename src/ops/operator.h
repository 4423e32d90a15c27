#ifndef RADIX_OPS_OPERATOR_H_
#define RADIX_OPS_OPERATOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/types.h"
#include "common/uninit_vector.h"
#include "hardware/memory_hierarchy.h"
#include "ops/plan.h"
#include "ops/table.h"
#include "pipeline/chunk.h"
#include "project/strategy.h"

namespace radix {
class ThreadPool;
namespace pipeline {
class MemoryGauge;
}
}  // namespace radix

namespace radix::ops {

/// What an operator chunk says about itself. Below the root every chunk is
/// late-materialized: it carries one oid column per base table visible in
/// the subtree (`oid_tables[i]` names the table oid column i indexes into)
/// and nothing else. Only the root operator (Project or Aggregate) emits
/// payload columns.
struct Schema {
  std::vector<size_t> oid_tables;
  size_t value_cols = 0;    ///< root only: fixed payload columns per chunk
  size_t varchar_cols = 0;  ///< root only: varchar view columns per chunk

  size_t OidColumnFor(size_t table) const {
    for (size_t i = 0; i < oid_tables.size(); ++i) {
      if (oid_tables[i] == table) return i;
    }
    RADIX_CHECK(false && "table not visible in operator schema");
    return 0;
  }
};

/// A varchar output column of a root Project chunk: late-materialized as
/// (base column, row oids) — consumers call base->at(oids[r]). Gathering
/// the bytes would only copy the heap; the checksum reads through the view.
struct VarcharChunkCol {
  const storage::VarcharColumn* base = nullptr;
  std::span<const oid_t> oids;
};

/// One chunk of operator output. Spans point into the producing operator's
/// arena (or into a blocking operator's materialized result) and are valid
/// only until the next NextChunk call on that operator — chunk-at-a-time
/// consumers must finish with a chunk before pulling the next.
struct OpChunk {
  size_t rows = 0;
  std::vector<std::span<const oid_t>> oid_cols;
  std::vector<std::span<const value_t>> val_cols;
  std::vector<VarcharChunkCol> var_cols;
};

/// Everything an operator tree shares at execution time. `pool` may be
/// nullptr (serial execution); `gauge` may be nullptr (process-wide gauge);
/// `chunk_rows` is the target rows per chunk and must be non-zero.
struct ExecContext {
  const Catalog* catalog = nullptr;
  const hardware::MemoryHierarchy* hw = nullptr;
  ThreadPool* pool = nullptr;
  pipeline::MemoryGauge* gauge = nullptr;
  size_t chunk_rows = 0;
};

/// The chunk-at-a-time operator contract (MonetDB-honest: blocking
/// operators like RadixJoin and GroupAggregate fully materialize their
/// result, then stream it out as chunk views — operator-at-a-time under a
/// pull interface). Lifecycle: Open → NextChunk until it returns false →
/// Close. NextChunk fills `out` and returns true, or returns false at end
/// of stream; after false, further calls keep returning false.
class Operator {
 public:
  virtual ~Operator() = default;

  virtual const Schema& schema() const = 0;
  virtual void Open(ExecContext* ctx) = 0;
  virtual bool NextChunk(OpChunk* out) = 0;
  virtual void Close() = 0;
};

/// Dense oid scan of one catalog table: emits oids [pos, pos + chunk_rows)
/// until the table's cardinality is exhausted.
class ScanOp final : public Operator {
 public:
  explicit ScanOp(size_t table);

  const Schema& schema() const override { return schema_; }
  void Open(ExecContext* ctx) override;
  bool NextChunk(OpChunk* out) override;
  void Close() override;

 private:
  size_t table_;
  Schema schema_;
  ExecContext* ctx_ = nullptr;
  size_t pos_ = 0;
  size_t cardinality_ = 0;
  pipeline::ChunkArena arena_;
};

/// Predicate filter. Evaluates the predicate against the base table column
/// through the child's oid column for the predicate's table, and compacts
/// every oid column of qualifying rows into its own arena. Empty chunks are
/// skipped, not emitted.
class SelectOp final : public Operator {
 public:
  SelectOp(std::unique_ptr<Operator> child, Predicate pred);

  const Schema& schema() const override { return schema_; }
  void Open(ExecContext* ctx) override;
  bool NextChunk(OpChunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  Predicate pred_;
  Schema schema_;
  ExecContext* ctx_ = nullptr;
  size_t pred_col_ = 0;  ///< child oid column the predicate reads through
  pipeline::ChunkArena arena_;
};

/// Per-side physical choices for one join edge, produced by the optimizer
/// from the Fig. 10 cost model. The right side's sorted/clustered
/// strategies are coerced to decluster by the optimizer (s/c order the
/// output by the index side, which a composable operator must not).
struct JoinEdgePhysical {
  project::SideStrategy left = project::SideStrategy::kUnsorted;
  project::SideStrategy right = project::SideStrategy::kUnsorted;
  radix_bits_t left_bits = 0;
  radix_bits_t right_bits = 0;
};

/// Blocking radix join on the key columns (attr 0) of `left_table` and
/// `right_table`. Drains both children, runs the partitioned hash join on
/// gathered keys, post-projects every oid column through the join index
/// using the edge's Fig. 10 strategies (left: optional partial cluster of
/// the index before positional gathers; right: positional join or
/// cluster + positional join + Radix-Decluster), then streams the
/// materialized result as row-chunk views. All kernels involved are
/// byte-identical across thread counts, so is this operator.
class RadixJoinOp final : public Operator {
 public:
  RadixJoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
              size_t left_table, size_t right_table, JoinEdgePhysical physical);

  const Schema& schema() const override { return schema_; }
  void Open(ExecContext* ctx) override;
  bool NextChunk(OpChunk* out) override;
  void Close() override;

  size_t result_rows() const { return result_rows_; }

 private:
  void Materialize();

  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  size_t left_table_;
  size_t right_table_;
  JoinEdgePhysical physical_;
  Schema schema_;
  ExecContext* ctx_ = nullptr;
  bool materialized_ = false;
  size_t result_rows_ = 0;
  size_t pos_ = 0;
  /// Materialized result: one oid vector per schema column, result order.
  /// Every element is written by the gathers, so none is zero-filled.
  std::vector<UninitVector<oid_t>> result_cols_;
};

/// Root payload materialization: gathers each projected value column from
/// its base table through the chunk's oid columns into an arena, and wraps
/// varchar columns as (base, oid-span) views.
class ProjectOp final : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<ColumnRef> columns);

  const Schema& schema() const override { return schema_; }
  void Open(ExecContext* ctx) override;
  bool NextChunk(OpChunk* out) override;
  void Close() override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<ColumnRef> columns_;
  Schema schema_;
  ExecContext* ctx_ = nullptr;
  pipeline::ChunkArena arena_;
};

/// Blocking grouped aggregation (at most one group-by column). Drains the
/// child, gathers group keys and aggregate inputs through the oids, radix-
/// clusters (group value, row) pairs on the hash of the group value to give
/// every worker private clusters, accumulates per cluster in parallel, and
/// emits groups sorted by key within each cluster, clusters in order —
/// a deterministic output order at every thread count. Sums and counts
/// truncate to the low 32 bits of their 64-bit accumulator.
class GroupAggregateOp final : public Operator {
 public:
  GroupAggregateOp(std::unique_ptr<Operator> child,
                   std::vector<ColumnRef> group_by, std::vector<AggExpr> aggs);

  const Schema& schema() const override { return schema_; }
  void Open(ExecContext* ctx) override;
  bool NextChunk(OpChunk* out) override;
  void Close() override;

 private:
  void Materialize();

  std::unique_ptr<Operator> child_;
  std::vector<ColumnRef> group_by_;
  std::vector<AggExpr> aggs_;
  Schema schema_;
  ExecContext* ctx_ = nullptr;
  bool materialized_ = false;
  size_t pos_ = 0;
  /// Materialized result, column-major: [group key,] one column per agg.
  std::vector<std::vector<value_t>> result_cols_;
  size_t result_rows_ = 0;
};

}  // namespace radix::ops

#endif  // RADIX_OPS_OPERATOR_H_
