#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "cluster/partition_plan.h"
#include "cluster/radix_cluster.h"
#include "common/bits.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "join/partitioned_hash_join.h"
#include "join/positional_join.h"
#include "ops/operator.h"
#include "common/overflow.h"
#include "project/dsm_post.h"

namespace radix::ops {

namespace {

/// ChunkArena stores value_t; the operator layer stores oids in it. oid_t
/// and value_t are the unsigned/signed 32-bit pair, so viewing one as the
/// other is well-defined aliasing.
oid_t* OidColumn(pipeline::ChunkArena& arena, size_t a) {
  return reinterpret_cast<oid_t*>(arena.column(a));
}

bool EvalValuePred(CmpOp op, value_t v, value_t c) {
  switch (op) {
    case CmpOp::kLt: return v < c;
    case CmpOp::kLe: return v <= c;
    case CmpOp::kGt: return v > c;
    case CmpOp::kGe: return v >= c;
    case CmpOp::kEq: return v == c;
    case CmpOp::kNe: return v != c;
  }
  return false;
}

bool EvalVarcharPred(const Predicate& pred, std::string_view s) {
  bool match;
  if (pred.str_prefix) {
    match = s.size() >= pred.str_value.size() &&
            s.compare(0, pred.str_value.size(), pred.str_value) == 0;
  } else {
    match = s == pred.str_value;
  }
  return pred.op == CmpOp::kNe ? !match : match;
}

/// Pull every chunk of `child` and append its oid columns to `cols`
/// (one vector per schema column). Returns the drained row count.
size_t DrainChild(Operator* child, std::vector<std::vector<oid_t>>* cols) {
  cols->assign(child->schema().oid_tables.size(), {});
  OpChunk chunk;
  size_t rows = 0;
  while (child->NextChunk(&chunk)) {
    rows += chunk.rows;
    for (size_t c = 0; c < cols->size(); ++c) {
      (*cols)[c].insert((*cols)[c].end(), chunk.oid_cols[c].begin(),
                        chunk.oid_cols[c].end());
    }
  }
  return rows;
}

}  // namespace

// ---------------------------------------------------------------- ScanOp

ScanOp::ScanOp(size_t table) : table_(table) {
  schema_.oid_tables = {table};
}

void ScanOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  pos_ = 0;
  cardinality_ = ctx->catalog->table(table_).cardinality();
  CheckOidCapacity(cardinality_);  // NextChunk emits positions as oids
  arena_.Reset(1, ctx->chunk_rows, ctx->gauge);
}

bool ScanOp::NextChunk(OpChunk* out) {
  if (pos_ >= cardinality_) return false;
  size_t n = std::min(ctx_->chunk_rows, cardinality_ - pos_);
  oid_t* col = OidColumn(arena_, 0);
  for (size_t i = 0; i < n; ++i) col[i] = static_cast<oid_t>(pos_ + i);
  pos_ += n;
  out->rows = n;
  out->oid_cols.assign(1, std::span<const oid_t>(col, n));
  out->val_cols.clear();
  out->var_cols.clear();
  return true;
}

void ScanOp::Close() { arena_.Reset(0, 0, ctx_ != nullptr ? ctx_->gauge : nullptr); }

// -------------------------------------------------------------- SelectOp

SelectOp::SelectOp(std::unique_ptr<Operator> child, Predicate pred)
    : child_(std::move(child)), pred_(std::move(pred)) {
  schema_.oid_tables = child_->schema().oid_tables;
  pred_col_ = schema_.OidColumnFor(pred_.col.table);
}

void SelectOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  child_->Open(ctx);
  arena_.Reset(schema_.oid_tables.size(), ctx->chunk_rows, ctx->gauge);
}

bool SelectOp::NextChunk(OpChunk* out) {
  const Table& table = ctx_->catalog->table(pred_.col.table);
  OpChunk chunk;
  // Fully-filtered chunks are skipped, not emitted as empty output.
  while (child_->NextChunk(&chunk)) {
    std::span<const oid_t> pred_oids = chunk.oid_cols[pred_col_];
    size_t kept = 0;
    if (pred_.col.is_varchar) {
      const storage::VarcharColumn& col = *table.varchars[pred_.col.attr];
      for (size_t i = 0; i < chunk.rows; ++i) {
        if (!EvalVarcharPred(pred_, col.at(pred_oids[i]))) continue;
        for (size_t c = 0; c < chunk.oid_cols.size(); ++c) {
          OidColumn(arena_, c)[kept] = chunk.oid_cols[c][i];
        }
        ++kept;
      }
    } else {
      const auto& col = table.relation->attr(pred_.col.attr);
      for (size_t i = 0; i < chunk.rows; ++i) {
        if (!EvalValuePred(pred_.op, col[pred_oids[i]], pred_.value)) continue;
        for (size_t c = 0; c < chunk.oid_cols.size(); ++c) {
          OidColumn(arena_, c)[kept] = chunk.oid_cols[c][i];
        }
        ++kept;
      }
    }
    if (kept == 0) continue;
    out->rows = kept;
    out->oid_cols.resize(chunk.oid_cols.size());
    for (size_t c = 0; c < chunk.oid_cols.size(); ++c) {
      out->oid_cols[c] = std::span<const oid_t>(OidColumn(arena_, c), kept);
    }
    out->val_cols.clear();
    out->var_cols.clear();
    return true;
  }
  return false;
}

void SelectOp::Close() {
  child_->Close();
  arena_.Reset(0, 0, ctx_ != nullptr ? ctx_->gauge : nullptr);
}

// ----------------------------------------------------------- RadixJoinOp

RadixJoinOp::RadixJoinOp(std::unique_ptr<Operator> left,
                         std::unique_ptr<Operator> right, size_t left_table,
                         size_t right_table, JoinEdgePhysical physical)
    : left_(std::move(left)),
      right_(std::move(right)),
      left_table_(left_table),
      right_table_(right_table),
      physical_(physical) {
  schema_.oid_tables = left_->schema().oid_tables;
  const Schema& rs = right_->schema();
  schema_.oid_tables.insert(schema_.oid_tables.end(), rs.oid_tables.begin(),
                            rs.oid_tables.end());
}

void RadixJoinOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  left_->Open(ctx);
  right_->Open(ctx);
  materialized_ = false;
  result_rows_ = 0;
  pos_ = 0;
}

void RadixJoinOp::Materialize() {
  materialized_ = true;
  const size_t n_left_cols = left_->schema().oid_tables.size();

  std::vector<std::vector<oid_t>> lcols, rcols;
  const size_t lrows = DrainChild(left_.get(), &lcols);
  const size_t rrows = DrainChild(right_.get(), &rcols);

  // Gather the key values of the two join tables through their oid columns;
  // the hash join then works on drained-row positions, so every surviving
  // oid column — of any table in either subtree — projects through the same
  // join index.
  const size_t lkey_col = left_->schema().OidColumnFor(left_table_);
  const size_t rkey_col = right_->schema().OidColumnFor(right_table_);
  const auto& lkey_base = ctx_->catalog->table(left_table_).relation->key();
  const auto& rkey_base = ctx_->catalog->table(right_table_).relation->key();
  UninitVector<value_t> lkeys(lrows), rkeys(rrows);
  for (size_t i = 0; i < lrows; ++i) lkeys[i] = lkey_base[lcols[lkey_col][i]];
  for (size_t i = 0; i < rrows; ++i) rkeys[i] = rkey_base[rcols[rkey_col][i]];

  ThreadPool* pool = KernelPool(ctx_->pool);
  join::PartitionedHashJoinOptions jopts;
  jopts.pool = pool;
  join::JoinShards shards =
      join::PartitionedHashJoinShards(lkeys, rkeys, *ctx_->hw, jopts);
  lkeys.clear();
  lkeys.shrink_to_fit();
  rkeys.clear();
  rkeys.shrink_to_fit();

  // Fig. 10, left side: optionally reorder the index (sort / partial
  // cluster on the left positions) before the positional gathers; a c/d
  // left side clusters the join's shards directly.
  join::JoinIndex index = project::detail::IndexInLeftOrder(
      std::move(shards), lrows, *ctx_->hw, physical_.left, physical_.left_bits,
      pool, /*ph=*/nullptr);

  const size_t n_out = index.size();
  result_rows_ = n_out;
  result_cols_.assign(schema_.oid_tables.size(), {});
  for (auto& col : result_cols_) col.resize(n_out);
  if (n_out == 0) {
    left_->Close();
    right_->Close();
    return;
  }

  // Left-subtree columns gather straight off the (reordered) index.
  {
    std::vector<std::span<const oid_t>> cols(n_left_cols);
    std::vector<std::span<oid_t>> outs(n_left_cols);
    for (size_t c = 0; c < n_left_cols; ++c) {
      cols[c] = lcols[c];
      outs[c] = result_cols_[c];
    }
    join::PositionalJoinPairsColumns<oid_t, /*kLeft=*/true>(index.span(), cols,
                                                            outs, pool);
  }

  // Right-subtree columns follow the edge's right strategy: u gathers in
  // result order; anything else runs cluster + positional join +
  // Radix-Decluster (s/c reorder the output and are not composable, so the
  // optimizer — and this fallback — coerce them to d). The oid columns
  // travel as value_t, the 4-byte type the projection kernels gather.
  {
    std::vector<std::span<const value_t>> cols(rcols.size());
    std::vector<std::span<value_t>> outs(rcols.size());
    for (size_t c = 0; c < rcols.size(); ++c) {
      cols[c] = std::span<const value_t>(
          reinterpret_cast<const value_t*>(rcols[c].data()), rcols[c].size());
      outs[c] = std::span<value_t>(
          reinterpret_cast<value_t*>(result_cols_[n_left_cols + c].data()),
          n_out);
    }
    project::detail::ProjectIndexRight(
        index, /*keep_index=*/false, physical_.right, cols, outs, rrows,
        *ctx_->hw, physical_.right_bits, /*window_elems=*/0,
        /*phases=*/nullptr, pool, /*var_columns=*/{}, /*var_out=*/nullptr,
        ctx_->gauge);
  }

  // The children are fully consumed; release their arenas before streaming.
  left_->Close();
  right_->Close();
}

bool RadixJoinOp::NextChunk(OpChunk* out) {
  if (!materialized_) Materialize();
  if (pos_ >= result_rows_) return false;
  size_t n = std::min(ctx_->chunk_rows, result_rows_ - pos_);
  out->rows = n;
  out->oid_cols.resize(result_cols_.size());
  for (size_t c = 0; c < result_cols_.size(); ++c) {
    out->oid_cols[c] =
        std::span<const oid_t>(result_cols_[c].data() + pos_, n);
  }
  out->val_cols.clear();
  out->var_cols.clear();
  pos_ += n;
  return true;
}

void RadixJoinOp::Close() {
  if (!materialized_) {
    left_->Close();
    right_->Close();
  }
  result_cols_.clear();
  result_cols_.shrink_to_fit();
}

// ------------------------------------------------------------- ProjectOp

ProjectOp::ProjectOp(std::unique_ptr<Operator> child,
                     std::vector<ColumnRef> columns)
    : child_(std::move(child)), columns_(std::move(columns)) {
  schema_.oid_tables = child_->schema().oid_tables;
  for (const ColumnRef& ref : columns_) {
    if (ref.is_varchar) {
      ++schema_.varchar_cols;
    } else {
      ++schema_.value_cols;
    }
  }
}

void ProjectOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  child_->Open(ctx);
  arena_.Reset(schema_.value_cols, ctx->chunk_rows, ctx->gauge);
}

bool ProjectOp::NextChunk(OpChunk* out) {
  OpChunk chunk;
  if (!child_->NextChunk(&chunk)) return false;
  RADIX_CHECK(chunk.rows <= arena_.capacity_rows());
  out->rows = chunk.rows;
  out->oid_cols.clear();
  out->val_cols.clear();
  out->var_cols.clear();
  size_t val_idx = 0;
  for (const ColumnRef& ref : columns_) {
    const Table& table = ctx_->catalog->table(ref.table);
    std::span<const oid_t> oids =
        chunk.oid_cols[child_->schema().OidColumnFor(ref.table)];
    if (ref.is_varchar) {
      // Late-materialized view: the consumer reads base->at(oids[r]);
      // gathering the bytes here would only copy the heap.
      out->var_cols.push_back({table.varchars[ref.attr], oids});
    } else {
      const auto& base = table.relation->attr(ref.attr);
      value_t* dst = arena_.column(val_idx);
      for (size_t i = 0; i < chunk.rows; ++i) dst[i] = base[oids[i]];
      out->val_cols.push_back(std::span<const value_t>(dst, chunk.rows));
      ++val_idx;
    }
  }
  return true;
}

void ProjectOp::Close() {
  child_->Close();
  arena_.Reset(0, 0, ctx_ != nullptr ? ctx_->gauge : nullptr);
}

// ------------------------------------------------------ GroupAggregateOp

GroupAggregateOp::GroupAggregateOp(std::unique_ptr<Operator> child,
                                   std::vector<ColumnRef> group_by,
                                   std::vector<AggExpr> aggs)
    : child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  schema_.value_cols = group_by_.size() + aggs_.size();
}

void GroupAggregateOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  child_->Open(ctx);
  materialized_ = false;
  pos_ = 0;
  result_rows_ = 0;
}

namespace {

/// Per-group accumulator slots, one int64 per aggregate expression.
struct AggAccs {
  static int64_t Init(AggFn fn) {
    switch (fn) {
      case AggFn::kSum:
      case AggFn::kCount:
        return 0;
      case AggFn::kMin:
        return std::numeric_limits<int64_t>::max();
      case AggFn::kMax:
        return std::numeric_limits<int64_t>::min();
    }
    return 0;
  }

  static void Update(AggFn fn, int64_t* acc, value_t v) {
    switch (fn) {
      case AggFn::kSum:
        *acc += v;
        break;
      case AggFn::kCount:
        *acc += 1;
        break;
      case AggFn::kMin:
        *acc = std::min<int64_t>(*acc, v);
        break;
      case AggFn::kMax:
        *acc = std::max<int64_t>(*acc, v);
        break;
    }
  }

  /// Sums and counts report the low 32 bits of the 64-bit accumulator
  /// (two's complement); min/max are exact. The scalar reference applies
  /// the same rule, so checksums agree even when a sum overflows 32 bits.
  static value_t Final(AggFn fn, int64_t acc) {
    switch (fn) {
      case AggFn::kSum:
      case AggFn::kCount:
        return static_cast<value_t>(
            static_cast<uint32_t>(static_cast<uint64_t>(acc)));
      case AggFn::kMin:
      case AggFn::kMax:
        return static_cast<value_t>(acc);
    }
    return 0;
  }
};

}  // namespace

void GroupAggregateOp::Materialize() {
  materialized_ = true;
  const size_t n_aggs = aggs_.size();
  const bool grouped = !group_by_.empty();

  // Drain the child, gathering the group keys and every aggregate input
  // through the oid columns as the chunks stream by — the only pass over
  // the child's output.
  std::vector<value_t> group_vals;
  std::vector<std::vector<value_t>> agg_vals(n_aggs);
  {
    OpChunk chunk;
    while (child_->NextChunk(&chunk)) {
      if (grouped) {
        const ColumnRef& g = group_by_[0];
        const auto& base = ctx_->catalog->table(g.table).relation->attr(g.attr);
        std::span<const oid_t> oids =
            chunk.oid_cols[child_->schema().OidColumnFor(g.table)];
        for (size_t i = 0; i < chunk.rows; ++i) {
          group_vals.push_back(base[oids[i]]);
        }
      }
      for (size_t j = 0; j < n_aggs; ++j) {
        if (aggs_[j].fn == AggFn::kCount) continue;
        const ColumnRef& ref = aggs_[j].col;
        const auto& base =
            ctx_->catalog->table(ref.table).relation->attr(ref.attr);
        std::span<const oid_t> oids =
            chunk.oid_cols[child_->schema().OidColumnFor(ref.table)];
        for (size_t i = 0; i < chunk.rows; ++i) {
          agg_vals[j].push_back(base[oids[i]]);
        }
      }
      pos_ += chunk.rows;  // reuse pos_ as the drained row counter
    }
  }
  const size_t n = pos_;
  pos_ = 0;
  child_->Close();

  result_cols_.assign(schema_.value_cols, {});

  if (!grouped) {
    // One global group (even over zero input rows: count = 0, sum = 0,
    // min/max of an empty input are the accumulator identities).
    std::vector<int64_t> accs(n_aggs);
    for (size_t j = 0; j < n_aggs; ++j) accs[j] = AggAccs::Init(aggs_[j].fn);
    for (size_t j = 0; j < n_aggs; ++j) {
      if (aggs_[j].fn == AggFn::kCount) {
        accs[j] = static_cast<int64_t>(n);
      } else {
        for (value_t v : agg_vals[j]) AggAccs::Update(aggs_[j].fn, &accs[j], v);
      }
    }
    result_rows_ = 1;
    for (size_t j = 0; j < n_aggs; ++j) {
      result_cols_[j].push_back(AggAccs::Final(aggs_[j].fn, accs[j]));
    }
    return;
  }

  RADIX_CHECK(n <= std::numeric_limits<oid_t>::max());

  // Radix-cluster (group value, row) pairs on the hash of the group value:
  // each cluster then holds complete groups, so the per-cluster
  // accumulation needs no cross-thread merge — the same
  // partition-then-work-privately scheme as the partitioned hash join.
  std::vector<cluster::KeyOid> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = {group_vals[i], static_cast<oid_t>(i)};
  }
  cluster::ClusterSpec spec;
  spec.total_bits = std::min<radix_bits_t>(
      8, SignificantBits(std::max<size_t>(n, 1)));
  spec.ignore_bits = 0;
  spec.passes = std::max(1u, cluster::PassesFor(spec.total_bits, *ctx_->hw));
  auto radix_of = [](const cluster::KeyOid& p) -> uint64_t {
    return HashInt32(static_cast<uint32_t>(p.key));
  };
  std::vector<cluster::KeyOid> scratch(n);
  ThreadPool* pool = KernelPool(ctx_->pool);
  cluster::ClusterBorders borders;
  if (pool != nullptr) {
    borders = cluster::RadixClusterMultiPassParallel(
        pairs.data(), scratch.data(), n, radix_of, spec, *pool);
  } else {
    simcache::NoTracer tracer;
    borders = cluster::RadixClusterMultiPass(pairs.data(), scratch.data(), n,
                                             radix_of, spec, tracer);
  }
  scratch.clear();
  scratch.shrink_to_fit();

  // Per-cluster accumulation; output groups sorted by key within each
  // cluster, clusters in order — deterministic at every thread count.
  const size_t n_clusters = borders.num_clusters();
  std::vector<std::vector<std::vector<value_t>>> cluster_out(n_clusters);
  auto accumulate_cluster = [&](size_t c) {
    std::unordered_map<value_t, size_t> group_of;
    std::vector<value_t> keys;
    std::vector<std::vector<int64_t>> accs(n_aggs);
    for (uint64_t i = borders.start(c); i < borders.end(c); ++i) {
      const value_t key = pairs[i].key;
      const size_t row = pairs[i].oid;
      auto [it, inserted] = group_of.try_emplace(key, keys.size());
      if (inserted) {
        keys.push_back(key);
        for (size_t j = 0; j < n_aggs; ++j) {
          accs[j].push_back(AggAccs::Init(aggs_[j].fn));
        }
      }
      const size_t g = it->second;
      for (size_t j = 0; j < n_aggs; ++j) {
        const value_t v =
            aggs_[j].fn == AggFn::kCount ? 0 : agg_vals[j][row];
        AggAccs::Update(aggs_[j].fn, &accs[j][g], v);
      }
    }
    std::vector<size_t> order(keys.size());
    for (size_t g = 0; g < order.size(); ++g) order[g] = g;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return keys[a] < keys[b]; });
    std::vector<std::vector<value_t>> cols(schema_.value_cols);
    for (auto& col : cols) col.reserve(keys.size());
    for (size_t g : order) {
      cols[0].push_back(keys[g]);
      for (size_t j = 0; j < n_aggs; ++j) {
        cols[1 + j].push_back(AggAccs::Final(aggs_[j].fn, accs[j][g]));
      }
    }
    cluster_out[c] = std::move(cols);
  };
  if (pool != nullptr) {
    pool->ParallelFor(n_clusters, accumulate_cluster);
  } else {
    for (size_t c = 0; c < n_clusters; ++c) accumulate_cluster(c);
  }

  for (size_t c = 0; c < n_clusters; ++c) {
    for (size_t col = 0; col < schema_.value_cols; ++col) {
      result_cols_[col].insert(result_cols_[col].end(),
                               cluster_out[c][col].begin(),
                               cluster_out[c][col].end());
    }
  }
  result_rows_ = result_cols_[0].size();
}

bool GroupAggregateOp::NextChunk(OpChunk* out) {
  if (!materialized_) Materialize();
  if (pos_ >= result_rows_) return false;
  size_t n = std::min(ctx_->chunk_rows, result_rows_ - pos_);
  out->rows = n;
  out->oid_cols.clear();
  out->val_cols.resize(result_cols_.size());
  for (size_t c = 0; c < result_cols_.size(); ++c) {
    out->val_cols[c] =
        std::span<const value_t>(result_cols_[c].data() + pos_, n);
  }
  out->var_cols.clear();
  pos_ += n;
  return true;
}

void GroupAggregateOp::Close() {
  if (!materialized_) child_->Close();
  result_cols_.clear();
  result_cols_.shrink_to_fit();
}

}  // namespace radix::ops
