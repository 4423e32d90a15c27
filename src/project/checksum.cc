#include "project/checksum.h"

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"
#include "storage/dsm.h"
#include "storage/nsm.h"
#include "storage/varchar.h"

namespace radix::project {

namespace {

/// Wrapping sum of sum_rows(begin, end) over the grains of [0, n): serial
/// below two grains or without a pool, else one partial sum per
/// kChecksumGrainRows grain on `pool`, folded in grain order (the sum is
/// commutative either way).
template <typename SumRowsFn>
uint64_t SumGrains(size_t n, ThreadPool* pool, const SumRowsFn& sum_rows) {
  const size_t grains = (n + kChecksumGrainRows - 1) / kChecksumGrainRows;
  if (pool == nullptr || grains < 2) return sum_rows(0, n);
  std::vector<uint64_t> partial(grains);
  pool->ParallelFor(grains, [&](size_t g) {
    const size_t begin = g * kChecksumGrainRows;
    partial[g] = sum_rows(begin, std::min(n, begin + kChecksumGrainRows));
  });
  uint64_t sum = 0;
  for (uint64_t p : partial) sum = WrapAdd(sum, p);
  return sum;
}

/// Wrapping sum of row_digest(i) over [0, n), grain-parallel on `pool`.
template <typename RowDigestFn>
uint64_t SumRowDigests(size_t n, ThreadPool* pool,
                       const RowDigestFn& row_digest) {
  return SumGrains(n, pool, [&](size_t begin, size_t end) {
    uint64_t sum = 0;
    for (size_t i = begin; i < end; ++i) sum = WrapAdd(sum, row_digest(i));
    return sum;
  });
}

/// Sum of the RowDigests of rows [begin, end) of `r`, at most
/// kChecksumBlockRows rows: each column folds into all the block's digests
/// before the next column starts, in the canonical column order.
uint64_t SumBlockDigests(const storage::DsmResult& r, size_t begin,
                         size_t end) {
  const size_t m = end - begin;
  uint64_t d[kChecksumBlockRows];
  std::fill(d, d + m, RowDigest::kSeed);
  uint64_t col = 0;
  auto fold_values = [&](const std::vector<storage::Column<value_t>>& cols) {
    for (const auto& c : cols) {
      const value_t* v = c.data() + begin;
      for (size_t i = 0; i < m; ++i) {
        d[i] = RowDigest::Fold(d[i], RowDigest::ValueTerm(v[i]), col);
      }
      ++col;
    }
  };
  auto fold_strings = [&](const std::vector<storage::VarcharColumn>& cols) {
    for (const auto& c : cols) {
      for (size_t i = 0; i < m; ++i) {
        d[i] = RowDigest::Fold(d[i], RowDigest::StringTerm(c.at(begin + i)),
                               col);
      }
      ++col;
    }
  };
  fold_values(r.left_columns);
  fold_values(r.right_columns);
  fold_strings(r.left_varchars);
  fold_strings(r.right_varchars);
  uint64_t sum = 0;
  for (size_t i = 0; i < m; ++i) sum = WrapAdd(sum, d[i]);
  return sum;
}

}  // namespace

uint64_t ChecksumColumns(const storage::DsmResult& r, ThreadPool* pool) {
  return SumGrains(r.cardinality, pool, [&r](size_t begin, size_t end) {
    uint64_t sum = 0;
    for (size_t b = begin; b < end; b += kChecksumBlockRows) {
      sum = WrapAdd(sum, SumBlockDigests(r, b,
                                         std::min(end, b + kChecksumBlockRows)));
    }
    return sum;
  });
}

uint64_t ChecksumRows(const storage::NsmResult& r,
                      std::span<const storage::VarcharColumn> left_varchars,
                      std::span<const storage::VarcharColumn> right_varchars,
                      ThreadPool* pool) {
  size_t n = r.cardinality();
  if (!left_varchars.empty()) n = std::max(n, left_varchars.front().size());
  if (!right_varchars.empty()) n = std::max(n, right_varchars.front().size());
  return SumRowDigests(n, pool, [&](size_t i) {
    RowDigest digest;
    if (i < r.cardinality()) {
      const value_t* row = r.row(i);
      for (size_t a = 0; a < r.width(); ++a) digest.AddValue(row[a]);
    }
    for (const auto& col : left_varchars) digest.AddString(col.at(i));
    for (const auto& col : right_varchars) digest.AddString(col.at(i));
    return digest.digest();
  });
}

}  // namespace radix::project
