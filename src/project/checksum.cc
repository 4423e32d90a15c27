#include "project/checksum.h"

#include <algorithm>
#include <vector>

#include "common/thread_pool.h"
#include "storage/dsm.h"
#include "storage/nsm.h"
#include "storage/varchar.h"

namespace radix::project {

namespace {

/// Wrapping sum of row_digest(i) over [0, n): serial below two grains or
/// without a pool, else one partial sum per kChecksumGrainRows grain on
/// `pool`, folded in grain order (the sum is commutative either way).
template <typename RowDigestFn>
uint64_t SumRowDigests(size_t n, ThreadPool* pool,
                       const RowDigestFn& row_digest) {
  auto sum_rows = [&](size_t begin, size_t end) {
    uint64_t sum = 0;
    for (size_t i = begin; i < end; ++i) sum = WrapAdd(sum, row_digest(i));
    return sum;
  };
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

}  // namespace

uint64_t ChecksumColumns(const storage::DsmResult& r, ThreadPool* pool) {
  return SumRowDigests(r.cardinality, pool, [&r](size_t i) {
    RowDigest digest;
    for (const auto& col : r.left_columns) digest.AddValue(col[i]);
    for (const auto& col : r.right_columns) digest.AddValue(col[i]);
    for (const auto& col : r.left_varchars) digest.AddString(col.at(i));
    for (const auto& col : r.right_varchars) digest.AddString(col.at(i));
    return digest.digest();
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
