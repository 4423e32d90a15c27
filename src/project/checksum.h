#ifndef RADIX_PROJECT_CHECKSUM_H_
#define RADIX_PROJECT_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/hash.h"
#include "common/overflow.h"
#include "common/types.h"

namespace radix {
class ThreadPool;
namespace storage {
struct DsmResult;
class NsmResult;
class VarcharColumn;
}  // namespace storage
}  // namespace radix

namespace radix::project {

/// The per-row digest behind every strategy's order-independent result
/// checksum: each row folds its values — fixed-width and varchar alike —
/// into one digest, tagged with a running column index so row contents
/// stay associated, and the query checksum is the *sum* of row digests
/// (commutative, because result order legitimately differs between
/// strategies).
///
/// The canonical column order every producer and every reference verifier
/// must follow is: left fixed columns, right fixed columns, left varchar
/// columns, right varchar columns. Fixed values hash exactly as the
/// pre-varchar executor did, so fixed-only checksums are unchanged.
class RowDigest {
 public:
  /// The digest of a row with no columns.
  static constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ULL;

  /// One fold step: digest `d` absorbs the hash term of column `col`.
  // no-sanitize reason: the column-tag add folds a 64-bit hash term with
  // the shifted column index mod 2^64; wrap is harmless because the sum
  // only feeds the next HashInt64 mix.
  RADIX_NO_SANITIZE_INTEGER static uint64_t Fold(uint64_t d, uint64_t term,
                                                 uint64_t col) {
    return HashInt64(d ^ (term + (col << 32)));
  }

  /// The hash term of a fixed-width value.
  static uint64_t ValueTerm(value_t v) {
    return static_cast<uint64_t>(static_cast<uint32_t>(v));
  }

  /// The hash term of a varchar value.
  static uint64_t StringTerm(std::string_view s) {
    return HashBytes(s.data(), s.size());
  }

  void AddValue(value_t v) { d_ = Fold(d_, ValueTerm(v), col_++); }
  void AddString(std::string_view s) { d_ = Fold(d_, StringTerm(s), col_++); }

  uint64_t digest() const { return d_; }

 private:
  uint64_t d_ = kSeed;
  uint64_t col_ = 0;
};

/// Rows per grain of a pooled result checksum. A result of fewer than two
/// grains is summed serially on the calling thread.
inline constexpr size_t kChecksumGrainRows = size_t{1} << 16;

/// Rows ChecksumColumns digests side by side: it folds one column into a
/// block of this many row digests before moving to the next column, so the
/// per-row HashInt64 chains are independent and overlap in the pipeline
/// instead of running one dependent chain per row.
inline constexpr size_t kChecksumBlockRows = 256;

/// The query checksum of a column-wise result: the wrapping sum of its
/// RowDigests, computed a block of rows at a time (kChecksumBlockRows) with
/// the same fold steps in the same column order, so bit-identical to
/// summing RowDigest row by row. The sum is order-independent, so splitting
/// it into grains on `pool` gives the bit-identical value; nullptr sums
/// serially.
uint64_t ChecksumColumns(const storage::DsmResult& r,
                         ThreadPool* pool = nullptr);

/// The same checksum of a row-major result plus its result-order varchar
/// columns. Zero-width row results collapse to cardinality 0; the varchar
/// columns then carry the row count.
uint64_t ChecksumRows(const storage::NsmResult& r,
                      std::span<const storage::VarcharColumn> left_varchars,
                      std::span<const storage::VarcharColumn> right_varchars,
                      ThreadPool* pool = nullptr);

}  // namespace radix::project

#endif  // RADIX_PROJECT_CHECKSUM_H_
