#include "join/join_index.h"

#include <algorithm>

namespace radix::join {

std::vector<oid_t> JoinIndex::RightOids() const {
  std::vector<oid_t> out(pairs_.size());
  for (size_t i = 0; i < pairs_.size(); ++i) out[i] = pairs_[i].right;
  return out;
}

JoinShards::JoinShards(std::vector<OidPairs> shards)
    : shards_(std::move(shards)) {
  for (const OidPairs& s : shards_) size_ += s.size();
}

JoinShards::JoinShards(JoinIndex index) : size_(index.size()) {
  shards_.push_back(std::move(index.pairs()));
}

std::vector<std::span<const OidPair>> JoinShards::Segments(
    size_t max_rows) const {
  max_rows = std::max<size_t>(1, max_rows);
  std::vector<std::span<const OidPair>> segments;
  for (const OidPairs& shard : shards_) {
    for (size_t begin = 0; begin < shard.size(); begin += max_rows) {
      segments.emplace_back(shard.data() + begin,
                            std::min(max_rows, shard.size() - begin));
    }
  }
  return segments;
}

JoinIndex JoinShards::Concat(ThreadPool* pool) {
  if (shards_.size() == 1) {
    JoinIndex index(std::move(shards_.front()));
    Clear();
    return index;
  }
  OidPairs out(size_);
  std::vector<size_t> offsets(shards_.size() + 1, 0);
  for (size_t c = 0; c < shards_.size(); ++c) {
    offsets[c + 1] = offsets[c] + shards_[c].size();
  }
  auto copy = [&](size_t c) {
    std::copy(shards_[c].begin(), shards_[c].end(),
              out.begin() + static_cast<ptrdiff_t>(offsets[c]));
  };
  if (SliceCount(pool, size_) > 1) {
    pool->ParallelFor(shards_.size(), copy);
  } else {
    for (size_t c = 0; c < shards_.size(); ++c) copy(c);
  }
  Clear();
  return JoinIndex(std::move(out));
}

void JoinShards::Clear() {
  shards_.clear();
  shards_.shrink_to_fit();
  size_ = 0;
}

}  // namespace radix::join
