#include "pipeline/operators.h"

#include "decluster/radix_decluster.h"
#include "join/positional_join.h"

namespace radix::pipeline {

void ClusteredGatherStage::Run(WorkChunk& chunk) {
  const ChunkDesc& d = chunk.desc;
  RADIX_DCHECK(columns_.size() <= chunk.arena.columns());
  RADIX_DCHECK(d.rows() <= chunk.arena.capacity_rows());
  for (size_t a = 0; a < columns_.size(); ++a) {
    join::PositionalJoinRange<value_t>(ids_, d.row_begin, d.row_end,
                                       columns_[a], chunk.column(a));
  }
}

void DeclusterMergeSink::Run(WorkChunk& chunk) {
  const ChunkDesc& d = chunk.desc;
  std::vector<decluster::ClusterCursor> base = decluster::MakeCursorsForRange(
      *borders_, d.cluster_begin, d.cluster_end);
  if (base.empty()) return;
  for (size_t a = 0; a < outs_.size(); ++a) {
    // The merge consumes its cursors; each column restarts from a copy.
    // The ids/cursors are identical across columns, so the debug-build
    // precondition sweep runs only for the first.
    decluster::RadixDeclusterChunk<value_t>(chunk.column(a), d.row_begin,
                                            result_pos_, base, window_elems_,
                                            outs_[a], /*validate=*/a == 0);
  }
}

void PairsGatherStage::Run(WorkChunk& chunk) {
  const ChunkDesc& d = chunk.desc;
  for (size_t a = 0; a < columns_.size(); ++a) {
    value_t* out = outs_[a].data() + d.row_begin;
    if (left_side_) {
      join::PositionalJoinPairsRange<value_t, /*kLeft=*/true>(
          index_, d.row_begin, d.row_end, columns_[a], out);
    } else {
      join::PositionalJoinPairsRange<value_t, /*kLeft=*/false>(
          index_, d.row_begin, d.row_end, columns_[a], out);
    }
  }
}

}  // namespace radix::pipeline
