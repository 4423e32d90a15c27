#ifndef RADIX_PIPELINE_OPERATORS_H_
#define RADIX_PIPELINE_OPERATORS_H_

#include <span>
#include <vector>

#include "cluster/radix_cluster.h"
#include "common/types.h"
#include "pipeline/executor.h"

namespace radix::pipeline {

/// Gather stage of a streamed decluster side: for each projected column,
/// fetch the values at the chunk's range of the clustered id column into
/// the chunk's arena buffers (join::PositionalJoinRange). The per-chunk
/// footprint — columns x chunk rows — is the O(chunk_rows * columns)
/// intermediate the subsystem exists to bound.
class ClusteredGatherStage : public ChunkStage {
 public:
  ClusteredGatherStage(std::span<const oid_t> ids,
                       std::vector<std::span<const value_t>> columns)
      : ids_(ids), columns_(std::move(columns)) {}

  void Run(WorkChunk& chunk) override;

 private:
  std::span<const oid_t> ids_;
  std::vector<std::span<const value_t>> columns_;
};

/// Sink stage of a streamed decluster side: per column, window-merge the
/// chunk's clusters into the final result (decluster::RadixDeclusterChunk).
/// Distinct chunks write disjoint result slots, so chunks decluster
/// concurrently while later chunks still gather.
class DeclusterMergeSink : public ChunkStage {
 public:
  DeclusterMergeSink(std::span<const oid_t> result_pos,
                     const cluster::ClusterBorders* borders,
                     size_t window_elems,
                     std::vector<std::span<value_t>> outs)
      : result_pos_(result_pos),
        borders_(borders),
        window_elems_(window_elems),
        outs_(std::move(outs)) {}

  void Run(WorkChunk& chunk) override;

 private:
  std::span<const oid_t> result_pos_;
  const cluster::ClusterBorders* borders_;
  size_t window_elems_;
  std::vector<std::span<value_t>> outs_;
};

/// Order-preserving gather off one side of a join index (the left
/// projections after the index has been reordered, or a right side u):
/// result order is index order, so each chunk gathers straight into its
/// row range of the final columns — no intermediate, no sink stage, and no
/// oid-column copy.
class PairsGatherStage : public ChunkStage {
 public:
  PairsGatherStage(std::span<const cluster::OidPair> index, bool left_side,
                   std::vector<std::span<const value_t>> columns,
                   std::vector<std::span<value_t>> outs)
      : index_(index),
        left_side_(left_side),
        columns_(std::move(columns)),
        outs_(std::move(outs)) {}

  void Run(WorkChunk& chunk) override;

 private:
  std::span<const cluster::OidPair> index_;
  bool left_side_;
  std::vector<std::span<const value_t>> columns_;
  std::vector<std::span<value_t>> outs_;
};

}  // namespace radix::pipeline

#endif  // RADIX_PIPELINE_OPERATORS_H_
