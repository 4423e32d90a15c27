#include "cluster/radix_cluster.h"

#include <string>

// Kernels are templates (header); this TU pins common instantiations so
// most callers link against them instead of re-instantiating.
namespace radix::cluster {

Status ValidateClusterSpec(const ClusterSpec& spec, uint32_t value_bits) {
  if (spec.passes == 0) {
    return Status::InvalidArgument(
        "ClusterSpec.passes == 0: zero passes would return unclustered data "
        "labeled as clustered (B=" +
        std::to_string(spec.total_bits) + ")");
  }
  if (spec.total_bits >= 64) {
    // 2^B clusters must fit a size_t shift and the per-pass RadixBits mask
    // is (1 << Bp) - 1: either shift by >= 64 is undefined. A full-width
    // cluster is degenerate anyway — every value is its own cluster
    // (fuzz: cluster_spec seed full_width_single_pass).
    return Status::InvalidArgument(
        "ClusterSpec.total_bits = " + std::to_string(spec.total_bits) +
        " >= 64: cluster count 2^B and the per-pass radix mask both "
        "overflow a 64-bit shift");
  }
  if (spec.total_bits + spec.ignore_bits > value_bits) {
    return Status::InvalidArgument(
        "ClusterSpec clusters on bits [" + std::to_string(spec.ignore_bits) +
        ", " + std::to_string(spec.ignore_bits + spec.total_bits) +
        ") beyond the " + std::to_string(value_bits) +
        "-bit radix value width");
  }
  return Status::OK();
}

namespace {
struct IdentityRadix {
  uint64_t operator()(const OidPair& p) const { return p.left; }
};
}  // namespace

template ClusterBorders RadixClusterMultiPass<OidPair, IdentityRadix,
                                              simcache::NoTracer>(
    OidPair*, OidPair*, size_t, IdentityRadix, const ClusterSpec&,
    simcache::NoTracer&, OidPair**);

template ClusterBorders RadixClusterMultiPassParallel<OidPair, IdentityRadix>(
    OidPair*, OidPair*, size_t, IdentityRadix, const ClusterSpec&,
    ThreadPool&, OidPair**);

}  // namespace radix::cluster
