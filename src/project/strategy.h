#ifndef RADIX_PROJECT_STRATEGY_H_
#define RADIX_PROJECT_STRATEGY_H_

#include <cstdint>
#include <string>

namespace radix::project {

/// DSM post-projection strategy codes, one per side, as defined in paper
/// §4.1 and reported in Fig. 10c's point labels (u/u, c/u, c/d, s/d).
enum class SideStrategy : uint8_t {
  kUnsorted,   ///< u: positional joins straight off the join index
  kSorted,     ///< s: radix-sort the join index on this side first
  kClustered,  ///< c: partial radix-cluster (left/"larger" side only)
  kDecluster,  ///< d: cluster + positional join + radix-decluster (right side)
};

const char* SideStrategyCode(SideStrategy s);

/// Overall join+projection strategies compared in Fig. 10.
enum class JoinStrategy : uint8_t {
  kDsmPostDecluster,  ///< DSM post-projection (the paper's winner)
  kDsmPrePhash,       ///< DSM pre-projection, partitioned hash join
  kNsmPreHash,        ///< NSM pre-projection, naive hash join
  kNsmPrePhash,       ///< NSM pre-projection, partitioned hash join
  kNsmPostDecluster,  ///< NSM post-projection via Radix-Decluster
  kNsmPostJive,       ///< NSM post-projection via Jive-Join
};

const char* JoinStrategyName(JoinStrategy s);

/// Phase timings every strategy reports; the breakdowns behind Figs. 7b
/// and the >90%-in-projection observation of §1.
///
/// The four per-phase fields are *busy* time. For materializing runs the
/// phases execute back-to-back on one thread, so busy == wall and they sum
/// to the run's elapsed time. A streamed run (RunQueryStreaming) runs its
/// gathers and fused decluster as chunk grains across pool threads: the
/// per-phase fields then accumulate thread-seconds across all grains and
/// may legitimately exceed the wall clock; the wall time of the streamed
/// sections is recorded separately in pipeline_wall_seconds.
struct PhaseBreakdown {
  double join_seconds = 0;        ///< creating the join index / join phase
  double cluster_seconds = 0;     ///< radix-cluster / sort of the index
  double projection_seconds = 0;  ///< positional joins / record copies
  double decluster_seconds = 0;   ///< radix-decluster passes
  /// Wall seconds of the streamed (overlapped) pipeline sections; 0 for
  /// materializing runs.
  double pipeline_wall_seconds = 0;

  bool overlapped() const { return pipeline_wall_seconds > 0; }

  /// Total busy time (thread-seconds once overlapped).
  double busy_total() const {
    return join_seconds + cluster_seconds + projection_seconds +
           decluster_seconds;
  }

  /// Wall-clock attributable time: the overlapped projection + decluster
  /// sections count by their pipeline wall time, not their busy sums, so
  /// total() never exceeds QueryRun::seconds (up to scheduling noise).
  double total() const {
    return overlapped()
               ? join_seconds + cluster_seconds + pipeline_wall_seconds
               : busy_total();
  }
};

}  // namespace radix::project

#endif  // RADIX_PROJECT_STRATEGY_H_
