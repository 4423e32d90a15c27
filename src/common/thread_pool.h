#ifndef RADIX_COMMON_THREAD_POOL_H_
#define RADIX_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace radix {

/// Fixed-size worker pool with a two-level FIFO task queue, built for the
/// parallel radix kernels *and* for many concurrent queries sharing one
/// pool: the unit of work is a bounded grain (one cluster, one window range,
/// one streamed chunk stage), and threads pull grains off the shared queue
/// so skewed grain sizes self-balance and no query can monopolise a worker
/// for longer than one grain.
///
/// A pool of size 1 spawns no threads at all: every task and ParallelFor
/// body runs inline on the calling thread, in submission/index order. This
/// makes `num_threads == 1` exactly the serial code path (same instruction
/// stream, tracer-safe), which is what lets the property tests assert the
/// parallel kernels bit-identical against it.
///
/// Concurrency contract (the morsel scheduler underneath engine::Engine):
///  * Submit / ParallelFor may be called from any number of threads
///    concurrently.
///  * ParallelFor is a per-call completion group: it returns when *its own*
///    n bodies finished, regardless of what other callers queued — under
///    concurrent queries the old pool-wide Wait() could block forever.
///  * Each queued ParallelFor grain runs exactly one body index and then
///    re-enqueues itself, yielding the FIFO queue between grains, so grains
///    of concurrent queries interleave instead of one 8M-row phase draining
///    to completion first.
///  * The calling thread always participates in its own ParallelFor by
///    claiming indices directly; a query therefore completes even when
///    every worker is busy with other queries (no starvation of admitted
///    work).
class ThreadPool {
 public:
  /// Scheduling class of a task. kHigh drains ahead of kNormal, so
  /// point-ish queries overtake the queued grains of heavy queries at every
  /// grain boundary (they never preempt a *running* grain — grains are
  /// bounded instead). Not strict: every kAgingPeriod-th dequeue serves the
  /// lowest non-empty class first, bounding starvation — a sustained kHigh
  /// stream still leaves kNormal grains >= 1/kAgingPeriod of the dequeue
  /// bandwidth (heavy queries additionally progress on their own calling
  /// thread regardless of queue pressure).
  enum class Priority : uint8_t { kHigh = 0, kNormal = 1 };
  static constexpr size_t kNumPriorities = 2;

  /// Spawns `num_threads - 1` workers (the calling thread is the remaining
  /// participant in ParallelFor). num_threads == 0 is clamped to 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  RADIX_DISALLOW_COPY_AND_ASSIGN(ThreadPool);

  size_t num_threads() const { return workers_.size() + 1; }

  /// Enqueue one task at the calling thread's ambient priority (see
  /// ScopedPriority). Tasks may run on any worker (or on the calling thread
  /// for a size-1 pool, in which case Submit runs it inline).
  void Submit(std::function<void()> task) RADIX_EXCLUDES(mu_);

  /// Enqueue one task at an explicit priority.
  void Submit(Priority priority, std::function<void()> task)
      RADIX_EXCLUDES(mu_);

  /// Block until every task submitted so far — by anyone — has finished.
  /// Pool-wide; prefer ParallelFor's built-in per-call completion under
  /// concurrent queries.
  void Wait() RADIX_EXCLUDES(mu_);

  /// Run body(i) for every i in [0, n). Work items are claimed dynamically
  /// off a shared counter (a work queue over indices), so uneven item costs
  /// — e.g. skewed cluster sizes — balance across threads. The calling
  /// thread participates. Blocks until all n items are done — and only
  /// this call's items: concurrent ParallelFor calls from other threads
  /// each track their own completion.
  ///
  /// Not reentrant: do not call ParallelFor (or Submit+Wait) from inside a
  /// body running on this pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body)
      RADIX_EXCLUDES(mu_);

  /// The ambient priority of the calling thread: what Submit(task) and
  /// ParallelFor enqueue at. Defaults to kNormal; set with ScopedPriority.
  /// Worker threads inherit the priority of the task they are running, so
  /// chained submissions (a gather task enqueueing its sink) stay in the
  /// query's class.
  static Priority CurrentPriority();

  /// RAII ambient-priority override for the calling thread. The engine
  /// wraps a query's execution in one of these; every grain the query's
  /// kernels enqueue then carries the query's class without threading a
  /// priority argument through every kernel signature.
  class ScopedPriority {
   public:
    explicit ScopedPriority(Priority priority);
    ~ScopedPriority();
    RADIX_DISALLOW_COPY_AND_ASSIGN(ScopedPriority);

   private:
    Priority previous_;
  };

  /// Default parallelism for callers that pass num_threads == 0: the
  /// hardware concurrency, or 1 when it cannot be determined.
  static size_t DefaultThreads();

  /// Process-wide count of ThreadPool objects ever constructed. Lets tests
  /// assert that a steady-state query path spawns no pools (the engine's
  /// zero-constructions-per-query contract); not a liveness count.
  static uint64_t TotalConstructed();

 private:
  struct Task {
    std::function<void()> fn;
    Priority priority = Priority::kNormal;
  };

  /// One dequeue in kAgingPeriod inverts the priority scan (see Priority).
  static constexpr uint64_t kAgingPeriod = 8;

  void WorkerLoop() RADIX_EXCLUDES(mu_);
  /// Run one task with the worker's ambient priority set to the task's.
  static void RunTask(Task& task);
  /// Pop the front task, highest priority first with aging.
  bool PopTaskLocked(Task* task) RADIX_REQUIRES(mu_);
  bool QueuesEmptyLocked() const RADIX_REQUIRES(mu_) {
    return queues_[0].empty() && queues_[1].empty();
  }

  /// Immutable after construction (the ctor spawns, the dtor joins);
  /// deliberately not guarded.
  std::vector<std::thread> workers_;

  /// mu_ guards every field below. It is a leaf lock: no thread ever
  /// acquires another radix mutex while holding it (see
  /// docs/CONCURRENCY.md), and per-call ParallelFor group mutexes are
  /// never held across Submit.
  Mutex mu_;
  CondVar work_cv_;  ///< signalled (under mu_) when tasks arrive / stop
  CondVar idle_cv_;  ///< signalled (under mu_) when a task completes
  std::array<std::deque<Task>, kNumPriorities> queues_ RADIX_GUARDED_BY(mu_);
  /// Dequeues so far, drives priority aging.
  uint64_t pop_ticks_ RADIX_GUARDED_BY(mu_) = 0;
  /// Queued + currently running tasks.
  size_t in_flight_ RADIX_GUARDED_BY(mu_) = 0;
  bool stop_ RADIX_GUARDED_BY(mu_) = false;
};

/// The pool a kernel runs on: `pool` when it has more than one thread,
/// else nullptr. A one-thread pool (or none) runs the exact serial
/// kernels, never their parallel variants on one thread.
inline ThreadPool* KernelPool(ThreadPool* pool) {
  return pool != nullptr && pool->num_threads() > 1 ? pool : nullptr;
}

/// Rows per slice below which a row-parallel loop (pack, unpack, fill,
/// copy) stays on the calling thread: a slice this small costs
/// less than handing it to a worker. Row counts, not a knob, are what keep
/// cache-resident shapes serial.
inline constexpr size_t kParallelSliceRows = size_t{1} << 16;

/// Number of contiguous slices ForEachSlice cuts n rows into: about two per
/// thread, none under kParallelSliceRows; 1 (serial) without a multi-thread
/// pool.
inline size_t SliceCount(const ThreadPool* pool, size_t n) {
  if (pool == nullptr || pool->num_threads() <= 1) return 1;
  return std::clamp<size_t>(n / kParallelSliceRows, 1,
                            2 * pool->num_threads());
}

/// Runs body(begin, end) over contiguous slices covering [0, n): as
/// SliceCount() work items on `pool`, or once as body(0, n) on the calling
/// thread when that count is 1. Slices write disjoint ranges, so the result
/// never depends on the split.
template <typename Body>
void ForEachSlice(ThreadPool* pool, size_t n, const Body& body) {
  const size_t slices = SliceCount(pool, n);
  if (slices <= 1) {
    body(size_t{0}, n);
    return;
  }
  pool->ParallelFor(slices, [&](size_t s) {
    body(n * s / slices, n * (s + 1) / slices);
  });
}

}  // namespace radix

#endif  // RADIX_COMMON_THREAD_POOL_H_
