#include "common/thread_pool.h"

#include <memory>
#include <utility>

namespace radix {

namespace {
std::atomic<uint64_t> g_pools_constructed{0};

/// Ambient scheduling class of this thread; tasks inherit it at Submit
/// time and workers adopt a task's class while running it, so chained
/// submissions stay in the originating query's class.
thread_local ThreadPool::Priority tl_priority = ThreadPool::Priority::kNormal;
}  // namespace

ThreadPool::Priority ThreadPool::CurrentPriority() { return tl_priority; }

ThreadPool::ScopedPriority::ScopedPriority(Priority priority)
    : previous_(tl_priority) {
  tl_priority = priority;
}

ThreadPool::ScopedPriority::~ScopedPriority() { tl_priority = previous_; }

ThreadPool::ThreadPool(size_t num_threads) {
  g_pools_constructed.fetch_add(1, std::memory_order_relaxed);
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads - 1);
  for (size_t t = 0; t + 1 < num_threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    work_cv_.NotifyAll();
  }
  for (auto& w : workers_) w.join();
}

void ThreadPool::RunTask(Task& task) {
  Priority previous = tl_priority;
  tl_priority = task.priority;
  task.fn();
  tl_priority = previous;
}

bool ThreadPool::PopTaskLocked(Task* task) {
  // Mostly-strict priority with aging: every kAgingPeriod-th dequeue scans
  // lowest class first, so a sustained kHigh stream cannot starve queued
  // kNormal grains — they are guaranteed at least 1/kAgingPeriod of the
  // dequeue bandwidth under saturation.
  const bool aged = ++pop_ticks_ % kAgingPeriod == 0;
  for (size_t i = 0; i < queues_.size(); ++i) {
    auto& queue = queues_[aged ? queues_.size() - 1 - i : i];
    if (!queue.empty()) {
      *task = std::move(queue.front());
      queue.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      MutexLock lock(mu_);
      while (!stop_ && QueuesEmptyLocked()) work_cv_.Wait(lock);
      if (!PopTaskLocked(&task)) return;  // stop_ and drained
    }
    RunTask(task);
    {
      MutexLock lock(mu_);
      --in_flight_;
      idle_cv_.NotifyAll();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  Submit(tl_priority, std::move(task));
}

void ThreadPool::Submit(Priority priority, std::function<void()> task) {
  if (workers_.empty()) {
    Task t{std::move(task), priority};
    RunTask(t);  // size-1 pool: inline, in submission order
    return;
  }
  {
    MutexLock lock(mu_);
    queues_[static_cast<size_t>(priority)].push_back(
        Task{std::move(task), priority});
    ++in_flight_;
    work_cv_.NotifyOne();
  }
}

void ThreadPool::Wait() {
  if (workers_.empty()) return;
  MutexLock lock(mu_);
  while (in_flight_ != 0) idle_cv_.Wait(lock);
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Per-call completion group. Queued helpers are *grains*: each claims
  // exactly one index, runs it, re-enqueues itself if indices remain, and
  // yields the queue in between — so the FIFO interleaves grains of
  // concurrent ParallelFor calls and a long phase cannot occupy a worker
  // beyond one grain. The group outlives the call via shared_ptr: a
  // straggler grain that runs after completion claims an index >= total
  // and returns without touching `body` (which lives on the caller's
  // stack and is only dereferenced for indices < total, all of which
  // complete before the caller returns).
  struct Group {
    std::atomic<size_t> next{0};
    size_t total = 0;
    const std::function<void(size_t)>* body = nullptr;
    Mutex mu;
    CondVar cv;
    size_t done RADIX_GUARDED_BY(mu) = 0;
    /// Deliberately NOT guarded_by(mu): written once before any grain is
    /// queued (publication via Submit's internal lock), read by grains
    /// without mu, and cleared only after done == total — the mutex-order
    /// argument below proves no reader can still be live at that point.
    std::function<void()> grain;
  };
  auto group = std::make_shared<Group>();
  group->total = n;
  group->body = &body;
  const Priority priority = tl_priority;
  group->grain = [this, group, priority] {
    size_t i = group->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= group->total) return;
    (*group->body)(i);
    // Re-enqueue before counting the index done: the pool strictly
    // outlives the queries running on it, so a Submit racing the caller's
    // return is safe, and this order keeps a helper slot alive until the
    // index space is drained.
    if (group->next.load(std::memory_order_relaxed) < group->total) {
      Submit(priority, group->grain);
    }
    {
      MutexLock lock(group->mu);
      if (++group->done == group->total) group->cv.NotifyAll();
    }
  };

  const size_t helpers = std::min(workers_.size(), n - 1);
  for (size_t t = 0; t < helpers; ++t) Submit(priority, group->grain);

  // The calling thread claims indices directly (no queue round-trip): its
  // query makes progress — and completes — even when every worker is busy
  // with other queries' grains.
  for (;;) {
    size_t i = group->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= group->total) break;
    body(i);
    MutexLock lock(group->mu);
    if (++group->done == group->total) group->cv.NotifyAll();
  }
  MutexLock lock(group->mu);
  while (group->done != group->total) group->cv.Wait(lock);
  // Break the grain -> group -> grain shared_ptr cycle, or every call
  // would leak one Group once the queued copies drain. Safe here: a grain
  // re-enqueues *before* counting its index done, so done == total means
  // no Submit can still be reading `grain` (its read is mutex-ordered
  // before this clear via that grain's ++done), and straggler copies in
  // the queue own their own shared_ptr and return without touching it.
  group->grain = nullptr;
}

size_t ThreadPool::DefaultThreads() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<size_t>(hc);
}

uint64_t ThreadPool::TotalConstructed() {
  return g_pools_constructed.load(std::memory_order_relaxed);
}

}  // namespace radix
