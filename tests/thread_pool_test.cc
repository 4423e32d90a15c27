// Tests for the common/thread_pool substrate the parallel radix kernels
// run on: task-queue semantics, ParallelFor coverage, and the size-1
// inline (exact-serial) guarantee.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace radix {
namespace {

TEST(ThreadPoolTest, SizeOnePoolSpawnsNoThreadsAndRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.Submit([&] { order.push_back(1); });
  pool.Submit([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(2);
  });
  pool.Wait();
  EXPECT_EQ(order, (std::vector<size_t>{1, 2}));  // submission order

  std::vector<size_t> visited;
  pool.ParallelFor(5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    visited.push_back(i);
  });
  EXPECT_EQ(visited, (std::vector<size_t>{0, 1, 2, 3, 4}));  // index order
}

TEST(ThreadPoolTest, ZeroIsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  // The pool is reusable after Wait.
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexExactlyOnce) {
  for (size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (size_t n : {0u, 1u, 7u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForBalancesSkewedItems) {
  // One huge item plus many small ones: the work queue must let other
  // threads drain the small items while one thread owns the huge one
  // (this is the per-cluster skew case of the parallel kernels). We only
  // assert completion + exactly-once, not timing.
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(64, [&](size_t i) {
    uint64_t local = 0;
    size_t spin = (i == 0) ? 200'000 : 100;
    for (size_t k = 0; k < spin; ++k) local += k ^ i;
    sum.fetch_add(local + i);
  });
  uint64_t indices = 64 * 63 / 2;
  EXPECT_GE(sum.load(), indices);
}

TEST(ThreadPoolTest, DestructorJoinsWithQueuedWork) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
  }  // destructor must join cleanly
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, HighPriorityTasksDrainBeforeNormal) {
  // Block the single worker of a 2-pool behind a latch task, queue normal
  // tasks then high ones, release: the high tasks must run first even
  // though they were submitted last.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit(ThreadPool::Priority::kNormal, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  std::mutex order_mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
  };
  pool.Submit(ThreadPool::Priority::kNormal, [&] { record(1); });
  pool.Submit(ThreadPool::Priority::kNormal, [&] { record(2); });
  pool.Submit(ThreadPool::Priority::kHigh, [&] { record(-1); });
  pool.Submit(ThreadPool::Priority::kHigh, [&] { record(-2); });
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  EXPECT_EQ(order, (std::vector<int>{-1, -2, 1, 2}));
}

TEST(ThreadPoolTest, AgingPreventsNormalPriorityStarvation) {
  // Block the single worker of a 2-pool, queue one normal task behind a
  // deep backlog of high tasks, release: strict priority would run the
  // normal task dead last, but the aging pop must serve it somewhere in
  // the middle of the high stream.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit(ThreadPool::Priority::kNormal, [&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });

  std::mutex order_mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
  };
  constexpr int kHighTasks = 24;
  pool.Submit(ThreadPool::Priority::kNormal, [&] { record(0); });
  for (int i = 1; i <= kHighTasks; ++i) {
    pool.Submit(ThreadPool::Priority::kHigh, [&, i] { record(i); });
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.Wait();
  ASSERT_EQ(order.size(), static_cast<size_t>(kHighTasks) + 1);
  const auto normal_pos = static_cast<size_t>(
      std::find(order.begin(), order.end(), 0) - order.begin());
  // Not starved to the back of the queue: some high tasks still run after
  // the normal one.
  EXPECT_LT(normal_pos, static_cast<size_t>(kHighTasks));
  // But high priority still dominates: the normal task does not run first.
  EXPECT_GT(normal_pos, 0u);
}

TEST(ThreadPoolTest, ScopedPrioritySetsAmbientPriorityForSubmit) {
  EXPECT_EQ(ThreadPool::CurrentPriority(), ThreadPool::Priority::kNormal);
  {
    ThreadPool::ScopedPriority high(ThreadPool::Priority::kHigh);
    EXPECT_EQ(ThreadPool::CurrentPriority(), ThreadPool::Priority::kHigh);
    {
      ThreadPool::ScopedPriority normal(ThreadPool::Priority::kNormal);
      EXPECT_EQ(ThreadPool::CurrentPriority(),
                ThreadPool::Priority::kNormal);
    }
    EXPECT_EQ(ThreadPool::CurrentPriority(), ThreadPool::Priority::kHigh);
  }
  EXPECT_EQ(ThreadPool::CurrentPriority(), ThreadPool::Priority::kNormal);
}

TEST(ThreadPoolTest, WorkersInheritTaskPriorityForChainedSubmits) {
  // A task submitted at kHigh that itself Submits must stay in the high
  // class — a chain of dependent submissions has to keep the query's
  // priority.
  ThreadPool pool(2);
  std::atomic<int> observed{-1};
  {
    ThreadPool::ScopedPriority high(ThreadPool::Priority::kHigh);
    pool.Submit([&] {
      // Running on a worker now; ambient priority must be the task's.
      observed.store(
          static_cast<int>(ThreadPool::CurrentPriority()));
    });
  }
  pool.Wait();
  EXPECT_EQ(observed.load(),
            static_cast<int>(ThreadPool::Priority::kHigh));
}

TEST(ThreadPoolTest, ConcurrentParallelForCallsCompleteIndependently) {
  // The per-call completion-group contract under engine-style sharing:
  // several client threads run their own ParallelFor on ONE pool at once;
  // each call must return exactly when its own indices are done, with the
  // right per-call sum — the old pool-wide Wait() would deadlock or
  // over-wait here.
  ThreadPool pool(3);
  constexpr size_t kCallers = 6;
  constexpr size_t kN = 257;  // odd, larger than any worker count
  std::vector<uint64_t> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::atomic<uint64_t> sum{0};
      pool.ParallelFor(kN, [&](size_t i) {
        sum.fetch_add(i + 1, std::memory_order_relaxed);
      });
      sums[c] = sum.load();
    });
  }
  for (auto& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[c], uint64_t{kN} * (kN + 1) / 2) << "caller " << c;
  }
}

TEST(ThreadPoolTest, MixedPriorityParallelForCallsAllComplete) {
  // A heavy normal-priority loop and repeated high-priority loops race on
  // one pool: everything completes with correct sums (no class starves the
  // other — high drains first but normal grains still run on the heavy
  // caller's own thread).
  ThreadPool pool(2);
  std::atomic<uint64_t> heavy_sum{0};
  std::thread heavy([&] {
    ThreadPool::ScopedPriority normal(ThreadPool::Priority::kNormal);
    pool.ParallelFor(2000, [&](size_t i) {
      heavy_sum.fetch_add(i, std::memory_order_relaxed);
    });
  });
  std::atomic<uint64_t> point_sum{0};
  std::thread point([&] {
    ThreadPool::ScopedPriority high(ThreadPool::Priority::kHigh);
    for (int rep = 0; rep < 20; ++rep) {
      pool.ParallelFor(50, [&](size_t i) {
        point_sum.fetch_add(i, std::memory_order_relaxed);
      });
    }
  });
  heavy.join();
  point.join();
  EXPECT_EQ(heavy_sum.load(), uint64_t{2000} * 1999 / 2);
  EXPECT_EQ(point_sum.load(), uint64_t{20} * (50 * 49 / 2));
}

TEST(ThreadPoolTest, TotalConstructedCountsEveryPool) {
  const uint64_t before = ThreadPool::TotalConstructed();
  {
    ThreadPool a(1);
    ThreadPool b(2);
  }
  EXPECT_EQ(ThreadPool::TotalConstructed(), before + 2);
}

}  // namespace
}  // namespace radix
