#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace wsync {
namespace {

TEST(ThreadPoolTest, DefaultWorkersIsPositive) {
  EXPECT_GE(ThreadPool::default_workers(), 1);
  ThreadPool pool;
  EXPECT_EQ(pool.worker_count(), ThreadPool::default_workers());
  ThreadPool explicit_pool(3);
  EXPECT_EQ(explicit_pool.worker_count(), 3);
}

TEST(ThreadPoolTest, RejectsMoreThanMaxWorkersBeforeStartingThreads) {
  // The bound is checked before the first thread starts, so this request
  // starts none: a throw out of a constructor that had started threads
  // would leave them joinable and terminate the process instead.
  EXPECT_LE(ThreadPool::default_workers(), ThreadPool::kMaxWorkers);
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxWorkers + 1), std::invalid_argument);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPoolTest, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();
  pool.wait_idle();  // idempotent
}

TEST(ThreadPoolTest, ParallelForCoversEachIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  parallel_for(pool, hits.size(),
               [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForWritesIndexedSlotsInOrder) {
  ThreadPool pool(4);
  std::vector<int> out(256, -1);
  parallel_for(pool, out.size(),
               [&out](size_t i) { out[i] = static_cast<int>(i) * 3; });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i) * 3);
  }
}

TEST(ThreadPoolTest, SingleWorkerPoolStillCompletes) {
  ThreadPool pool(1);
  std::vector<int> out(64, 0);
  parallel_for(pool, out.size(), [&out](size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
}

TEST(ThreadPoolTest, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ParallelForRethrowsTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 64,
                   [](size_t i) {
                     if (i == 17) throw std::runtime_error("task failure");
                   }),
      std::runtime_error);
  // The pool survives a failed batch and remains usable.
  std::atomic<int> counter{0};
  parallel_for(pool, 8, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 10; ++batch) {
    parallel_for(pool, 32, [&counter](size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 320);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&pool, &counter] {
      pool.submit([&counter] { counter.fetch_add(1); });
    });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 8);
}

}  // namespace
}  // namespace wsync
