#include "src/common/thread_pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <new>
#include <numeric>
#include <stdexcept>
#include <vector>

// Allocation-failure injection for this binary only: once armed on a
// thread, the countdown makes that thread's n-th next allocation throw
// std::bad_alloc. Other threads (the pool's workers) are never failed.
namespace {
thread_local int64_t allocations_before_failure = -1;  // < 0: disarmed

void* allocate(std::size_t size) {
  if (allocations_before_failure >= 0 && allocations_before_failure-- == 0) {
    throw std::bad_alloc();
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}
void operator delete[](void* block, const std::nothrow_t&) noexcept {
  std::free(block);
}

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
  // starts none.
  EXPECT_LE(ThreadPool::default_workers(), ThreadPool::kMaxWorkers);
  EXPECT_THROW(ThreadPool(ThreadPool::kMaxWorkers + 1), std::invalid_argument);
}

TEST(ThreadPoolTest, ConstructorFailureJoinsStartedWorkersAndRethrows) {
  // Fails each allocation the constructor makes in turn — the task queue,
  // the thread vector and every thread's start state — until one construction
  // completes. A failure after a worker has started must stop and join it,
  // then rethrow; unwinding past a waiting worker hangs the process. The
  // sweep runs in a child with an alarm, so a hang fails the test.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        alarm(10);
        int failures = 0;
        for (int64_t n = 0;; ++n) {
          std::fprintf(stderr, "failing allocation %lld\n",
                       static_cast<long long>(n));
          allocations_before_failure = n;
          try {
            ThreadPool pool(4);
            allocations_before_failure = -1;
            std::atomic<int> counter{0};
            parallel_for(pool, 16, [&counter](size_t) { ++counter; });
            std::fprintf(stderr, "constructed after %d failures, ran %d\n",
                         failures, counter.load());
            break;
          } catch (const std::bad_alloc&) {
            allocations_before_failure = -1;
            ++failures;
          }
        }
        std::exit(0);
      },
      ::testing::ExitedWithCode(0),
      "constructed after [1-9][0-9]* failures, ran 16");
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

// Both tests hold the one worker inside the first task on a gate (no
// sleeps) until every task is submitted.
TEST(ThreadPoolTest, DestructorRunsEveryQueuedTask) {
  constexpr int kTasks = 200;
  std::atomic<int> counter{0};
  std::promise<void> gate;
  const std::shared_future<void> opened = gate.get_future().share();
  {
    ThreadPool pool(1);
    pool.submit([opened, &counter] {
      opened.wait();
      counter.fetch_add(1);
    });
    for (int i = 1; i < kTasks; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
    gate.set_value();
    // No wait_idle(): the tasks still queued here are the destructor's.
  }
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(ThreadPoolTest, StatsAreExactAfterWaitIdle) {
  constexpr int kTasks = 32;
  std::promise<void> gate;
  const std::shared_future<void> opened = gate.get_future().share();
  ThreadPool pool(1);
  pool.submit([opened] { opened.wait(); });
  for (int i = 1; i < kTasks; ++i) pool.submit([] {});
  gate.set_value();  // until now, every submitted task was pending
  pool.wait_idle();
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.tasks_executed, kTasks);
  EXPECT_EQ(stats.peak_pending, kTasks);
  EXPECT_EQ(stats.workers, 1);
  EXPECT_EQ(stats.tasks_stolen, 0);
  EXPECT_GT(stats.busy_nanos, 0);
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
