// OrderedChunkQueue wall: thousands of tiny jobs over every worker count,
// asserting the scheduler's three contracts — no task lost or duplicated,
// chunks delivered in strict ascending order, and never more than `window`
// chunks in flight past the frontier. The suite name matches the tsan test
// preset filter, so the whole stress matrix also runs under
// ThreadSanitizer.
#include "src/service/job_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"

namespace wsync {
namespace {

/// Staggered chunk sizes in [0, 11): zero-task chunks interleave with fat
/// ones, and the mix shifts with `salt` so different windows exercise
/// different layouts.
std::vector<size_t> staggered_sizes(size_t chunks, size_t salt) {
  std::vector<size_t> sizes(chunks);
  for (size_t c = 0; c < chunks; ++c) sizes[c] = (c * 7 + salt) % 11;
  return sizes;
}

TEST(JobQueueStress, ThousandsOfTinyJobsAcrossWorkersAndWindows) {
  constexpr size_t kChunks = 400;
  for (const int workers : {1, 2, 4, 8}) {
    ThreadPool pool(workers);
    for (const size_t window : {size_t{1}, size_t{2}, size_t{7}, size_t{32}}) {
      const std::vector<size_t> sizes = staggered_sizes(kChunks, window);
      std::vector<size_t> first_task(kChunks, 0);
      for (size_t c = 1; c < kChunks; ++c) {
        first_task[c] = first_task[c - 1] + sizes[c - 1];
      }
      const size_t total = first_task.back() + sizes.back();
      ASSERT_GT(total, 1000u);

      std::vector<std::atomic<int>> runs(total);
      std::vector<size_t> delivered;
      const OrderedChunkQueue::Stats stats = OrderedChunkQueue::run(
          pool, kChunks, [&](size_t chunk) { return sizes[chunk]; },
          [&](size_t chunk, size_t task) {
            runs[first_task[chunk] + task].fetch_add(1,
                                                     std::memory_order_relaxed);
          },
          [&](size_t chunk) { delivered.push_back(chunk); }, window);

      // Every chunk delivered exactly once, in ascending order.
      ASSERT_EQ(delivered.size(), kChunks);
      for (size_t c = 0; c < kChunks; ++c) EXPECT_EQ(delivered[c], c);

      // Every task ran exactly once: nothing lost, nothing duplicated.
      for (size_t i = 0; i < total; ++i) {
        ASSERT_EQ(runs[i].load(), 1) << "task " << i;
      }

      EXPECT_EQ(stats.chunks, kChunks);
      EXPECT_EQ(stats.tasks, total);
      EXPECT_GE(stats.max_in_flight, 1u);
      EXPECT_LE(stats.max_in_flight, window);
    }
  }
}

TEST(JobQueueStress, StaggeredSubmissionFromOnChunk) {
  // on_chunk runs on the caller thread while later chunks are in flight;
  // doing caller-side work there (as the sweep's aggregation does) must not
  // perturb order or completeness.
  ThreadPool pool(4);
  constexpr size_t kChunks = 200;
  std::atomic<size_t> executed{0};
  std::vector<size_t> delivered;
  size_t caller_side_work = 0;
  OrderedChunkQueue::run(
      pool, kChunks, [](size_t) { return size_t{3}; },
      [&](size_t, size_t) { executed.fetch_add(1); },
      [&](size_t chunk) {
        delivered.push_back(chunk);
        for (size_t i = 0; i < 1000; ++i) caller_side_work += i ^ chunk;
      },
      /*window=*/5);
  EXPECT_EQ(executed.load(), kChunks * 3);
  ASSERT_EQ(delivered.size(), kChunks);
  EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end()));
  EXPECT_NE(caller_side_work, 0u);
}

TEST(JobQueueStress, WindowOneSerializesChunks) {
  // window=1 means a chunk's tasks only start after the previous chunk
  // flushed: in-flight never exceeds one.
  ThreadPool pool(8);
  const OrderedChunkQueue::Stats stats = OrderedChunkQueue::run(
      pool, 50, [](size_t) { return size_t{4}; }, [](size_t, size_t) {},
      [](size_t) {}, /*window=*/1);
  EXPECT_EQ(stats.max_in_flight, 1u);
  EXPECT_EQ(stats.tasks, 200u);
}

TEST(JobQueueStress, WindowZeroIsClampedToOne) {
  ThreadPool pool(2);
  std::vector<size_t> delivered;
  const OrderedChunkQueue::Stats stats = OrderedChunkQueue::run(
      pool, 10, [](size_t) { return size_t{1}; }, [](size_t, size_t) {},
      [&](size_t chunk) { delivered.push_back(chunk); }, /*window=*/0);
  EXPECT_EQ(stats.max_in_flight, 1u);
  EXPECT_EQ(delivered.size(), 10u);
}

TEST(JobQueueStress, AllZeroTaskChunksStillDeliverInOrder) {
  ThreadPool pool(4);
  std::vector<size_t> delivered;
  const OrderedChunkQueue::Stats stats = OrderedChunkQueue::run(
      pool, 64, [](size_t) { return size_t{0}; },
      [](size_t, size_t) { FAIL() << "no task should run"; },
      [&](size_t chunk) { delivered.push_back(chunk); }, /*window=*/8);
  EXPECT_EQ(stats.tasks, 0u);
  ASSERT_EQ(delivered.size(), 64u);
  EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end()));
}

TEST(JobQueueStress, ReturnsWithThePoolQuiesced) {
  // A worker can still be between a task's return and the pool counting
  // it; run() waits that out. 8 workers make a preempted one likely.
  for (int repeat = 0; repeat < 100; ++repeat) {
    ThreadPool pool(8);
    const OrderedChunkQueue::Stats stats = OrderedChunkQueue::run(
        pool, 16, [](size_t) { return size_t{3}; }, [](size_t, size_t) {},
        [](size_t) {}, /*window=*/4);
    ASSERT_EQ(pool.stats().tasks_executed, static_cast<int64_t>(stats.tasks))
        << "repeat " << repeat;
  }
}

TEST(JobQueueStress, ZeroChunksIsANoOp) {
  ThreadPool pool(2);
  const OrderedChunkQueue::Stats stats = OrderedChunkQueue::run(
      pool, 0, [](size_t) { return size_t{1}; },
      [](size_t, size_t) { FAIL(); }, [](size_t) { FAIL(); }, /*window=*/4);
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_EQ(stats.tasks, 0u);
}

TEST(JobQueueError, TaskErrorIsReportedWithChunkAndTaskIndex) {
  ThreadPool pool(4);
  try {
    OrderedChunkQueue::run(
        pool, 20, [](size_t) { return size_t{4}; },
        [](size_t chunk, size_t task) {
          if (chunk == 5 && task == 3) throw std::invalid_argument("boom");
        },
        [](size_t) {}, /*window=*/4);
    FAIL() << "expected a task error";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "chunk 5 task 3: boom");
  }
}

TEST(JobQueueError, ChunksAfterAnErrorNeverReachOnChunk) {
  // Everything delivered must precede the failing chunk, at every worker
  // count: incomplete results can never leak into a consumer.
  for (const int workers : {1, 4}) {
    ThreadPool pool(workers);
    std::vector<size_t> delivered;
    EXPECT_THROW(
        OrderedChunkQueue::run(
            pool, 40, [](size_t) { return size_t{2}; },
            [](size_t chunk, size_t) {
              if (chunk == 7) throw std::runtime_error("dead");
            },
            [&](size_t chunk) { delivered.push_back(chunk); },
            /*window=*/6),
        std::runtime_error);
    for (const size_t chunk : delivered) EXPECT_LT(chunk, 7u);
  }
}

TEST(JobQueueError, OnChunkErrorDrainsBeforePropagating) {
  // After the throw, every admitted task must have finished (or no-opped):
  // counters touched by workers may not move once run() has unwound.
  ThreadPool pool(4);
  std::atomic<size_t> executed{0};
  EXPECT_THROW(OrderedChunkQueue::run(
                   pool, 30, [](size_t) { return size_t{2}; },
                   [&](size_t, size_t) { executed.fetch_add(1); },
                   [](size_t chunk) {
                     if (chunk == 3) throw std::logic_error("sink failed");
                   },
                   /*window=*/4),
               std::logic_error);
  const size_t settled = executed.load();
  pool.wait_idle();
  EXPECT_EQ(executed.load(), settled);
}

}  // namespace
}  // namespace wsync
