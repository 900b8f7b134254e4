#include "src/service/job_queue.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/require.h"

namespace wsync {

namespace {

/// One ring slot: the in-flight state of chunk `chunk`. Slots are reused
/// modulo the window; a slot is recycled only after its chunk was flushed,
/// and admission never runs more than `window` chunks past the frontier, so
/// a live chunk can never collide with its successor.
struct Slot {
  size_t chunk = 0;
  size_t remaining = 0;  ///< tasks not yet finished; guarded by the mutex
  bool done = false;     ///< guarded by the mutex
  /// True when any task was skipped by cancellation: the chunk's results
  /// are incomplete and it must never reach on_chunk.
  bool skipped = false;
  /// First task error of this chunk, by task index (deterministic pick when
  /// several workers fail concurrently).
  size_t error_task = 0;
  std::string error;
};

}  // namespace

OrderedChunkQueue::Stats OrderedChunkQueue::run(
    ThreadPool& pool, size_t chunk_count,
    const std::function<size_t(size_t)>& tasks_in_chunk,
    const std::function<void(size_t, size_t)>& run_task,
    const std::function<void(size_t)>& on_chunk, size_t window) {
  WSYNC_REQUIRE(tasks_in_chunk && run_task && on_chunk,
                "OrderedChunkQueue needs all three callbacks");
  window = std::max<size_t>(1, window);

  std::vector<Slot> ring(std::min(window, std::max<size_t>(1, chunk_count)));
  std::mutex mutex;
  std::condition_variable done_cv;
  std::atomic<bool> cancelled{false};

  Stats stats;
  size_t next_admit = 0;

  auto record_error = [&](Slot& slot, size_t task, const char* what) {
    std::lock_guard<std::mutex> lock(mutex);
    if (slot.error.empty() || task < slot.error_task) {
      slot.error_task = task;
      slot.error = what;
    }
  };

  auto finish_task = [&](Slot& slot) {
    std::lock_guard<std::mutex> lock(mutex);
    if (--slot.remaining == 0) {
      slot.done = true;
      done_cv.notify_all();
    }
  };

  // Caller thread: admit chunks up to `frontier + window`, one pool task
  // per granular task.
  auto admit_until = [&](size_t frontier) {
    while (next_admit < chunk_count && next_admit < frontier + window) {
      Slot& slot = ring[next_admit % ring.size()];
      slot.chunk = next_admit;
      slot.skipped = false;
      slot.error.clear();
      const size_t tasks = tasks_in_chunk(next_admit);
      stats.tasks += tasks;
      {
        std::lock_guard<std::mutex> lock(mutex);
        slot.remaining = tasks;
        slot.done = tasks == 0;
      }
      Slot* admitted = &slot;
      for (size_t task = 0; task < tasks; ++task) {
        pool.submit([&, admitted, task] {
          if (cancelled.load(std::memory_order_relaxed)) {
            std::lock_guard<std::mutex> skip_lock(mutex);
            admitted->skipped = true;
          } else {
            try {
              run_task(admitted->chunk, task);
            } catch (const std::exception& error) {
              record_error(*admitted, task, error.what());
              cancelled.store(true, std::memory_order_relaxed);
            } catch (...) {
              record_error(*admitted, task, "unknown task error");
              cancelled.store(true, std::memory_order_relaxed);
            }
          }
          finish_task(*admitted);
        });
      }
      ++next_admit;
      stats.max_in_flight =
          std::max(stats.max_in_flight, next_admit - stats.chunks);
    }
  };

  // Drain before unwinding: every admitted chunk must finish (cancelled
  // tasks are no-ops) so no worker touches a destroyed slot.
  auto drain = [&] {
    cancelled.store(true, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(mutex);
    for (size_t c = stats.chunks; c < next_admit; ++c) {
      Slot& slot = ring[c % ring.size()];
      done_cv.wait(lock, [&slot] { return slot.done; });
    }
  };

  for (size_t frontier = 0; frontier < chunk_count; ++frontier) {
    try {
      admit_until(frontier);
    } catch (...) {
      drain();
      throw;
    }
    Slot& slot = ring[frontier % ring.size()];
    bool failed = false;
    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&slot] { return slot.done; });
      failed = slot.skipped || !slot.error.empty();
    }
    if (failed) {
      // A skipped or errored frontier chunk must never reach on_chunk (its
      // results are incomplete). Drain everything, then report the first
      // recorded error in (chunk, task) order — cancellation guarantees at
      // least one exists.
      drain();
      std::string message = "task error lost";  // unreachable fallback
      for (size_t c = frontier; c < next_admit; ++c) {
        const Slot& errored = ring[c % ring.size()];
        if (!errored.error.empty()) {
          message = "chunk " + std::to_string(c) + " task " +
                    std::to_string(errored.error_task) + ": " +
                    errored.error;
          break;
        }
      }
      throw std::runtime_error(message);
    }
    try {
      on_chunk(frontier);
    } catch (...) {
      ++stats.chunks;
      drain();
      throw;
    }
    ++stats.chunks;
  }
  // Quiesce: the last task has signalled its chunk, but its worker may not
  // have retired it from the pool yet, and callers read pool.stats() next.
  pool.wait_idle();
  return stats;
}

}  // namespace wsync
