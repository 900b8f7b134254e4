// A small thread pool for replicated simulation runs.
//
// One FIFO of tasks under one mutex: submit() pushes to the back, and any
// idle worker pops the oldest task, so load balances itself. The queue, the
// pending count, the stop flag and the Stats accumulators all live under
// that mutex, so neither a missed wakeup nor a stale counter after
// wait_idle() can happen. Each task is a whole simulation run (microseconds
// to seconds), so three lock acquisitions per task cost nothing measurable.
//
// Determinism contract: the pool schedules *which thread* runs a task, never
// *what* the task computes. Experiment runs draw all randomness from Rng
// streams forked from their own seed (see src/common/rng.h), share no
// mutable state, and write results into caller-preallocated slots indexed by
// task id — so any schedule produces bit-identical results and callers get
// outputs in submission order regardless of completion order.
#ifndef WSYNC_COMMON_THREAD_POOL_H_
#define WSYNC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wsync {

class ThreadPool {
 public:
  /// Largest pool size accepted; more is a mistyped size, not a machine.
  static constexpr int kMaxWorkers = 1024;

  /// Spawns `workers` threads; `workers <= 0` means default_workers().
  /// Throws std::invalid_argument, before starting any thread, when
  /// `workers` exceeds kMaxWorkers. If starting a thread fails, joins the
  /// workers already started and rethrows.
  explicit ThreadPool(int workers = 0);

  /// Finishes every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(threads_.size()); }

  /// Enqueues one task. Thread-safe; may be called from worker threads.
  /// Tasks must not throw: an exception escaping a task unwinds out of the
  /// worker thread and terminates the process. Use parallel_for for work
  /// that can throw — it catches per-task and rethrows on the caller.
  void submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished. Must be called
  /// from outside the pool: a worker calling it would wait on its own
  /// unfinished task and deadlock.
  void wait_idle();

  /// Hardware concurrency, clamped to [1, kMaxWorkers].
  static int default_workers();

  /// Pool telemetry (MetricClass::kTiming only: counts depend on the thread
  /// schedule and busy_nanos on the wall clock, so none of this may feed a
  /// result). Read under the pool's mutex; exact after wait_idle().
  struct Stats {
    int64_t tasks_executed = 0;
    /// Always 0: nothing steals. Kept only for wsbench, its one reader.
    int64_t tasks_stolen = 0;
    int64_t busy_nanos = 0;    ///< task wall time summed over workers
    int64_t peak_pending = 0;  ///< max simultaneous submitted-unfinished tasks
    int workers = 0;
  };
  Stats stats() const;

 private:
  /// Pops and runs tasks until stopped with the queue drained.
  void worker_loop();
  /// Lets every worker drain the queue and exit, then joins it.
  void stop_and_join();

  /// Guards tasks_, stop_, pending_ and stats_.
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait here for tasks
  std::condition_variable idle_cv_;  ///< wait_idle() waits here
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  int64_t pending_ = 0;  ///< submitted, not yet finished
  Stats stats_;          ///< accumulators; stats() fills in `workers`

  /// Declared last: the workers use every member above.
  std::vector<std::thread> threads_;
};

/// Runs fn(0) .. fn(count - 1) on the pool and blocks until all complete.
/// The first exception thrown by any invocation is rethrown here (remaining
/// queued iterations are skipped once a failure is observed). Do not call
/// from inside a pool task — it blocks in wait_idle(), which a worker
/// thread must never do (see above); nest by flattening the work into one
/// batch instead, as OrderedChunkQueue does with (chunk, seed) tasks.
void parallel_for(ThreadPool& pool, size_t count,
                  const std::function<void(size_t)>& fn);

}  // namespace wsync

#endif  // WSYNC_COMMON_THREAD_POOL_H_
