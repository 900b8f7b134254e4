#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "src/common/require.h"
#include "src/telemetry/stopwatch.h"

namespace wsync {

int ThreadPool::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, unsigned{kMaxWorkers}));
}

ThreadPool::ThreadPool(int workers) {
  WSYNC_REQUIRE(workers <= kMaxWorkers,
                "thread pool size exceeds ThreadPool::kMaxWorkers");
  const int count = workers <= 0 ? default_workers() : workers;
  threads_.reserve(static_cast<size_t>(count));
  try {
    for (int i = 0; i < count; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // The workers already started wait on work_cv_; unwinding would destroy
    // it under them (a hang) and then destroy joinable threads.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
    stats_.peak_pending = std::max(stats_.peak_pending, ++pending_);
  }
  work_cv_.notify_one();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
    if (tasks_.empty()) return;  // stopped and drained
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    lock.unlock();
    const telemetry::Stopwatch stopwatch;
    task();
    const int64_t nanos = stopwatch.elapsed_nanos();
    task = nullptr;  // release the captures before the task counts as done
    lock.lock();
    stats_.busy_nanos += nanos;
    ++stats_.tasks_executed;
    if (--pending_ == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.workers = worker_count();
  return s;
}

void parallel_for(ThreadPool& pool, size_t count,
                  const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};
  for (size_t i = 0; i < count; ++i) {
    pool.submit([&, i] {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace wsync
