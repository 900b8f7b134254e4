#include "src/common/thread_pool.h"

#include <algorithm>
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
  queues_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  threads_.reserve(static_cast<size_t>(count));
  try {
    for (int i = 0; i < count; ++i) {
      threads_.emplace_back([this, i] { worker_loop(static_cast<size_t>(i)); });
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
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ThreadPool::submit(std::function<void()> task) {
  const size_t target =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  const int64_t now_pending = static_cast<int64_t>(
      pending_.fetch_add(1, std::memory_order_relaxed) + 1);
  int64_t peak = peak_pending_.load(std::memory_order_relaxed);
  while (peak < now_pending &&
         !peak_pending_.compare_exchange_weak(peak, now_pending,
                                              std::memory_order_relaxed)) {
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
  }
  {
    // Lock/unlock pairs the notify with a sleeper's empty-recheck (which
    // holds sleep_mutex_ until wait() releases it), so the push above is
    // either seen by the recheck or the notify lands after wait() began.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_pop(size_t self, std::function<void()>& task) {
  {
    Queue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
      return true;
    }
  }
  for (size_t i = 1; i < queues_.size(); ++i) {
    Queue& victim = *queues_[(self + i) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(std::function<void()>& task) {
  const telemetry::Stopwatch stopwatch;
  task();
  busy_nanos_.fetch_add(stopwatch.elapsed_nanos(), std::memory_order_relaxed);
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    idle_cv_.notify_all();
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
  s.busy_nanos = busy_nanos_.load(std::memory_order_relaxed);
  s.peak_pending = peak_pending_.load(std::memory_order_relaxed);
  s.workers = worker_count();
  return s;
}

void ThreadPool::worker_loop(size_t index) {
  for (;;) {
    std::function<void()> task;
    if (try_pop(index, task)) {
      run_task(task);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (stop_) return;
    if (try_pop(index, task)) {
      lock.unlock();
      run_task(task);
      continue;
    }
    work_cv_.wait(lock);
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(sleep_mutex_);
  idle_cv_.wait(lock,
                [this] { return pending_.load(std::memory_order_acquire) == 0; });
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
