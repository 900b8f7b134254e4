// Windowed, in-order chunk scheduler over the wsync thread pool.
//
// The sweep service decomposes a catalog run into *chunks* (one experiment
// point each) of granular *tasks* (one seeded run each). OrderedChunkQueue
// submits those tasks to the FIFO ThreadPool in chunk order and
// delivers chunk completions back on the caller thread in strict chunk
// order — the merge step every streaming consumer (report writers,
// checkpointing, the serve protocol) relies on for byte-identical output at
// any worker count.
//
// Bounded memory by construction: at most `window` chunks are admitted
// beyond the flush frontier, so a consumer that frees a chunk's task
// storage in on_chunk holds O(window x tasks-per-chunk) state, never the
// whole run. Determinism contract: tasks share no mutable state (each
// writes its own preallocated slot), on_chunk runs only on the caller
// thread, and the delivery order is the chunk order — so the thread
// schedule can influence neither results nor merge order.
#ifndef WSYNC_SERVICE_JOB_QUEUE_H_
#define WSYNC_SERVICE_JOB_QUEUE_H_

#include <cstddef>
#include <functional>

#include "src/common/thread_pool.h"

namespace wsync {

class OrderedChunkQueue {
 public:
  struct Stats {
    size_t chunks = 0;         ///< chunks delivered to on_chunk
    size_t tasks = 0;          ///< granular tasks executed
    size_t max_in_flight = 0;  ///< peak chunks admitted but not yet flushed
  };

  /// Runs chunks [0, chunk_count) over `pool` and returns scheduling stats.
  ///
  /// For each admitted chunk c, `tasks_in_chunk(c)` is called once on the
  /// caller thread (allocate task storage there), then `run_task(c, t)` runs
  /// on pool workers for t in [0, tasks_in_chunk(c)); a zero-task chunk
  /// completes immediately. Once every task of the flush-frontier chunk has
  /// finished, `on_chunk(c)` is invoked on the caller thread — chunks are
  /// delivered in ascending order regardless of completion order, and at
  /// most `window` (>= 1, clamped) chunks past the frontier ever have tasks
  /// outstanding.
  ///
  /// An exception escaping run_task cancels the remaining work: queued
  /// tasks of every admitted chunk become no-ops, the queue drains, and the
  /// first recorded error in (chunk, task) order is rethrown as
  /// std::runtime_error. A chunk with any skipped task never reaches
  /// on_chunk — incomplete results cannot leak into a consumer (or a
  /// checkpoint). An exception from on_chunk or tasks_in_chunk likewise
  /// drains before propagating, so no worker can touch freed state.
  ///
  /// Returns only after pool.wait_idle(), so the pool's counters are exact
  /// when the caller reads them; never call it from a pool worker.
  static Stats run(ThreadPool& pool, size_t chunk_count,
                   const std::function<size_t(size_t)>& tasks_in_chunk,
                   const std::function<void(size_t, size_t)>& run_task,
                   const std::function<void(size_t)>& on_chunk,
                   size_t window);
};

}  // namespace wsync

#endif  // WSYNC_SERVICE_JOB_QUEUE_H_
