// Fixed-size worker pool used by the concurrent execution and commitment
// phases. Tasks are submitted as std::function<void()>; ParallelFor provides
// a blocking data-parallel loop with static chunking (deterministic split).
//
// Nested submission: a task running ON a pool worker must not block on
// futures of sub-tasks queued to the same pool — with every worker blocked
// in such a wait, nothing drains the queue and the pool deadlocks. All the
// blocking loops below (ParallelFor, ParallelForChunked, ParallelForGroups)
// therefore detect that the calling thread is one of this pool's workers
// and execute the whole range inline instead of submitting
// (nezha_threadpool_inline_fallbacks_total counts these).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace nezha {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1; 0 means hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; returns a future for completion/exception propagation.
  std::future<void> Submit(std::function<void()> task);

  /// Runs fn(i) for i in [begin, end) across the pool, blocking until all
  /// iterations complete. Iterations are split into contiguous chunks, one
  /// batch per worker, so the partition is deterministic for a given pool
  /// size. Exceptions from fn are rethrown (first one wins).
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& fn);

  /// Like ParallelFor but hands each worker its chunk [chunk_begin,
  /// chunk_end) plus a stable worker slot index, letting callers keep
  /// per-worker scratch state without false sharing.
  void ParallelForChunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t chunk_begin, std::size_t chunk_end,
                               std::size_t worker_slot)>& fn);

  /// Runs fn(group, item) for every item of every group, with a barrier
  /// between consecutive groups: group g starts only after every item of
  /// group g-1 returned (the shape of Nezha's sequence-number commit
  /// groups). Items within one group run in parallel; groups of one item
  /// run inline with no dispatch overhead. When called from one of this
  /// pool's own worker threads everything executes inline on the caller
  /// (see the nested-submission note above), so executors may safely drive
  /// ParallelForGroups from tasks already running on the pool.
  /// Exceptions from fn abort the remaining groups and are rethrown.
  void ParallelForGroups(
      std::span<const std::size_t> group_sizes,
      const std::function<void(std::size_t group, std::size_t item)>& fn);

  /// True when the calling thread is one of this pool's workers (the
  /// condition under which the blocking loops fall back to inline
  /// execution).
  bool OnWorkerThread() const;

 private:
  /// The queued unit is a packaged task whose closure already carries the
  /// submit-time context (submitter's pipeline stage, and the enqueue
  /// timestamp while the profiler samples) and performs its own stamping —
  /// the sample is recorded before the task's future becomes ready, so a
  /// driver that joins a ParallelFor and immediately closes the profiling
  /// window still sees every sample (see Submit).
  struct QueuedTask {
    std::packaged_task<void()> task;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<QueuedTask> tasks_ GUARDED_BY(mutex_);
  /// Waits on the annotated Mutex directly (it is BasicLockable).
  std::condition_variable_any cv_;
  bool stopping_ GUARDED_BY(mutex_) = false;

  // Registry instrumentation, shared across all pools in the process
  // (docs/OBSERVABILITY.md). Pointers are registry-owned and stable.
  obs::Gauge* queue_depth_;
  obs::Counter* tasks_total_;
  obs::Counter* inline_fallbacks_total_;
};

}  // namespace nezha
