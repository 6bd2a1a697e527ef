#include "common/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <exception>

#include "obs/trace.h"

namespace nezha {
namespace {

/// The pool whose WorkerLoop the current thread is running, if any.
thread_local const ThreadPool* tls_worker_pool = nullptr;

/// Profiler stamp around one unit of pool work, queued or inline. Every
/// clock read is gated on Sampling(), so outside an epoch window a task
/// reads no clock. Inline work (the nested-submission fallback, the
/// single-chunk fast paths, serial commit groups) runs on the calling
/// thread and never queued: its enqueue time is its start.
struct TaskStamp {
  bool armed = false;
  bool inlined = true;
  double enqueue_us = -1;  ///< set at Submit while sampling; < 0 otherwise
  double start_us = 0;
  double cpu_start_us = 0;

  void Begin() {
    if (!obs::Profiler().Sampling()) return;
    armed = true;
    cpu_start_us = obs::ThreadCpuUs();
    start_us = obs::PhaseTracer::NowUs();
    if (enqueue_us < 0) enqueue_us = start_us;
  }

  void Finish(obs::StageId stage) {
    if (!armed) return;
    obs::TaskSample sample;
    sample.stage = stage;
    sample.tid = obs::CurrentThreadId();
    sample.enqueue_us = enqueue_us;
    sample.start_us = start_us;
    sample.finish_us = obs::PhaseTracer::NowUs();
    sample.cpu_us = obs::ThreadCpuUs() - cpu_start_us;
    sample.inlined = inlined;
    obs::Profiler().RecordTask(sample);
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  auto& registry = obs::Registry();
  queue_depth_ = registry.GetGauge("nezha_threadpool_queue_depth");
  tasks_total_ = registry.GetCounter("nezha_threadpool_tasks_total");
  inline_fallbacks_total_ =
      registry.GetCounter("nezha_threadpool_inline_fallbacks_total");

  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  registry.GetGauge("nezha_threadpool_workers")
      ->Add(static_cast<std::int64_t>(num_threads));
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      obs::SetThreadName("pool-worker-" + std::to_string(i));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  obs::Registry()
      .GetGauge("nezha_threadpool_workers")
      ->Add(-static_cast<std::int64_t>(workers_.size()));
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  const obs::StageId stage = obs::CurrentStage();
  TaskStamp stamp;
  stamp.inlined = false;
  if (obs::Profiler().Sampling()) stamp.enqueue_us = obs::PhaseTracer::NowUs();
  // The profiler stamp (per-worker timelines, docs/OBSERVABILITY.md) wraps
  // the user's function INSIDE the packaged task: the sample must be
  // recorded before the task's future becomes ready, or a driver thread
  // that joins a ParallelFor and immediately closes the profiling window
  // races the final sample away — and the last task to finish is the
  // straggler, the one sample the epoch profile cannot afford to lose.
  auto run = [task = std::move(task), stamp, stage]() mutable {
    stamp.Begin();
    // Re-enter the submitter's stage so nested submissions inherit it.
    const obs::StageId previous = obs::SetCurrentStage(stage);
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    obs::SetCurrentStage(previous);
    stamp.Finish(stage);
    // Rethrow inside the packaged task so the caller's future still
    // carries the user task's exception.
    if (error) std::rethrow_exception(error);
  };
  QueuedTask queued{std::packaged_task<void()>(std::move(run))};
  std::future<void> fut = queued.task.get_future();
  {
    MutexLock lock(mutex_);
    assert(!stopping_);
    tasks_.push(std::move(queued));
  }
  tasks_total_->Inc();
  queue_depth_->Add(1);
  cv_.notify_one();
  return fut;
}

bool ThreadPool::OnWorkerThread() const { return tls_worker_pool == this; }

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    QueuedTask queued;
    {
      MutexLock lock(mutex_);
      // Open-coded wait keeps the condition reads inside this function,
      // where the analysis can see the mutex is held (a predicate lambda
      // cannot carry a REQUIRES annotation).
      while (!stopping_ && tasks_.empty()) cv_.wait(mutex_);
      if (stopping_ && tasks_.empty()) return;
      queued = std::move(tasks_.front());
      tasks_.pop();
    }
    queue_depth_->Add(-1);
    // The profiler stamp lives inside the packaged task (see Submit); user
    // exceptions are captured in its future.
    queued.task();
  }
}

void ThreadPool::ParallelFor(std::size_t begin, std::size_t end,
                             const std::function<void(std::size_t)>& fn) {
  ParallelForChunked(begin, end,
                     [&fn](std::size_t lo, std::size_t hi, std::size_t) {
                       for (std::size_t i = lo; i < hi; ++i) fn(i);
                     });
}

void ThreadPool::ParallelForChunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  // Nested submission from a worker would block this worker on futures
  // only the (possibly fully blocked) pool can complete; run inline,
  // stamped so the runtime lands on this worker's timeline.
  const bool nested = OnWorkerThread();
  if (nested) inline_fallbacks_total_->Inc();
  const std::size_t total = end - begin;
  const std::size_t num_chunks = std::min(total, workers_.size());
  if (nested || num_chunks <= 1) {
    TaskStamp stamp;
    stamp.Begin();
    fn(begin, end, 0);
    stamp.Finish(obs::CurrentStage());
    return;
  }
  const std::size_t chunk = (total + num_chunks - 1) / num_chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(Submit([&fn, lo, hi, c] { fn(lo, hi, c); }));
  }
  // Wait for every chunk before rethrowing: an early rethrow would destroy
  // `fn` while still-queued chunks reference it.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::ParallelForGroups(
    std::span<const std::size_t> group_sizes,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const bool inline_only = OnWorkerThread();
  if (inline_only) inline_fallbacks_total_->Inc();
  // Serial groups (size 1, or everything when inline/one worker) run on the
  // caller; consecutive ones coalesce into ONE profiler sample so a commit
  // schedule of thousands of singleton groups costs four clock reads per
  // run of singletons, not per group.
  TaskStamp serial_stamp;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    const std::size_t n = group_sizes[g];
    if (n == 0) continue;
    if (inline_only || n == 1 || workers_.size() <= 1) {
      if (!serial_stamp.armed) serial_stamp.Begin();
      for (std::size_t i = 0; i < n; ++i) fn(g, i);
      continue;
    }
    if (serial_stamp.armed) {
      serial_stamp.Finish(obs::CurrentStage());
      serial_stamp = TaskStamp{};
    }
    // ParallelFor is the barrier: every item of group g completes (or its
    // first exception is rethrown, abandoning later groups) before g+1.
    ParallelFor(0, n, [&fn, g](std::size_t i) { fn(g, i); });
  }
  serial_stamp.Finish(obs::CurrentStage());
}

}  // namespace nezha
