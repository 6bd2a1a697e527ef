#include "common/thread_pool.h"

#include <time.h>

#include <algorithm>
#include <cassert>
#include <exception>

#include "obs/trace.h"

namespace nezha {
namespace {

/// The pool whose WorkerLoop the current thread is running, if any.
thread_local const ThreadPool* tls_worker_pool = nullptr;

/// Profiler stamp around work executed on the CALLING thread — the
/// nested-submission inline fallback and the single-chunk fast paths. The
/// sample is attributed to the caller's own timeline (tid, current stage)
/// so profiles don't under-report nested work; enqueue == start (it never
/// queued). Armed only while an epoch profiling window is open.
struct InlineStamp {
  bool armed = false;
  double start_us = 0;
  double cpu_start_us = 0;
};

InlineStamp BeginInline() {
  InlineStamp stamp;
  if (!obs::Profiler().Sampling()) return stamp;
  stamp.armed = true;
  stamp.cpu_start_us = obs::ThreadCpuUs();
  stamp.start_us = obs::PhaseTracer::NowUs();
  return stamp;
}

void FinishInline(const InlineStamp& stamp) {
  if (!stamp.armed) return;
  obs::TaskSample sample;
  sample.stage = obs::CurrentStage();
  sample.tid = obs::CurrentThreadId();
  sample.enqueue_us = stamp.start_us;
  sample.start_us = stamp.start_us;
  sample.finish_us = obs::PhaseTracer::NowUs();
  sample.cpu_us = obs::ThreadCpuUs() - stamp.cpu_start_us;
  sample.inlined = true;
  obs::Profiler().RecordTask(sample);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  auto& registry = obs::Registry();
  queue_depth_ = registry.GetGauge("nezha_threadpool_queue_depth");
  tasks_total_ = registry.GetCounter("nezha_threadpool_tasks_total");
  busy_us_total_ = registry.GetCounter("nezha_threadpool_busy_us_total");
  inline_fallbacks_total_ =
      registry.GetCounter("nezha_threadpool_inline_fallbacks_total");
  task_wait_us_ = registry.GetHistogram("nezha_threadpool_task_wait_us");
  task_run_us_ = registry.GetHistogram("nezha_threadpool_task_run_us");

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
  const double enqueue_us = obs::PhaseTracer::NowUs();
  const obs::StageId stage = obs::CurrentStage();
  // Profiler stamps (per-worker timelines, docs/OBSERVABILITY.md) wrap the
  // user's function INSIDE the packaged task: the sample must be recorded
  // before the task's future becomes ready, or a driver thread that joins
  // a ParallelFor and immediately closes the profiling window races the
  // final sample away — and the last task to finish is the straggler, the
  // one sample the epoch profile cannot afford to lose. One Sampling()
  // load decides whether the task pays for any clock reads; the
  // thread-CPU reads stay inline (not routed through obs) so the whole
  // stamp cost is visible — and allowlisted — right here.
  auto run = [this, task = std::move(task), enqueue_us, stage]() {
    const bool sampling = obs::Profiler().Sampling();
    struct timespec cpu_begin {};
    if (sampling) clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu_begin);
    const double start_us = obs::PhaseTracer::NowUs();
    task_wait_us_->Observe(start_us - enqueue_us);
    std::exception_ptr error;
    {
      // Re-enter the submitter's stage so nested submissions inherit it
      // and the sample below lands on the right stage.
      obs::StageScope scope(stage);
      try {
        task();
      } catch (...) {
        error = std::current_exception();
      }
    }
    const double finish_us = obs::PhaseTracer::NowUs();
    const double run_us = finish_us - start_us;
    task_run_us_->Observe(run_us);
    busy_us_total_->Inc(static_cast<std::uint64_t>(run_us));
    if (sampling) {
      struct timespec cpu_end {};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu_end);
      obs::TaskSample sample;
      sample.stage = stage;
      sample.tid = obs::CurrentThreadId();
      sample.enqueue_us = enqueue_us;
      sample.start_us = start_us;
      sample.finish_us = finish_us;
      sample.cpu_us =
          (static_cast<double>(cpu_end.tv_sec - cpu_begin.tv_sec)) * 1e6 +
          (static_cast<double>(cpu_end.tv_nsec - cpu_begin.tv_nsec)) * 1e-3;
      obs::Profiler().RecordTask(sample);
    }
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
    // All metric/profiler stamping lives inside the packaged task (see
    // Submit); user exceptions are captured in its future.
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
  if (OnWorkerThread()) {
    // Nested submission from a worker would block this worker on futures
    // only the (possibly fully blocked) pool can complete; run inline,
    // stamped so the runtime lands on this worker's timeline.
    inline_fallbacks_total_->Inc();
    const InlineStamp stamp = BeginInline();
    fn(begin, end, 0);
    FinishInline(stamp);
    return;
  }
  const std::size_t total = end - begin;
  const std::size_t num_chunks = std::min(total, workers_.size());
  if (num_chunks <= 1) {
    const InlineStamp stamp = BeginInline();
    fn(begin, end, 0);
    FinishInline(stamp);
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
  InlineStamp serial_stamp;
  for (std::size_t g = 0; g < group_sizes.size(); ++g) {
    const std::size_t n = group_sizes[g];
    if (n == 0) continue;
    if (inline_only || n == 1 || workers_.size() <= 1) {
      if (!serial_stamp.armed) serial_stamp = BeginInline();
      for (std::size_t i = 0; i < n; ++i) fn(g, i);
      continue;
    }
    if (serial_stamp.armed) {
      FinishInline(serial_stamp);
      serial_stamp = InlineStamp{};
    }
    // ParallelFor is the barrier: every item of group g completes (or its
    // first exception is rethrown, abandoning later groups) before g+1.
    ParallelFor(0, n, [&fn, g](std::size_t i) { fn(g, i); });
  }
  FinishInline(serial_stamp);
}

}  // namespace nezha
