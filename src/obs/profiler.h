// Pipeline bottleneck profiler and the one stage seam
// (docs/OBSERVABILITY.md, "Pipeline profiler").
//
// Every pipeline stage boundary goes through one RAII obs::Stage. It stamps
// the stage once, and the epoch report, the profile and the Chrome trace
// all read that stamp: Stage::Stop() hands the wall time to the caller
// (EpochReport phase times, SchedulerMetrics sub-phase times) and records
// the same interval as a StageSpan into the open profiler window.
//
// Three cooperating pieces:
//
//   * STAGE TAGS — every ThreadPool task carries the stage label that was
//     active on the submitting thread (obs::Stage sets a thread_local;
//     Submit captures it; workers restore it while running the task so
//     nested submissions inherit). Labels are interned to small ids so the
//     hot path never touches a string.
//
//   * TASK SAMPLES — while a window is open the pool stamps every task with
//     steady-clock enqueue/start/finish times plus a thread-CPU delta, and
//     hands the sample here (PipelineProfiler::RecordTask). Inline-executed
//     work (the nested-submission fallback) is recorded too, attributed to
//     the calling worker's timeline. Outside BeginEpoch/FinishEpoch a task
//     reads no clock: the whole stamp path is one relaxed load.
//
//   * STAGE SPANS — obs::Stage records the wall interval and driving-thread
//     CPU of one pipeline stage (validate / execute / acg_build /
//     rank_division / tx_sorting / exec_groups / durable_commit / ...).
//
// FinishEpoch joins spans and samples into one EpochProfile: per stage,
// CPU-ms vs wall-ms, busy-ms, task count and queue-wait p50/p95/max; per
// epoch, parallel efficiency busy / (workers x span), the largest
// per-worker idle gap with the stage that was running while the worker
// starved, and peak RSS. The result feeds EpochReport.profile, the flight
// record's "profile" member and the nezha_pool_* / nezha_profile_*
// Prometheus series. When the phase tracer is enabled, the closed window
// is also projected into the Chrome trace: an "epoch <n>" envelope, the
// stage spans at their nesting depth, one event per task sample on its
// worker's row, and the "pool_busy_workers" / "pool_queued_tasks" counter
// tracks. Nothing else in the pipeline writes trace events.
//
// AnalyzeCriticalPath walks one epoch's recorded stage spans (leaf spans in
// start order — ACG build -> sort -> execute groups -> commit), emits the
// longest chain, and computes per-stage Amdahl "speedup-if-parallelized"
// estimates: what the epoch latency would become if this stage alone ran at
// perfect efficiency on all workers.
//
// Threading: one epoch window is open at a time, matching the node's
// single epoch driver. BeginEpoch discards an unfinished window, and every
// sample or span recorded until FinishEpoch (or DiscardEpoch) belongs to
// the open window, whichever thread records it.
//
// The profiler is ON by default and kill-switched like the metrics
// registry; a disabled (or out-of-window) stamp is one relaxed load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_annotations.h"

namespace nezha::obs {

/// Interned pipeline-stage label. 0 = untagged work.
using StageId = std::uint16_t;
inline constexpr StageId kStageNone = 0;
inline constexpr std::size_t kMaxStages = 64;

/// Finds or creates the id for a stage label (bounded table: once kMaxStages
/// distinct labels exist, unknown labels collapse to kStageNone).
StageId InternStage(std::string_view name);
/// Display name of an interned stage ("untagged" for kStageNone).
std::string_view StageName(StageId id);

/// The stage currently active on this thread (what Submit captures).
StageId CurrentStage();
/// Sets this thread's stage tag and returns the previous one (a pool worker
/// re-enters the submitting thread's stage while it runs a task).
StageId SetCurrentStage(StageId id);

/// One pool task as the profiler remembers it. Times are microseconds on
/// the tracer clock (PhaseTracer::NowUs); cpu_us is the executing thread's
/// CLOCK_THREAD_CPUTIME_ID delta across the run.
struct TaskSample {
  StageId stage = kStageNone;
  std::uint32_t tid = 0;  ///< obs::CurrentThreadId of the executing thread
  double enqueue_us = 0;  ///< == start_us for inline-executed work
  double start_us = 0;
  double finish_us = 0;
  double cpu_us = 0;
  bool inlined = false;  ///< nested-submission fallback / serial fast path
};

/// One pipeline stage's interval on the driving thread (obs::Stage).
struct StageSpan {
  StageId stage = kStageNone;
  std::uint32_t tid = 0;
  double start_us = 0;
  double end_us = 0;
  double cpu_us = 0;        ///< driving thread's CPU inside the span
  std::uint32_t depth = 0;  ///< nesting depth on the driving thread
};

/// Per-stage aggregation within one epoch.
struct StageProfile {
  std::string stage;
  std::uint64_t tasks = 0;        ///< pool tasks tagged with this stage
  std::uint64_t inline_tasks = 0; ///< subset executed inline
  double wall_ms = 0;  ///< span wall (or task-interval union when no span)
  double busy_ms = 0;  ///< sum of task run wall across workers
  double cpu_ms = 0;   ///< sum of task thread-CPU + span driver CPU
  double wait_p50_us = 0;  ///< queue wait (enqueue -> start), exact p50
  double wait_p95_us = 0;
  double wait_max_us = 0;
  /// busy / (workers x wall): how much of the pool this stage kept fed
  /// while it ran. 0 when the stage has no wall time.
  double efficiency_pct = 0;
};

/// One epoch through the pool, joined from samples and spans.
struct EpochProfile {
  std::uint64_t epoch = 0;
  std::string scheme;
  std::uint32_t workers = 0;
  double span_ms = 0;  ///< BeginEpoch -> FinishEpoch wall
  double busy_ms = 0;  ///< sum of task run wall across all stages
  double cpu_ms = 0;   ///< sum of task + span-driver thread-CPU
  std::uint64_t tasks = 0;
  std::uint64_t inline_tasks = 0;
  std::uint64_t dropped_samples = 0;  ///< ring-capacity drops this epoch
  /// busy / (workers x span), in percent. The parallel-efficiency
  /// denominator for every speedup claim (docs/OBSERVABILITY.md).
  double efficiency_pct = 0;
  /// Largest idle interval of any single worker inside the epoch span, and
  /// the stage whose span overlapped that interval the longest (what the
  /// pipeline was doing while the worker starved). When fewer distinct
  /// workers than `workers` recorded samples, the gap is the whole span.
  double largest_idle_gap_ms = 0;
  std::string idle_gap_stage;
  double peak_rss_kb = 0;  ///< ru_maxrss at FinishEpoch (process peak)
  std::vector<StageProfile> stages;  ///< in first-appearance (stage-id) order
  std::vector<StageSpan> spans;      ///< raw spans, start order (critical path)

  /// The stage with the largest wall_ms ("" when no stages recorded).
  std::string DominantStage() const;
  /// One JSON object (no trailing newline) — the flight-record "profile"
  /// member schema (docs/OBSERVABILITY.md).
  std::string ToJson() const;
};

/// The longest serial chain through one epoch's stage spans, with Amdahl
/// estimates per link.
struct CriticalPathReport {
  struct Node {
    std::string stage;
    double wall_ms = 0;
    double cpu_ms = 0;
    double efficiency_pct = 0;  ///< busy / (workers x wall) for this stage
    /// Amdahl estimate: epoch speedup if THIS stage alone ran at perfect
    /// efficiency on all workers — total / (total - wall + wall/workers).
    double amdahl_speedup = 1.0;
  };
  std::vector<Node> chain;  ///< leaf spans in start order
  double total_wall_ms = 0; ///< sum of chain wall (the critical path length)
  double covered_pct = 0;   ///< chain wall / epoch span
  /// Top-3 chain stages by wall_ms, descending — the bottleneck verdict.
  std::vector<Node> bottlenecks;
};

/// Walks profile.spans (leaf spans only — a span containing another span is
/// a phase envelope, not a chain link) and builds the critical path.
CriticalPathReport AnalyzeCriticalPath(const EpochProfile& profile);

/// Calling thread's cumulative CPU time in microseconds
/// (CLOCK_THREAD_CPUTIME_ID). Deltas across a region give on-CPU time
/// excluding blocking waits.
double ThreadCpuUs();

class PipelineProfiler {
 public:
  static PipelineProfiler& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled);

  /// True when stamps should be taken: enabled AND an epoch window is open.
  /// The pool checks this ONCE per task before reading any clock.
  bool Sampling() const {
    return sampling_.load(std::memory_order_relaxed);
  }

  /// Opens an epoch window: clears the sample/span buffers and arms
  /// Sampling(). An unfinished previous window is discarded. `workers` is
  /// the pool size used as the efficiency denominator.
  void BeginEpoch(std::uint64_t epoch, std::string_view scheme,
                  std::size_t workers);
  bool EpochActive() const;

  /// Records one executed pool task (called by ThreadPool). Drops samples
  /// beyond the ring capacity (counted; reported in the epoch profile).
  void RecordTask(const TaskSample& sample);
  /// Records one stage span (called by obs::Stage).
  void RecordSpan(const StageSpan& span);

  /// Closes the window and aggregates: per-stage CPU/wall/busy/waits,
  /// parallel efficiency, idle gaps, peak RSS. Publishes the nezha_pool_* /
  /// nezha_profile_* series and, when the phase tracer is enabled, projects
  /// the window into the Chrome trace. Returns a default profile when no
  /// window is active. Runs off the hot path — O(samples log samples).
  EpochProfile FinishEpoch();
  /// Closes the window without aggregating or publishing anything (an
  /// epoch that failed).
  void DiscardEpoch();

  /// The last finished epoch's profile (tests, reports).
  EpochProfile LastProfile() const;

  /// Drops all buffered state (tests).
  void Clear();

 private:
  PipelineProfiler() = default;

  void UpdateSampling() {
    sampling_.store(enabled_.load(std::memory_order_relaxed) &&
                        active_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  }

  static constexpr std::size_t kStripes = 16;
  /// Per-epoch sample budget; beyond it samples drop (counted). 1<<17
  /// samples x 48 B ~= 6 MiB worst case, bounded per window.
  static constexpr std::size_t kMaxSamples = 1u << 17;

  struct Stripe {
    mutable Mutex mutex;
    std::vector<TaskSample> samples GUARDED_BY(mutex);
  };

  std::atomic<bool> enabled_{true};
  std::atomic<bool> active_{false};
  std::atomic<bool> sampling_{false};
  std::atomic<std::uint64_t> sample_count_{0};
  std::atomic<std::uint64_t> dropped_{0};

  mutable Mutex epoch_mutex_;
  std::uint64_t epoch_ GUARDED_BY(epoch_mutex_) = 0;
  std::string scheme_ GUARDED_BY(epoch_mutex_);
  std::uint32_t workers_ GUARDED_BY(epoch_mutex_) = 0;
  double begin_us_ GUARDED_BY(epoch_mutex_) = 0;
  std::vector<StageSpan> spans_ GUARDED_BY(epoch_mutex_);
  EpochProfile last_profile_ GUARDED_BY(epoch_mutex_);

  Stripe stripes_[kStripes];
};

/// Shorthand for PipelineProfiler::Global().
inline PipelineProfiler& Profiler() { return PipelineProfiler::Global(); }

/// RAII pipeline stage — the one seam every stage boundary goes through.
/// Construction tags the thread (pool tasks submitted inside are attributed
/// to the stage) and reads the steady clock. Stop() — or the destructor —
/// reads it once more, restores the previous tag, records one StageSpan
/// into the open profiler window and returns the elapsed time, so callers
/// report exactly the interval the profile and the trace show. Thread CPU
/// is read only while the profiler is sampling; outside a window a Stage
/// costs the tag plus two clock reads.
class Stage {
 public:
  explicit Stage(std::string_view name);
  ~Stage() { Stop(); }

  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Ends the stage (idempotent) and returns its wall time in microseconds.
  double Stop();

 private:
  StageId stage_;
  StageId previous_stage_;
  std::uint32_t depth_;
  bool sampled_ = false;
  bool stopped_ = false;
  double start_us_ = 0;
  double cpu_start_us_ = 0;
  double elapsed_us_ = 0;
};

}  // namespace nezha::obs
