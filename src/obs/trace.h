// Phase tracer: a bounded ring of trace events (spans with thread id and
// nesting depth, plus counter samples), exportable as Chrome trace_event
// JSON (load the file in chrome://tracing or https://ui.perfetto.dev).
//
// The trace is a projection of the profiler's closed epoch windows
// (obs/profiler.h): PipelineProfiler::FinishEpoch records an "epoch <n>"
// envelope, the obs::Stage spans under it, one event per pool task on its
// worker's row, and the pool counter tracks. Pipeline code never writes
// trace events itself. Tracing is OFF by default; with it off, FinishEpoch
// skips the projection.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace nezha::obs {

struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;   ///< dense per-process thread number (1-based)
  std::uint32_t depth = 0; ///< span nesting depth on that thread (0 = root)
  double ts_us = 0;        ///< start, microseconds since tracer epoch
  double dur_us = 0;
  /// Counter sample ("ph":"C" in the Chrome export) instead of a span:
  /// `value` at instant ts_us; dur_us/depth unused. Counter tracks render
  /// as stacked area charts above the flame rows (e.g. pool_busy_workers).
  bool counter = false;
  double value = 0;
};

/// Dense id of the calling thread (1, 2, 3, ... in first-use order).
std::uint32_t CurrentThreadId();

/// Names the calling thread for trace exports: chrome://tracing shows the
/// name instead of a bare tid (emitted as "ph":"M" thread_name metadata).
/// Recorded even while tracing is disabled — the map is bounded by the
/// process's thread count, and pool workers name themselves at startup,
/// typically before anyone enables the tracer.
void SetThreadName(std::string_view name);

class PhaseTracer {
 public:
  static PhaseTracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Ring capacity in events (default 65536). Shrinking drops the oldest.
  void SetCapacity(std::size_t capacity);

  /// Appends one event to the ring (callers check enabled()).
  void Record(TraceEvent event);

  /// Copies out the buffered events in start-time order.
  std::vector<TraceEvent> Events() const;
  std::size_t EventCount() const;
  /// Total events recorded, including ones the ring has since overwritten.
  std::uint64_t TotalRecorded() const;
  void Clear();

  /// Thread names registered via SetThreadName, as (tid, name) pairs sorted
  /// by tid.
  std::vector<std::pair<std::uint32_t, std::string>> ThreadNames() const;

  /// Chrome trace_event JSON (the "traceEvents" array form), led by
  /// process_name / thread_name metadata ("ph":"M") events so pipeline
  /// stages render under labeled rows.
  std::string ExportChromeTrace() const;
  /// Writes ExportChromeTrace() to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Microseconds since the tracer epoch (process start): the clock of
  /// every stage span, task sample and lifecycle stamp.
  static double NowUs();

 private:
  PhaseTracer() = default;

  std::atomic<bool> enabled_{false};

  mutable Mutex mutex_;
  std::vector<TraceEvent> ring_ GUARDED_BY(mutex_);
  std::size_t capacity_ GUARDED_BY(mutex_) = 65536;
  /// Ring write cursor.
  std::size_t next_ GUARDED_BY(mutex_) = 0;
  /// Lifetime event count.
  std::uint64_t recorded_ GUARDED_BY(mutex_) = 0;
  /// tid -> display name (SetThreadName).
  std::unordered_map<std::uint32_t, std::string> thread_names_
      GUARDED_BY(mutex_);

  friend void SetThreadName(std::string_view name);
};

}  // namespace nezha::obs
