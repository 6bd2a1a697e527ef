#include "obs/profiler.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nezha::obs {
namespace {

// ---------------------------------------------------------------------------
// Stage interning. The table is append-only and bounded; call sites intern
// once (function-local static) so the hot path only passes ids around.

struct StageTable {
  Mutex mutex;
  // Index = StageId. Slot 0 is the untagged sentinel.
  std::vector<std::string> names GUARDED_BY(mutex);
};

StageTable& Stages() {
  static StageTable* table = [] {
    auto* t = new StageTable();  // never freed
    MutexLock lock(t->mutex);
    t->names.emplace_back("untagged");
    return t;
  }();
  return *table;
}

thread_local StageId t_current_stage = kStageNone;
thread_local std::uint32_t t_stage_depth = 0;

std::string FormatNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

double PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

/// Exact percentile over a sorted vector (nearest-rank interpolation).
double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

const std::vector<double>& EfficiencyBounds() {
  static const std::vector<double>* bounds = new std::vector<double>{
      5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 95, 100};
  return *bounds;
}

/// Coalesced Chrome counter track: emits at most kMaxCounterPoints samples
/// per track per epoch so a 100k-task epoch doesn't flood the trace ring.
constexpr std::size_t kMaxCounterPoints = 512;

void EmitCounterTrack(PhaseTracer& tracer, std::string_view track,
                      std::vector<std::pair<double, int>>& deltas) {
  std::sort(deltas.begin(), deltas.end());
  const std::size_t stride = std::max<std::size_t>(
      1, (deltas.size() + kMaxCounterPoints - 1) / kMaxCounterPoints);
  long level = 0;
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    level += deltas[i].second;
    if (i % stride == 0 || i + 1 == deltas.size()) {
      TraceEvent event;
      event.name = std::string(track);
      event.tid = CurrentThreadId();
      event.ts_us = deltas[i].first;
      event.counter = true;
      event.value = static_cast<double>(level);
      tracer.Record(std::move(event));
    }
  }
}

/// Emits the nezha_pool_* / nezha_profile_* series for one finished epoch.
void PublishProfile(const EpochProfile& profile,
                    const std::vector<TaskSample>& samples) {
  if (!MetricsEnabled()) return;
  MetricsRegistry& reg = Registry();
  for (const StageProfile& sp : profile.stages) {
    const Labels labels = {{"stage", sp.stage}};
    reg.GetCounter("nezha_profile_stage_cpu_us_total", labels)
        ->Inc(static_cast<std::uint64_t>(sp.cpu_ms * 1000.0));
    reg.GetCounter("nezha_profile_stage_busy_us_total", labels)
        ->Inc(static_cast<std::uint64_t>(sp.busy_ms * 1000.0));
    reg.GetCounter("nezha_profile_stage_wall_us_total", labels)
        ->Inc(static_cast<std::uint64_t>(sp.wall_ms * 1000.0));
    reg.GetCounter("nezha_profile_stage_tasks_total", labels)->Inc(sp.tasks);
  }
  std::vector<double> waits;
  waits.reserve(samples.size());
  double task_cpu_us = 0;
  for (const TaskSample& s : samples) {
    waits.push_back(s.start_us - s.enqueue_us);
    task_cpu_us += s.cpu_us;
  }
  reg.GetHistogram("nezha_pool_task_wait_profile_us", {},
                   DefaultLatencyBoundsUs())
      ->ObserveMany(waits);
  reg.GetCounter("nezha_pool_task_cpu_us_total")
      ->Inc(static_cast<std::uint64_t>(task_cpu_us));
  reg.GetHistogram("nezha_profile_efficiency_pct", {}, EfficiencyBounds())
      ->Observe(profile.efficiency_pct);
  reg.GetHistogram("nezha_profile_idle_gap_us", {}, DefaultLatencyBoundsUs())
      ->Observe(profile.largest_idle_gap_ms * 1000.0);
  reg.GetGauge("nezha_profile_peak_rss_kb")
      ->Set(static_cast<std::int64_t>(profile.peak_rss_kb));
  reg.GetCounter("nezha_profile_dropped_samples_total")
      ->Inc(profile.dropped_samples);
  reg.GetCounter("nezha_profile_epochs_total")->Inc();
}

/// Projects one closed window into the Chrome trace: the "epoch <n>"
/// envelope on the finishing thread, every stage span one level below it
/// at its nesting depth, one event per task sample on the row of the
/// thread that ran it, and the pool occupancy / queue-depth counter tracks
/// rebuilt from the same stamps.
void ProjectTrace(const EpochProfile& profile,
                  const std::vector<TaskSample>& samples, double begin_us,
                  double end_us) {
  PhaseTracer& tracer = PhaseTracer::Global();
  const auto record = [&tracer](std::string name, std::uint32_t tid,
                                std::uint32_t depth, double start_us,
                                double finish_us) {
    TraceEvent event;
    event.name = std::move(name);
    event.tid = tid;
    event.depth = depth;
    event.ts_us = start_us;
    event.dur_us = finish_us - start_us;
    tracer.Record(std::move(event));
  };
  record("epoch " + std::to_string(profile.epoch), CurrentThreadId(), 0,
         begin_us, end_us);
  for (const StageSpan& s : profile.spans) {
    record(std::string(StageName(s.stage)), s.tid, s.depth + 1, s.start_us,
           s.end_us);
  }
  std::vector<std::pair<double, int>> busy;
  std::vector<std::pair<double, int>> queued;
  busy.reserve(samples.size() * 2);
  queued.reserve(samples.size() * 2);
  for (const TaskSample& s : samples) {
    record(std::string(StageName(s.stage)), s.tid, 0, s.start_us,
           s.finish_us);
    busy.emplace_back(s.start_us, +1);
    busy.emplace_back(s.finish_us, -1);
    if (!s.inlined) {
      queued.emplace_back(s.enqueue_us, +1);
      queued.emplace_back(s.start_us, -1);
    }
  }
  EmitCounterTrack(tracer, "pool_busy_workers", busy);
  EmitCounterTrack(tracer, "pool_queued_tasks", queued);
}

}  // namespace

// ---------------------------------------------------------------------------
// Stage interning.

StageId InternStage(std::string_view name) {
  StageTable& table = Stages();
  MutexLock lock(table.mutex);
  for (std::size_t i = 0; i < table.names.size(); ++i) {
    if (table.names[i] == name) return static_cast<StageId>(i);
  }
  if (table.names.size() >= kMaxStages) return kStageNone;
  table.names.emplace_back(name);
  return static_cast<StageId>(table.names.size() - 1);
}

std::string_view StageName(StageId id) {
  StageTable& table = Stages();
  MutexLock lock(table.mutex);
  if (id >= table.names.size()) return "untagged";
  // Safe to hand out: the table is append-only and strings are never
  // reassigned, so the string's buffer outlives every caller.
  return table.names[id];
}

StageId CurrentStage() { return t_current_stage; }

StageId SetCurrentStage(StageId id) {
  const StageId previous = t_current_stage;
  t_current_stage = id;
  return previous;
}

// ---------------------------------------------------------------------------
// Stage.

double ThreadCpuUs() {
  struct timespec ts;
  // src/obs is detlint-exempt: profiling clocks never feed consensus state.
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

Stage::Stage(std::string_view name)
    : stage_(InternStage(name)),
      previous_stage_(SetCurrentStage(stage_)),
      depth_(t_stage_depth++),
      sampled_(Profiler().Sampling()) {
  if (sampled_) cpu_start_us_ = ThreadCpuUs();
  start_us_ = PhaseTracer::NowUs();
}

double Stage::Stop() {
  if (stopped_) return elapsed_us_;
  const double end_us = PhaseTracer::NowUs();
  stopped_ = true;
  elapsed_us_ = end_us - start_us_;
  t_current_stage = previous_stage_;
  --t_stage_depth;
  if (sampled_) {
    StageSpan span;
    span.stage = stage_;
    span.tid = CurrentThreadId();
    span.start_us = start_us_;
    span.end_us = end_us;
    span.cpu_us = ThreadCpuUs() - cpu_start_us_;
    span.depth = depth_;
    Profiler().RecordSpan(span);
  }
  return elapsed_us_;
}

// ---------------------------------------------------------------------------
// EpochProfile.

std::string EpochProfile::DominantStage() const {
  const StageProfile* best = nullptr;
  for (const StageProfile& s : stages) {
    if (best == nullptr || s.wall_ms > best->wall_ms) best = &s;
  }
  return best == nullptr ? "" : best->stage;
}

std::string EpochProfile::ToJson() const {
  std::ostringstream out;
  out << "{\"epoch\":" << epoch << ",\"scheme\":\"" << JsonEscape(scheme)
      << "\",\"workers\":" << workers
      << ",\"span_ms\":" << FormatNum(span_ms)
      << ",\"busy_ms\":" << FormatNum(busy_ms)
      << ",\"cpu_ms\":" << FormatNum(cpu_ms) << ",\"tasks\":" << tasks
      << ",\"inline_tasks\":" << inline_tasks
      << ",\"dropped_samples\":" << dropped_samples
      << ",\"efficiency_pct\":" << FormatNum(efficiency_pct)
      << ",\"largest_idle_gap_ms\":" << FormatNum(largest_idle_gap_ms)
      << ",\"idle_gap_stage\":\"" << JsonEscape(idle_gap_stage) << "\""
      << ",\"peak_rss_kb\":" << FormatNum(peak_rss_kb) << ",\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageProfile& s = stages[i];
    if (i > 0) out << ",";
    out << "{\"stage\":\"" << JsonEscape(s.stage) << "\",\"tasks\":" << s.tasks
        << ",\"inline_tasks\":" << s.inline_tasks
        << ",\"wall_ms\":" << FormatNum(s.wall_ms)
        << ",\"busy_ms\":" << FormatNum(s.busy_ms)
        << ",\"cpu_ms\":" << FormatNum(s.cpu_ms)
        << ",\"wait_p50_us\":" << FormatNum(s.wait_p50_us)
        << ",\"wait_p95_us\":" << FormatNum(s.wait_p95_us)
        << ",\"wait_max_us\":" << FormatNum(s.wait_max_us)
        << ",\"efficiency_pct\":" << FormatNum(s.efficiency_pct) << "}";
  }
  out << "],\"critical_path\":[";
  const CriticalPathReport path = AnalyzeCriticalPath(*this);
  for (std::size_t i = 0; i < path.chain.size(); ++i) {
    const CriticalPathReport::Node& n = path.chain[i];
    if (i > 0) out << ",";
    out << "{\"stage\":\"" << JsonEscape(n.stage)
        << "\",\"wall_ms\":" << FormatNum(n.wall_ms)
        << ",\"cpu_ms\":" << FormatNum(n.cpu_ms)
        << ",\"efficiency_pct\":" << FormatNum(n.efficiency_pct)
        << ",\"amdahl_speedup\":" << FormatNum(n.amdahl_speedup) << "}";
  }
  out << "],\"critical_path_ms\":" << FormatNum(path.total_wall_ms)
      << ",\"critical_path_covered_pct\":" << FormatNum(path.covered_pct)
      << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Critical path.

CriticalPathReport AnalyzeCriticalPath(const EpochProfile& profile) {
  CriticalPathReport report;
  // Leaf spans only: a span strictly containing another is a phase envelope
  // (e.g. "cc" around acg_build/rank_division/tx_sorting) — its children are
  // the chain links, counting both would double the path.
  std::vector<const StageSpan*> leaves;
  for (const StageSpan& s : profile.spans) {
    bool envelope = false;
    for (const StageSpan& t : profile.spans) {
      if (&t == &s) continue;
      if (t.start_us >= s.start_us && t.end_us <= s.end_us &&
          (t.start_us > s.start_us || t.end_us < s.end_us)) {
        envelope = true;
        break;
      }
    }
    if (!envelope) leaves.push_back(&s);
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const StageSpan* a, const StageSpan* b) {
              return a->start_us < b->start_us;
            });

  double total_ms = 0;
  for (const StageSpan* s : leaves) {
    total_ms += (s->end_us - s->start_us) / 1000.0;
  }
  const double workers =
      profile.workers > 0 ? static_cast<double>(profile.workers) : 1.0;
  for (const StageSpan* s : leaves) {
    CriticalPathReport::Node node;
    node.stage = std::string(StageName(s->stage));
    node.wall_ms = (s->end_us - s->start_us) / 1000.0;
    node.cpu_ms = s->cpu_us / 1000.0;
    for (const StageProfile& sp : profile.stages) {
      if (sp.stage == node.stage) {
        node.efficiency_pct = sp.efficiency_pct;
        node.cpu_ms = sp.cpu_ms;
        break;
      }
    }
    // Amdahl: epoch speedup if this stage alone ran at perfect efficiency
    // on all workers. Stages already near-perfect yield ~1.0.
    const double parallelized = total_ms - node.wall_ms + node.wall_ms / workers;
    node.amdahl_speedup = parallelized > 0 ? total_ms / parallelized : 1.0;
    report.chain.push_back(std::move(node));
  }
  report.total_wall_ms = total_ms;
  report.covered_pct =
      profile.span_ms > 0 ? 100.0 * total_ms / profile.span_ms : 0;

  report.bottlenecks = report.chain;
  std::sort(report.bottlenecks.begin(), report.bottlenecks.end(),
            [](const CriticalPathReport::Node& a,
               const CriticalPathReport::Node& b) {
              return a.wall_ms > b.wall_ms;
            });
  if (report.bottlenecks.size() > 3) report.bottlenecks.resize(3);
  return report;
}

// ---------------------------------------------------------------------------
// PipelineProfiler.

PipelineProfiler& PipelineProfiler::Global() {
  static PipelineProfiler* profiler = new PipelineProfiler();  // never freed
  return *profiler;
}

void PipelineProfiler::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  UpdateSampling();
}

void PipelineProfiler::BeginEpoch(std::uint64_t epoch, std::string_view scheme,
                                  std::size_t workers) {
  if (!enabled()) return;
  {
    MutexLock lock(epoch_mutex_);
    epoch_ = epoch;
    scheme_ = std::string(scheme);
    workers_ = static_cast<std::uint32_t>(workers);
    spans_.clear();
    begin_us_ = PhaseTracer::NowUs();
  }
  for (Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    stripe.samples.clear();
  }
  sample_count_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  active_.store(true, std::memory_order_relaxed);
  UpdateSampling();
}

bool PipelineProfiler::EpochActive() const {
  return active_.load(std::memory_order_relaxed);
}

void PipelineProfiler::RecordTask(const TaskSample& sample) {
  if (!Sampling()) return;
  if (sample_count_.fetch_add(1, std::memory_order_relaxed) >= kMaxSamples) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Stripe& stripe = stripes_[sample.tid % kStripes];
  MutexLock lock(stripe.mutex);
  stripe.samples.push_back(sample);
}

void PipelineProfiler::RecordSpan(const StageSpan& span) {
  if (!Sampling()) return;
  MutexLock lock(epoch_mutex_);
  spans_.push_back(span);
}

EpochProfile PipelineProfiler::FinishEpoch() {
  if (!EpochActive()) return {};
  active_.store(false, std::memory_order_relaxed);
  UpdateSampling();
  const double end_us = PhaseTracer::NowUs();

  EpochProfile profile;
  std::vector<TaskSample> samples;
  double begin_us = 0;
  {
    MutexLock lock(epoch_mutex_);
    profile.epoch = epoch_;
    profile.scheme = scheme_;
    profile.workers = workers_;
    begin_us = begin_us_;
    profile.span_ms = (end_us - begin_us) / 1000.0;
    profile.spans = spans_;
  }
  for (Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    samples.insert(samples.end(), stripe.samples.begin(),
                   stripe.samples.end());
  }
  profile.dropped_samples = dropped_.load(std::memory_order_relaxed);
  std::sort(profile.spans.begin(), profile.spans.end(),
            [](const StageSpan& a, const StageSpan& b) {
              return a.start_us < b.start_us;
            });

  // --- Per-stage aggregation (fixed array keyed by StageId — deterministic
  // first-intern order, no unordered iteration).
  struct StageAcc {
    bool seen = false;
    std::uint64_t tasks = 0;
    std::uint64_t inline_tasks = 0;
    double busy_us = 0;
    double task_cpu_us = 0;
    double span_cpu_us = 0;
    double span_wall_us = 0;
    double min_start = 0;
    double max_finish = 0;
    std::vector<double> waits;
  };
  std::vector<StageAcc> accs(kMaxStages);

  double busy_us_total = 0;
  double cpu_us_total = 0;
  for (const TaskSample& s : samples) {
    StageAcc& acc = accs[s.stage];
    const double run = s.finish_us - s.start_us;
    if (!acc.seen) {
      acc.seen = true;
      acc.min_start = s.start_us;
      acc.max_finish = s.finish_us;
    } else {
      acc.min_start = std::min(acc.min_start, s.start_us);
      acc.max_finish = std::max(acc.max_finish, s.finish_us);
    }
    ++acc.tasks;
    if (s.inlined) ++acc.inline_tasks;
    acc.busy_us += run;
    acc.task_cpu_us += s.cpu_us;
    acc.waits.push_back(s.start_us - s.enqueue_us);
    busy_us_total += run;
    cpu_us_total += s.cpu_us;
  }
  for (const StageSpan& s : profile.spans) {
    StageAcc& acc = accs[s.stage];
    acc.seen = true;
    // Sum only non-nested span wall per stage: a re-entered stage (several
    // spans) accumulates; nesting inside the same stage would double-count
    // but call sites don't nest a stage within itself.
    acc.span_wall_us += s.end_us - s.start_us;
    acc.span_cpu_us += s.cpu_us;
    cpu_us_total += s.cpu_us;
  }

  const double workers_f =
      profile.workers > 0 ? static_cast<double>(profile.workers) : 1.0;
  for (std::size_t id = 0; id < accs.size(); ++id) {
    StageAcc& acc = accs[id];
    if (!acc.seen) continue;
    StageProfile sp;
    sp.stage = std::string(StageName(static_cast<StageId>(id)));
    sp.tasks = acc.tasks;
    sp.inline_tasks = acc.inline_tasks;
    // Stage wall: the Stage span interval when one exists (authoritative —
    // covers serial driver work too), else the union extent of its tasks.
    sp.wall_ms = acc.span_wall_us > 0
                     ? acc.span_wall_us / 1000.0
                     : (acc.tasks > 0
                            ? (acc.max_finish - acc.min_start) / 1000.0
                            : 0);
    sp.busy_ms = acc.busy_us / 1000.0;
    sp.cpu_ms = (acc.task_cpu_us + acc.span_cpu_us) / 1000.0;
    if (!acc.waits.empty()) {
      std::sort(acc.waits.begin(), acc.waits.end());
      sp.wait_p50_us = SortedPercentile(acc.waits, 0.50);
      sp.wait_p95_us = SortedPercentile(acc.waits, 0.95);
      sp.wait_max_us = acc.waits.back();
    }
    if (sp.wall_ms > 0) {
      sp.efficiency_pct = 100.0 * sp.busy_ms / (workers_f * sp.wall_ms);
    }
    profile.stages.push_back(std::move(sp));
    profile.tasks += acc.tasks;
    profile.inline_tasks += acc.inline_tasks;
  }

  profile.busy_ms = busy_us_total / 1000.0;
  profile.cpu_ms = cpu_us_total / 1000.0;
  if (profile.span_ms > 0) {
    profile.efficiency_pct =
        100.0 * profile.busy_ms / (workers_f * profile.span_ms);
  }

  // --- Largest idle gap: per executing thread, the widest hole between its
  // task intervals inside the epoch window. Threads that never recorded a
  // sample can't be seen from here (the pool doesn't expose its tids to
  // obs), so when fewer distinct threads than `workers` sampled, the gap is
  // the whole span — an honest "at least one worker sat out the epoch".
  {
    struct ThreadIntervals {
      std::uint32_t tid;
      std::vector<std::pair<double, double>> runs;
    };
    std::vector<ThreadIntervals> threads;
    for (const TaskSample& s : samples) {
      ThreadIntervals* t = nullptr;
      for (ThreadIntervals& cand : threads) {
        if (cand.tid == s.tid) {
          t = &cand;
          break;
        }
      }
      if (t == nullptr) {
        threads.push_back({s.tid, {}});
        t = &threads.back();
      }
      t->runs.emplace_back(s.start_us, s.finish_us);
    }
    double gap_start = 0, gap_end = 0;
    if (profile.workers > 0 && threads.size() < profile.workers) {
      gap_start = begin_us;
      gap_end = end_us;
    } else {
      for (ThreadIntervals& t : threads) {
        std::sort(t.runs.begin(), t.runs.end());
        double cursor = begin_us;
        for (const auto& [start, finish] : t.runs) {
          if (start > cursor && start - cursor > gap_end - gap_start) {
            gap_start = cursor;
            gap_end = start;
          }
          cursor = std::max(cursor, finish);
        }
        if (end_us > cursor && end_us - cursor > gap_end - gap_start) {
          gap_start = cursor;
          gap_end = end_us;
        }
      }
    }
    profile.largest_idle_gap_ms = (gap_end - gap_start) / 1000.0;
    // The blocking stage: the recorded span overlapping the gap longest —
    // what the pipeline was doing while that worker starved.
    double best_overlap = 0;
    for (const StageSpan& s : profile.spans) {
      const double overlap = std::min(s.end_us, gap_end) -
                             std::max(s.start_us, gap_start);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        profile.idle_gap_stage = std::string(StageName(s.stage));
      }
    }
  }

  profile.peak_rss_kb = PeakRssKb();

  PublishProfile(profile, samples);
  if (PhaseTracer::Global().enabled()) {
    ProjectTrace(profile, samples, begin_us, end_us);
  }

  {
    MutexLock lock(epoch_mutex_);
    last_profile_ = profile;
  }
  return profile;
}

void PipelineProfiler::DiscardEpoch() {
  active_.store(false, std::memory_order_relaxed);
  UpdateSampling();
}

EpochProfile PipelineProfiler::LastProfile() const {
  MutexLock lock(epoch_mutex_);
  return last_profile_;
}

void PipelineProfiler::Clear() {
  DiscardEpoch();
  {
    MutexLock lock(epoch_mutex_);
    epoch_ = 0;
    scheme_.clear();
    workers_ = 0;
    begin_us_ = 0;
    spans_.clear();
    last_profile_ = EpochProfile{};
  }
  for (Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mutex);
    stripe.samples.clear();
  }
  sample_count_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace nezha::obs
