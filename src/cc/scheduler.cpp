#include "cc/scheduler.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "analysis/det_checkpoint.h"
#include "analysis/schedule_verifier.h"
#include "common/canonical_text.h"
#include "cc/nezha/tx_sorter.h"
#include "obs/flight_recorder.h"
#include "obs/tx_lifecycle.h"

namespace nezha {
namespace {

std::optional<bool>& VerificationOverride() {
  static std::optional<bool> override_value;
  return override_value;
}

bool VerificationDefault() {
  const char* env = std::getenv("NEZHA_VERIFY_SCHEDULES");
  if (env != nullptr) {
    return std::strcmp(env, "0") != 0 && std::strcmp(env, "false") != 0 &&
           std::strcmp(env, "off") != 0;
  }
#ifdef NDEBUG
  return false;
#else
  return true;
#endif
}

}  // namespace

bool ScheduleVerificationEnabled() {
  if (VerificationOverride().has_value()) return *VerificationOverride();
  static const bool resolved = VerificationDefault();
  return resolved;
}

void SetScheduleVerification(std::optional<bool> enabled) {
  VerificationOverride() = enabled;
}

Result<Schedule> Scheduler::BuildSchedule(
    std::span<const ReadWriteSet> rwsets) {
  Result<Schedule> result = BuildScheduleImpl(rwsets);
  if (result.ok()) {
    // kSort determinism checkpoint: the scheduling pipeline's final output,
    // recorded for every scheme at the same boundary. No-op unless the
    // recorder is enabled AND a pipeline epoch is open (unit tests and
    // microbenches build schedules outside any epoch).
    analysis::DetCheckpointRecorder& det =
        analysis::DetCheckpointRecorder::Global();
    if (det.enabled()) {
      det.Record(analysis::DetStage::kSort,
                 CanonicalScheduleEncoding(*result));
    }
  }
  if (!result.ok() || !ScheduleVerificationEnabled()) return result;

  const auto start = std::chrono::steady_clock::now();
  analysis::VerifierOptions options;
  options.snapshot_semantics = snapshot_semantics();
  options.reordered = result->reordered;
  const analysis::VerifyReport report =
      analysis::VerifySchedule(*result, rwsets, options);
  const double micros =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count();

  if (obs::MetricsEnabled()) {
    auto& registry = obs::Registry();
    const obs::Labels by_scheduler = {{"scheduler", std::string(name())}};
    registry.GetCounter("nezha_verify_schedules_total", by_scheduler)->Inc();
    registry.GetHistogram("nezha_verify_us", by_scheduler)->Observe(micros);
    if (!report.ok) {
      registry.GetCounter("nezha_verify_failures_total", by_scheduler)->Inc();
    }
  }

  if (!report.ok) {
    const std::string counterexample = report.counterexample.ToString();
    std::fprintf(stderr,
                 "[nezha] serializability oracle REJECTED a %.*s schedule "
                 "(%zu txs): %s\n",
                 static_cast<int>(name().size()), name().data(), rwsets.size(),
                 counterexample.c_str());
    // Leave the rejected schedule in the flight recorder and trigger a
    // post-mortem dump: the JSONL names the offending epoch and carries the
    // full abort attribution of the schedule the oracle refused.
    obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
    obs::EpochFlightRecord record;
    record.epoch = recorder.CurrentEpoch();
    record.scheme = std::string(name());
    record.txs = static_cast<std::uint32_t>(rwsets.size());
    record.committed = static_cast<std::uint32_t>(result->NumCommitted());
    record.aborted = static_cast<std::uint32_t>(result->NumAborted());
    record.cc_ms = metrics().TotalUs() / 1000.0;
    record.acg_vertices = metrics().graph_vertices;
    record.acg_edges = metrics().graph_edges;
    record.attribution = result->attribution;
    recorder.Record(std::move(record));
    recorder.DumpPostMortem("oracle-rejection");
    return Status::Internal("schedule failed serializability verification: " +
                            counterexample);
  }
  return result;
}

namespace {

std::string Str(std::string_view s) { return std::string(s); }

void PublishPhase(obs::MetricsRegistry& registry, const std::string& scheduler,
                  const char* phase, double micros) {
  registry
      .GetHistogram("nezha_scheduler_phase_us",
                    {{"scheduler", scheduler}, {"phase", phase}})
      ->Observe(micros);
}

/// Maps a scheme's generic conflict reason onto the abort taxonomy for
/// schedulers that do not emit per-abort records themselves: reasons naming
/// a cycle (cg's "cycle" / "budget-exhausted", nezha's "unserializable"
/// fallback) are dependency-cycle casualties; everything else (occ's
/// "stale-read") is a read-write conflict.
obs::ConflictKind KindFromReason(std::string_view reason) {
  if (reason.find("cycle") != std::string_view::npos ||
      reason.find("budget") != std::string_view::npos ||
      reason.find("unserializable") != std::string_view::npos) {
    return obs::ConflictKind::kRankCycle;
  }
  return obs::ConflictKind::kReadWrite;
}

/// Ensures every aborted transaction carries exactly one AbortRecord:
/// reverts (rwset.ok == false) become kReverted, scheduler aborts without a
/// sorter-emitted record get KindFromReason(conflict_reason).
void CompleteAttribution(Schedule& schedule,
                         std::span<const ReadWriteSet> rwsets,
                         std::string_view conflict_reason) {
  std::vector<bool> has_record(schedule.TxCount(), false);
  for (const obs::AbortRecord& r : schedule.attribution.aborts) {
    if (r.tx < has_record.size()) has_record[r.tx] = true;
  }
  for (TxIndex t = 0; t < schedule.TxCount(); ++t) {
    if (!schedule.aborted[t] || has_record[t]) continue;
    obs::AbortRecord record;
    record.tx = t;
    const bool reverted = t < rwsets.size() && !rwsets[t].ok;
    record.kind = reverted ? obs::ConflictKind::kReverted
                           : KindFromReason(conflict_reason);
    schedule.attribution.aborts.push_back(record);
  }
}

}  // namespace

void PublishSchedulerObs(std::string_view scheduler,
                         const SchedulerMetrics& metrics, Schedule& schedule,
                         std::span<const ReadWriteSet> rwsets,
                         std::string_view conflict_reason) {
  CompleteAttribution(schedule, rwsets, conflict_reason);

  // Lifecycle: this schedule IS the epoch's concurrency-control decision —
  // stamp kScheduled for everything and join each abort with its
  // attribution record. Guarded on the epoch size so schedule builds outside
  // an epoch (microbenches, unit tests) never stamp a stale epoch.
  if (obs::TxLifecycleTracer& lifecycle = obs::Lifecycle();
      lifecycle.enabled() && lifecycle.EpochActive() &&
      lifecycle.CurrentEpochSize() == schedule.TxCount()) {
    lifecycle.StampAll(obs::TxStage::kScheduled);
    if (!schedule.attribution.aborts.empty()) {
      std::vector<std::pair<std::uint32_t, std::uint8_t>> aborts;
      aborts.reserve(schedule.attribution.aborts.size());
      for (const obs::AbortRecord& r : schedule.attribution.aborts) {
        aborts.emplace_back(r.tx, static_cast<std::uint8_t>(r.kind));
      }
      lifecycle.MarkAbortedBatch(aborts);
    }
  }

  if (!obs::MetricsEnabled()) return;
  auto& registry = obs::Registry();
  const std::string name = Str(scheduler);
  const obs::Labels by_scheduler = {{"scheduler", name}};

  PublishPhase(registry, name, "construction", metrics.construction_us);
  PublishPhase(registry, name, "division", metrics.cycle_us);
  PublishPhase(registry, name, "sorting", metrics.sorting_us);

  registry.GetCounter("nezha_scheduler_builds_total", by_scheduler)->Inc();
  registry.GetCounter("nezha_scheduler_txs_total", by_scheduler)
      ->Inc(schedule.TxCount());
  registry.GetCounter("nezha_scheduler_committed_total", by_scheduler)
      ->Inc(schedule.NumCommitted());

  std::uint64_t reverted = 0;
  for (const ReadWriteSet& rw : rwsets) reverted += rw.ok ? 0 : 1;
  const std::uint64_t conflicted = schedule.NumAborted() - reverted;
  if (reverted > 0) {
    registry
        .GetCounter("nezha_scheduler_aborts_total",
                    {{"scheduler", name}, {"reason", "reverted"}})
        ->Inc(reverted);
  }
  if (conflicted > 0) {
    registry
        .GetCounter("nezha_scheduler_aborts_total",
                    {{"scheduler", name}, {"reason", Str(conflict_reason)}})
        ->Inc(conflicted);
  }

  registry.GetGauge("nezha_scheduler_graph_vertices", by_scheduler)
      ->Set(static_cast<std::int64_t>(metrics.graph_vertices));
  registry.GetGauge("nezha_scheduler_graph_edges", by_scheduler)
      ->Set(static_cast<std::int64_t>(metrics.graph_edges));
  registry.GetGauge("nezha_scheduler_last_cycles", by_scheduler)
      ->Set(static_cast<std::int64_t>(metrics.cycles_found));
  registry.GetGauge("nezha_scheduler_last_reordered", by_scheduler)
      ->Set(static_cast<std::int64_t>(metrics.reordered_txs));
  registry.GetGauge("nezha_scheduler_resource_exhausted", by_scheduler)
      ->Set(metrics.resource_exhausted ? 1 : 0);
  if (metrics.cycles_found > 0) {
    registry.GetCounter("nezha_scheduler_cycles_total", by_scheduler)
        ->Inc(metrics.cycles_found);
  }
  if (metrics.reordered_txs > 0) {
    registry.GetCounter("nezha_scheduler_reordered_total", by_scheduler)
        ->Inc(metrics.reordered_txs);
  }

  obs::BucketHistogram* group_size = registry.GetHistogram(
      "nezha_scheduler_commit_group_size", by_scheduler,
      obs::DefaultSizeBounds());
  for (const auto& group : schedule.groups) {
    group_size->Observe(static_cast<double>(group.size()));
  }

  obs::PublishAttribution(scheduler, obs::BuildRollup(schedule.attribution));
}

std::string CanonicalScheduleEncoding(const Schedule& schedule) {
  std::string out = "schedule txs=" + std::to_string(schedule.TxCount()) +
                    " committed=" + std::to_string(schedule.NumCommitted()) +
                    " aborted=" + std::to_string(schedule.NumAborted()) +
                    " groups=" + std::to_string(schedule.groups.size()) + "\n";
  out.reserve(out.size() + 26 * schedule.TxCount() +
              8 * schedule.NumCommitted() + 8 * schedule.reordered.size());
  for (TxIndex t = 0; t < schedule.TxCount(); ++t) {
    out += "t ";
    AppendU64(out, t);
    if (schedule.aborted[t]) {
      out += " aborted\n";
    } else {
      out += " s=";
      AppendU64(out, schedule.sequence[t]);
      out += "\n";
    }
  }
  for (std::size_t g = 0; g < schedule.groups.size(); ++g) {
    out += "g ";
    AppendU64(out, g);
    out += ':';
    for (std::size_t i = 0; i < schedule.groups[g].size(); ++i) {
      if (i != 0) out += ',';
      AppendU64(out, schedule.groups[g][i]);
    }
    out += "\n";
  }
  out += "ro";
  for (const TxIndex t : schedule.reordered) {
    out += ' ';
    AppendU64(out, t);
  }
  out += "\n";
  out += CanonicalAbortRecordsEncoding(schedule.attribution.aborts);
  return out;
}

}  // namespace nezha
