#include "analysis/det_checkpoint.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "obs/metrics.h"

namespace nezha::analysis {
namespace {

bool EnvDefault() {
  static const bool kResolved = [] {
    const char* env = std::getenv("NEZHA_DET_CHECKPOINTS");
    if (env != nullptr) {
      const std::string_view v(env);
      return !(v == "0" || v == "false" || v == "off");
    }
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
  }();
  return kResolved;
}

}  // namespace

const char* DetStageName(DetStage stage) {
  switch (stage) {
    case DetStage::kConsensus:
      return "consensus";
    case DetStage::kAcg:
      return "acg";
    case DetStage::kRank:
      return "rank";
    case DetStage::kSort:
      return "sort";
    case DetStage::kExecute:
      return "execute";
    case DetStage::kCommit:
      return "commit";
  }
  return "?";
}

DetCheckpointRecorder& DetCheckpointRecorder::Global() {
  static DetCheckpointRecorder* recorder =
      new DetCheckpointRecorder();  // never freed
  return *recorder;
}

DetCheckpointRecorder::DetCheckpointRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool DetCheckpointRecorder::enabled() const {
  {
    MutexLock lock(mutex_);
    if (enabled_override_.has_value()) return *enabled_override_;
  }
  return EnvDefault();
}

void DetCheckpointRecorder::SetEnabled(std::optional<bool> enabled) {
  MutexLock lock(mutex_);
  enabled_override_ = enabled;
}

void DetCheckpointRecorder::SetCapture(bool capture) {
  MutexLock lock(mutex_);
  capture_ = capture;
}

bool DetCheckpointRecorder::capture() const {
  MutexLock lock(mutex_);
  return capture_;
}

void DetCheckpointRecorder::BeginEpoch(EpochId epoch, std::string_view scheme) {
  if (!enabled()) return;
  MutexLock lock(mutex_);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].epoch == epoch && ring_[i].scheme == scheme) {
      open_ = i;
      return;
    }
  }
  EpochCheckpoints record;
  record.epoch = epoch;
  record.scheme = std::string(scheme);
  if (ring_.size() >= capacity_) {
    // Shed the oldest epoch (ring order is append order).
    ring_.erase(ring_.begin());
    if (open_ != SIZE_MAX && open_ > 0) --open_;
  }
  ring_.push_back(std::move(record));
  open_ = ring_.size() - 1;
}

void DetCheckpointRecorder::EndEpoch() {
  MutexLock lock(mutex_);
  open_ = SIZE_MAX;
}

void DetCheckpointRecorder::Record(DetStage stage,
                                   std::string_view canonical) {
  if (!enabled()) return;
  Hash256 digest = Sha256::Digest(canonical);
  MutexLock lock(mutex_);
  if (open_ == SIZE_MAX || open_ >= ring_.size()) return;
  if (perturb_.has_value() && *perturb_ == stage) {
    digest.bytes[0] ^= 0xA5;  // simulate a stage-local nondeterminism bug
  }
  EpochCheckpoints& record = ring_[open_];
  const auto i = static_cast<std::size_t>(stage);
  record.digest[i] = digest;
  record.present[i] = true;
  if (capture_) record.canonical[i] = std::string(canonical);
  if (obs::MetricsEnabled()) {
    obs::Registry()
        .GetCounter("nezha_det_checkpoint_records_total",
                    {{"stage", DetStageName(stage)}})
        ->Inc();
    obs::Registry()
        .GetCounter("nezha_det_checkpoint_bytes_total",
                    {{"stage", DetStageName(stage)}})
        ->Inc(canonical.size());
  }
}

void DetCheckpointRecorder::PerturbStageForTest(std::optional<DetStage> stage) {
  MutexLock lock(mutex_);
  perturb_ = stage;
}

std::vector<EpochCheckpoints> DetCheckpointRecorder::Snapshot() const {
  MutexLock lock(mutex_);
  return ring_;
}

std::optional<EpochCheckpoints> DetCheckpointRecorder::Find(
    EpochId epoch, std::string_view scheme) const {
  MutexLock lock(mutex_);
  for (const EpochCheckpoints& record : ring_) {
    if (record.epoch == epoch && (scheme.empty() || record.scheme == scheme)) {
      return record;
    }
  }
  return std::nullopt;
}

void DetCheckpointRecorder::Clear() {
  MutexLock lock(mutex_);
  ring_.clear();
  open_ = SIZE_MAX;
}

std::size_t FirstDifferingLine(std::string_view a, std::string_view b,
                               std::string* line_a, std::string* line_b) {
  std::size_t line = 1;
  std::size_t ia = 0, ib = 0;
  while (ia < a.size() || ib < b.size()) {
    const std::size_t ea = std::min(a.find('\n', ia), a.size());
    const std::size_t eb = std::min(b.find('\n', ib), b.size());
    const std::string_view la =
        ia < a.size() ? a.substr(ia, ea - ia) : std::string_view();
    const std::string_view lb =
        ib < b.size() ? b.substr(ib, eb - ib) : std::string_view();
    if (la != lb || (ia >= a.size()) != (ib >= b.size())) {
      if (line_a != nullptr) {
        *line_a = ia < a.size() ? std::string(la) : "<missing>";
      }
      if (line_b != nullptr) {
        *line_b = ib < b.size() ? std::string(lb) : "<missing>";
      }
      return line;
    }
    ia = ea + 1;
    ib = eb + 1;
    ++line;
  }
  return 0;
}

DivergenceReport DiffCheckpoints(const std::vector<EpochCheckpoints>& a,
                                 const std::vector<EpochCheckpoints>& b) {
  DivergenceReport report;
  // Match epochs by id (std::map: ascending epoch order — the first
  // divergent epoch in pipeline time, not ring order).
  std::map<EpochId, const EpochCheckpoints*> by_epoch_b;
  for (const EpochCheckpoints& record : b) by_epoch_b[record.epoch] = &record;
  std::map<EpochId, const EpochCheckpoints*> by_epoch_a;
  for (const EpochCheckpoints& record : a) by_epoch_a[record.epoch] = &record;

  for (const auto& [epoch, ra] : by_epoch_a) {
    const auto it = by_epoch_b.find(epoch);
    if (it == by_epoch_b.end()) {
      report.diverged = true;
      report.epoch = epoch;
      report.summary = "epoch " + std::to_string(epoch) +
                       " present only on side A";
      return report;
    }
    const EpochCheckpoints& rb = *it->second;
    for (std::size_t s = 0; s < kNumDetStages; ++s) {
      const auto stage = static_cast<DetStage>(s);
      if (!ra->present[s] || !rb.present[s]) continue;
      if (ra->digest[s] == rb.digest[s]) {
        report.matched_stages.push_back(stage);
        continue;
      }
      report.diverged = true;
      report.epoch = epoch;
      report.stage = stage;
      report.summary = "epoch " + std::to_string(epoch) +
                       ": first divergence at stage '" + DetStageName(stage) +
                       "'";
      if (!ra->canonical[s].empty() || !rb.canonical[s].empty()) {
        report.line = FirstDifferingLine(ra->canonical[s], rb.canonical[s],
                                         &report.line_a, &report.line_b);
        if (report.line != 0) {
          report.summary += ", line " + std::to_string(report.line) + ": \"" +
                            report.line_a + "\" vs \"" + report.line_b + "\"";
        }
      } else {
        report.summary += " (digests only; enable capture for a line diff)";
      }
      return report;
    }
  }
  for (const auto& [epoch, rb] : by_epoch_b) {
    if (!by_epoch_a.contains(epoch)) {
      report.diverged = true;
      report.epoch = epoch;
      report.summary = "epoch " + std::to_string(epoch) +
                       " present only on side B";
      return report;
    }
  }
  report.summary = "no divergence";
  return report;
}

}  // namespace nezha::analysis
