#include "obs/tx_lifecycle.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nezha::obs {
namespace {

/// Interpolated percentile of an ascending-sorted sample vector.
double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Sorts `values` in place and summarizes it.
StageWaitSummary Summarize(std::vector<double>& values) {
  StageWaitSummary s;
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.count = values.size();
  double sum = 0;
  for (double v : values) sum += v;
  s.mean_ms = sum / static_cast<double>(values.size());
  s.max_ms = values.back();
  s.p50_ms = PercentileSorted(values, 50);
  s.p95_ms = PercentileSorted(values, 95);
  s.p99_ms = PercentileSorted(values, 99);
  return s;
}

std::string FmtMs(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendSummaryJson(std::ostringstream& out, const StageWaitSummary& s) {
  out << "{\"count\":" << s.count << ",\"mean\":" << FmtMs(s.mean_ms)
      << ",\"p50\":" << FmtMs(s.p50_ms) << ",\"p95\":" << FmtMs(s.p95_ms)
      << ",\"p99\":" << FmtMs(s.p99_ms) << ",\"max\":" << FmtMs(s.max_ms)
      << "}";
}

}  // namespace

const char* TxStageName(TxStage stage) {
  switch (stage) {
    case TxStage::kSubmitted:
      return "submitted";
    case TxStage::kIncluded:
      return "included";
    case TxStage::kConfirmed:
      return "confirmed";
    case TxStage::kScheduled:
      return "scheduled";
    case TxStage::kExecuted:
      return "executed";
    case TxStage::kCommitted:
      return "committed";
    case TxStage::kAborted:
      return "aborted";
  }
  return "?";
}

const char* StageWaitName(std::size_t wait) {
  switch (wait) {
    case 0:
      return "include";
    case 1:
      return "confirm";
    case 2:
      return "schedule";
    case 3:
      return "execute";
    case 4:
      return "commit";
    default:
      return "?";
  }
}

double TxLifetime::EndToEndMs() const {
  const double end = aborted ? StampUs(TxStage::kAborted)
                             : StampUs(TxStage::kCommitted);
  if (end < 0) return -1;
  for (std::size_t i = 0; i < kNumTxStages; ++i) {
    if (stamp_us[i] >= 0) return (end - stamp_us[i]) / 1000.0;
  }
  return -1;
}

double TxLifetime::WaitMs(std::size_t wait) const {
  if (wait >= kNumStageWaits) return -1;
  // Wait w spans stage w -> stage w+1 (submitted..committed are stages
  // 0..5, so wait indices line up with their earlier endpoint).
  const double from = stamp_us[wait];
  const double to = stamp_us[wait + 1];
  if (from < 0 || to < 0) return -1;
  return (to - from) / 1000.0;
}

std::string EpochLatencySummary::ToJson() const {
  std::ostringstream out;
  out << "{\"epoch\":" << epoch << ",\"scheme\":\"" << scheme
      << "\",\"tracked\":" << tracked << ",\"committed\":" << committed
      << ",\"aborted\":" << aborted << ",\"e2e_ms\":";
  AppendSummaryJson(out, e2e);
  out << ",\"stage_wait_ms\":{";
  for (std::size_t w = 0; w < kNumStageWaits; ++w) {
    if (w > 0) out << ",";
    out << "\"" << StageWaitName(w) << "\":";
    AppendSummaryJson(out, waits[w]);
  }
  out << "},\"slowest\":[";
  for (std::size_t i = 0; i < slowest.size(); ++i) {
    const SlowTx& slow = slowest[i];
    if (i > 0) out << ",";
    out << "{\"key\":" << slow.key << ",\"tx\":" << slow.tx
        << ",\"e2e_ms\":" << FmtMs(slow.e2e_ms) << ",\"waits_ms\":{";
    bool first = true;
    for (std::size_t w = 0; w < kNumStageWaits; ++w) {
      if (slow.wait_ms[w] < 0) continue;  // wait not observed
      if (!first) out << ",";
      first = false;
      out << "\"" << StageWaitName(w) << "\":" << FmtMs(slow.wait_ms[w]);
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

TxLifecycleTracer& TxLifecycleTracer::Global() {
  static TxLifecycleTracer* tracer = new TxLifecycleTracer();  // never freed
  return *tracer;
}

double TxLifecycleTracer::NowUs() { return PhaseTracer::NowUs(); }

void TxLifecycleTracer::StampIngress(std::uint64_t key, TxStage stage) {
  if (!enabled()) return;
  const double now = NowUs();
  IngressStripe& stripe = StripeFor(key);
  MutexLock lock(stripe.mutex);
  auto it = stripe.entries.find(key);
  if (it == stripe.entries.end()) {
    if (stripe.entries.size() >= kMaxIngressPerStripe) {
      Registry().GetCounter("nezha_tx_lifecycle_dropped_total")->Inc();
      return;
    }
    it = stripe.entries.emplace(key, IngressEntry{}).first;
    ingress_count_.fetch_add(1, std::memory_order_relaxed);
  }
  if (stage == TxStage::kSubmitted) {
    it->second.submitted_us = now;
  } else {
    it->second.included_us = now;
  }
}

void TxLifecycleTracer::StampIngressBatch(
    std::span<const std::uint64_t> keys, TxStage stage) {
  if (!enabled() || keys.empty()) return;
  const double now = NowUs();
  for (const std::uint64_t key : keys) {
    IngressStripe& stripe = StripeFor(key);
    MutexLock lock(stripe.mutex);
    auto it = stripe.entries.find(key);
    if (it == stripe.entries.end()) {
      if (stripe.entries.size() >= kMaxIngressPerStripe) {
        Registry().GetCounter("nezha_tx_lifecycle_dropped_total")->Inc();
        continue;
      }
      it = stripe.entries.emplace(key, IngressEntry{}).first;
      ingress_count_.fetch_add(1, std::memory_order_relaxed);
    }
    if (stage == TxStage::kSubmitted) {
      it->second.submitted_us = now;
    } else {
      it->second.included_us = now;
    }
  }
}

void TxLifecycleTracer::DropIngress(std::uint64_t key) {
  IngressStripe& stripe = StripeFor(key);
  MutexLock lock(stripe.mutex);
  if (stripe.entries.erase(key) > 0) {
    ingress_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

std::size_t TxLifecycleTracer::IngressCount() const {
  std::size_t count = 0;
  for (const IngressStripe& stripe : ingress_) {
    MutexLock lock(stripe.mutex);
    count += stripe.entries.size();
  }
  return count;
}

bool TxLifecycleTracer::ClaimIngress(std::uint64_t key, IngressEntry* out) {
  IngressStripe& stripe = StripeFor(key);
  MutexLock lock(stripe.mutex);
  const auto it = stripe.entries.find(key);
  if (it == stripe.entries.end()) return false;
  *out = it->second;
  stripe.entries.erase(it);
  ingress_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void TxLifecycleTracer::BeginEpoch(std::uint64_t epoch,
                                   std::string_view scheme,
                                   std::span<const std::uint64_t> keys) {
  if (!enabled()) return;
  // When no producer ever stamped ingress (benches, drivers without a
  // mempool), skip the per-key claim lookups — they are the dominant cost
  // of opening an epoch.
  const bool claim =
      ingress_count_.load(std::memory_order_relaxed) > 0;
  std::vector<TxLifetime> lifetimes(keys.size());
  for (std::size_t t = 0; t < keys.size(); ++t) {
    TxLifetime& life = lifetimes[t];
    life.key = keys[t];
    life.tx = static_cast<std::uint32_t>(t);
    IngressEntry entry;
    if (claim && ClaimIngress(keys[t], &entry)) {
      life.stamp_us[static_cast<std::size_t>(TxStage::kSubmitted)] =
          entry.submitted_us;
      life.stamp_us[static_cast<std::size_t>(TxStage::kIncluded)] =
          entry.included_us;
    }
  }
  MutexLock lock(epoch_mutex_);
  active_ = true;
  epoch_ = epoch;
  scheme_ = std::string(scheme);
  lifetimes_ = std::move(lifetimes);
}

bool TxLifecycleTracer::EpochActive() const {
  MutexLock lock(epoch_mutex_);
  return active_;
}

std::size_t TxLifecycleTracer::CurrentEpochSize() const {
  MutexLock lock(epoch_mutex_);
  return active_ ? lifetimes_.size() : 0;
}

void TxLifecycleTracer::StampAll(TxStage stage) {
  if (!enabled()) return;
  const double now = NowUs();
  const auto s = static_cast<std::size_t>(stage);
  MutexLock lock(epoch_mutex_);
  if (!active_) return;
  for (TxLifetime& life : lifetimes_) {
    if (life.aborted) continue;
    life.stamp_us[s] = now;
  }
}

void TxLifecycleTracer::StampTxs(std::span<const std::uint32_t> txs,
                                 TxStage stage) {
  if (!enabled()) return;
  const double now = NowUs();
  const auto s = static_cast<std::size_t>(stage);
  MutexLock lock(epoch_mutex_);
  if (!active_) return;
  for (const std::uint32_t tx : txs) {
    if (tx < lifetimes_.size()) lifetimes_[tx].stamp_us[s] = now;
  }
}

void TxLifecycleTracer::StampTx(std::uint32_t tx, TxStage stage) {
  const std::uint32_t one[] = {tx};
  StampTxs(one, stage);
}

void TxLifecycleTracer::MarkAborted(std::uint32_t tx, std::uint8_t kind) {
  const std::pair<std::uint32_t, std::uint8_t> one[] = {{tx, kind}};
  MarkAbortedBatch(one);
}

void TxLifecycleTracer::MarkAbortedBatch(
    std::span<const std::pair<std::uint32_t, std::uint8_t>> aborts) {
  if (!enabled() || aborts.empty()) return;
  const double now = NowUs();
  MutexLock lock(epoch_mutex_);
  if (!active_) return;
  for (const auto& [tx, kind] : aborts) {
    if (tx >= lifetimes_.size()) continue;
    TxLifetime& life = lifetimes_[tx];
    life.aborted = true;
    life.abort_kind = kind;
    life.stamp_us[static_cast<std::size_t>(TxStage::kAborted)] = now;
  }
}

EpochLatencySummary TxLifecycleTracer::FinishEpoch(std::size_t top_k) {
  EpochLatencySummary summary;
  std::vector<double> e2e;
  std::array<std::vector<double>, kNumStageWaits> waits;
  {
    MutexLock lock(epoch_mutex_);
    if (!active_) return summary;
    active_ = false;
    summary.epoch = epoch_;
    summary.scheme = scheme_;
    summary.tracked = static_cast<std::uint32_t>(lifetimes_.size());

    e2e.reserve(lifetimes_.size());
    for (const TxLifetime& life : lifetimes_) {
      if (life.aborted) {
        ++summary.aborted;
        continue;
      }
      if (!life.HasStage(TxStage::kCommitted)) continue;
      ++summary.committed;
      const double total = life.EndToEndMs();
      if (total >= 0) e2e.push_back(total);
      for (std::size_t w = 0; w < kNumStageWaits; ++w) {
        const double wait = life.WaitMs(w);
        if (wait >= 0) waits[w].push_back(wait);
      }
    }

    // Top-K slowest committed transactions, descending end-to-end latency.
    std::vector<const TxLifetime*> committed;
    committed.reserve(summary.committed);
    for (const TxLifetime& life : lifetimes_) {
      if (!life.aborted && life.HasStage(TxStage::kCommitted) &&
          life.EndToEndMs() >= 0) {
        committed.push_back(&life);
      }
    }
    const std::size_t keep = std::min(top_k, committed.size());
    std::partial_sort(committed.begin(), committed.begin() + keep,
                      committed.end(),
                      [](const TxLifetime* a, const TxLifetime* b) {
                        return a->EndToEndMs() > b->EndToEndMs();
                      });
    summary.slowest.reserve(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      EpochLatencySummary::SlowTx slow;
      slow.key = committed[i]->key;
      slow.tx = committed[i]->tx;
      slow.e2e_ms = committed[i]->EndToEndMs();
      for (std::size_t w = 0; w < kNumStageWaits; ++w) {
        slow.wait_ms[w] = committed[i]->WaitMs(w);
      }
      summary.slowest.push_back(slow);
    }

    last_lifetimes_ = std::move(lifetimes_);
    lifetimes_.clear();
  }

  summary.e2e = Summarize(e2e);
  for (std::size_t w = 0; w < kNumStageWaits; ++w) {
    summary.waits[w] = Summarize(waits[w]);
  }

  if (MetricsEnabled() && summary.tracked > 0) {
    auto& registry = Registry();
    const Labels by_scheme = {{"scheme", summary.scheme}};
    registry
        .GetHistogram("nezha_tx_e2e_ms", by_scheme, DefaultLatencyBoundsMs())
        ->ObserveMany(e2e);
    for (std::size_t w = 0; w < kNumStageWaits; ++w) {
      registry
          .GetHistogram("nezha_tx_stage_wait_ms",
                        {{"scheme", summary.scheme},
                         {"stage", StageWaitName(w)}},
                        DefaultLatencyBoundsMs())
          ->ObserveMany(waits[w]);
    }
    registry.GetCounter("nezha_tx_lifecycle_committed_total", by_scheme)
        ->Inc(summary.committed);
    registry.GetCounter("nezha_tx_lifecycle_aborted_total", by_scheme)
        ->Inc(summary.aborted);
    registry.GetCounter("nezha_tx_lifecycle_epochs_total", by_scheme)->Inc();
  }

  {
    MutexLock lock(epoch_mutex_);
    last_summary_ = summary;
  }
  return summary;
}

void TxLifecycleTracer::DiscardEpoch() {
  MutexLock lock(epoch_mutex_);
  active_ = false;
  lifetimes_.clear();
}

std::vector<TxLifetime> TxLifecycleTracer::LastEpochLifetimes() const {
  MutexLock lock(epoch_mutex_);
  return last_lifetimes_;
}

EpochLatencySummary TxLifecycleTracer::LastSummary() const {
  MutexLock lock(epoch_mutex_);
  return last_summary_;
}

void TxLifecycleTracer::Clear() {
  for (IngressStripe& stripe : ingress_) {
    MutexLock lock(stripe.mutex);
    ingress_count_.fetch_sub(stripe.entries.size(),
                             std::memory_order_relaxed);
    stripe.entries.clear();
  }
  MutexLock lock(epoch_mutex_);
  active_ = false;
  epoch_ = 0;
  scheme_.clear();
  lifetimes_.clear();
  last_lifetimes_.clear();
  last_summary_ = EpochLatencySummary{};
}

}  // namespace nezha::obs
