// NezhaScheduler: the paper's full concurrency-control pipeline —
// ① ACG construction, ② sorting-rank division, ③ per-address transaction
// sorting (with the §IV.D reordering enhancement) — producing a total commit
// order with concurrency: transactions sharing a sequence number commit in
// parallel.
#pragma once

#include "cc/nezha/rank_division.h"
#include "cc/nezha/tx_sorter.h"
#include "cc/scheduler.h"

namespace nezha {

struct NezhaOptions {
  /// §IV.D reordering enhancement; disable for the ablation baseline.
  bool enable_reordering = true;
  /// Algorithm 1 cycle tie-break policy (kNaive is the ablation baseline).
  RankPolicy rank_policy = RankPolicy::kNezha;
  /// When set, ACG construction runs sharded and transaction sorting runs
  /// cluster-parallel on this pool (docs/PARALLELISM.md); output is
  /// byte-identical to the serial pipeline. Not owned; must outlive the
  /// scheduler. nullptr = fully serial build.
  ThreadPool* pool = nullptr;
  /// Shard count for the parallel ACG build (0 = one shard per pool
  /// worker). Ignored when pool is null.
  std::size_t acg_shards = 0;
};

class NezhaScheduler final : public Scheduler {
 public:
  explicit NezhaScheduler(const NezhaOptions& options = {})
      : options_(options) {}

  std::string_view name() const override {
    return options_.enable_reordering ? "nezha" : "nezha-noreorder";
  }

  const SchedulerMetrics& metrics() const override { return metrics_; }

 protected:
  Result<Schedule> BuildScheduleImpl(
      std::span<const ReadWriteSet> rwsets) override;

 private:
  NezhaOptions options_;
  SchedulerMetrics metrics_;
};

}  // namespace nezha
