// Scheduler: the concurrency-control interface (the paper's "concurrency
// control phase").
//
// Input: the read/write sets produced by speculatively executing one epoch's
// transaction batch against the previous epoch's snapshot.
// Output: a Schedule — which transactions commit, which abort, and a total
// commit order expressed as commit groups: transactions in the same group
// carry the same sequence number and may commit concurrently (they are
// guaranteed conflict-free); groups commit in ascending sequence order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/abort_attribution.h"
#include "obs/metrics.h"
#include "vm/rwset.h"

namespace nezha {

struct Schedule {
  /// Per-transaction sequence number (kUnassignedSeq for aborted txs).
  std::vector<SeqNum> sequence;
  /// Per-transaction abort flag.
  std::vector<bool> aborted;
  /// Commit groups in ascending sequence order; within a group, transactions
  /// are listed by ascending TxIndex. Aborted transactions appear nowhere.
  std::vector<std::vector<TxIndex>> groups;
  /// Committed transactions the scheduler re-seated via the §IV.D reordering
  /// enhancement (empty for schemes without it). The serializability oracle
  /// checks these against the reorder landing rule.
  std::vector<TxIndex> reordered;
  /// Why each aborted transaction aborted, plus rank-division decision
  /// counters and hot addresses. Schedulers fill what they know;
  /// PublishSchedulerObs completes it (reverts, scheme-generic conflicts) so
  /// every scheme leaves BuildSchedule with one record per aborted tx.
  obs::ScheduleAttribution attribution;

  std::size_t TxCount() const { return sequence.size(); }
  std::size_t NumAborted() const {
    std::size_t n = 0;
    for (bool a : aborted) n += a ? 1 : 0;
    return n;
  }
  std::size_t NumCommitted() const { return TxCount() - NumAborted(); }
  double AbortRate() const {
    return TxCount() == 0
               ? 0
               : static_cast<double>(NumAborted()) /
                     static_cast<double>(TxCount());
  }

  /// Rebuilds `groups` from `sequence` + `aborted` (helper for schedulers).
  /// Defined inline so src/analysis can use Schedule without linking the
  /// scheduler implementations (which link src/analysis for the oracle).
  void RebuildGroups() {
    groups.clear();
    std::map<SeqNum, std::vector<TxIndex>> by_seq;
    for (TxIndex t = 0; t < sequence.size(); ++t) {
      if (aborted[t]) continue;
      by_seq[sequence[t]].push_back(t);
    }
    groups.reserve(by_seq.size());
    for (auto& [seq, txs] : by_seq) {
      std::sort(txs.begin(), txs.end());
      groups.push_back(std::move(txs));
    }
  }
};

/// Phase timings and size counters a scheduler reports, matching the paper's
/// Fig. 10 sub-phase breakdown.
struct SchedulerMetrics {
  double construction_us = 0;    ///< graph construction
  double cycle_us = 0;           ///< CG: cycle detection+removal; Nezha: rank division
  double sorting_us = 0;         ///< CG: topological sort; Nezha: transaction sorting
  std::size_t graph_vertices = 0;
  std::size_t graph_edges = 0;
  std::uint64_t cycles_found = 0;       ///< CG only
  bool resource_exhausted = false;      ///< CG cycle enumeration blew its budget
  std::size_t reordered_txs = 0;        ///< Nezha enhanced design (§IV.D)
  std::size_t acg_shards = 0;           ///< Nezha: ACG build shards (1 = serial)
  std::size_t sort_clusters = 0;        ///< Nezha: sorted clusters (1 = serial)

  double TotalUs() const { return construction_us + cycle_us + sorting_us; }
};

/// Publishes one BuildSchedule outcome into the global metrics registry
/// (docs/OBSERVABILITY.md), all series labeled scheduler=<name>:
///   * nezha_scheduler_phase_us{phase=construction|division|sorting} hists;
///   * nezha_scheduler_aborts_total{reason=...} — reason="reverted" for
///     application-level reverts, `conflict_reason` for scheduler aborts;
///   * nezha_scheduler_{txs,committed,builds,reordered,cycles}_total;
///   * last-build gauges for graph size, cycles, reorders and exhaustion;
///   * the abort-attribution series of obs::PublishAttribution.
/// Every Scheduler implementation calls this at the end of BuildSchedule.
/// The series are written from `metrics` and never read back: callers take
/// SchedulerMetrics from the scheduler itself (EpochReport.cc_metrics).
///
/// Also *completes* schedule.attribution in place: every aborted transaction
/// without a record gets one — kReverted when its rwset.ok is false,
/// otherwise a record whose kind is derived from `conflict_reason` (reasons
/// mentioning cycles map to kRankCycle, everything else to kReadWrite) — so
/// downstream consumers (flight recorder, benches, fig11) see one record per
/// abort for every scheme, not just Nezha.
void PublishSchedulerObs(std::string_view scheduler,
                         const SchedulerMetrics& metrics, Schedule& schedule,
                         std::span<const ReadWriteSet> rwsets,
                         std::string_view conflict_reason);

/// Canonical text encoding of a schedule — per-tx sequence/abort, commit
/// groups, §IV.D reorders, and the abort-decision records. Every scheme's
/// BuildSchedule digests this into the kSort determinism checkpoint
/// (src/analysis/det_checkpoint.h), so "same inputs, same schedule" is
/// checkable per stage, per scheme, across thread and shard configurations.
std::string CanonicalScheduleEncoding(const Schedule& schedule);

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string_view name() const = 0;

  /// Builds a schedule for one batch. Deterministic: identical inputs yield
  /// identical schedules.
  ///
  /// When schedule verification is enabled (ScheduleVerificationEnabled),
  /// every successful build is re-checked by the independent
  /// serializability oracle (src/analysis) before being returned; a
  /// violation dumps the counterexample to stderr and surfaces as
  /// Status::Internal. Outcomes are published as
  /// nezha_verify_{schedules,failures}_total counters and the
  /// nezha_verify_us histogram, labeled scheduler=<name>.
  Result<Schedule> BuildSchedule(std::span<const ReadWriteSet> rwsets);

  /// Metrics of the most recent BuildSchedule call.
  virtual const SchedulerMetrics& metrics() const = 0;

 protected:
  /// Scheme-specific schedule construction; BuildSchedule wraps this with
  /// the verification hook (template method).
  virtual Result<Schedule> BuildScheduleImpl(
      std::span<const ReadWriteSet> rwsets) = 0;

  /// True when the scheme's reads observed the pre-epoch snapshot
  /// (nezha/occ/cg) — the full precedence-graph oracle applies. Serial
  /// execution against the evolving state overrides this to false.
  virtual bool snapshot_semantics() const { return true; }
};

/// Whether BuildSchedule re-checks every schedule with the serializability
/// oracle. Resolution order: SetScheduleVerification override if set, else
/// the NEZHA_VERIFY_SCHEDULES environment variable ("0"/"false"/"off"
/// disables, anything else enables; read once per process), else on in
/// debug builds (NDEBUG not defined) and off in release.
bool ScheduleVerificationEnabled();

/// Programmatic override (wins over the environment variable); pass
/// std::nullopt to fall back to env/build-type resolution.
void SetScheduleVerification(std::optional<bool> enabled);

}  // namespace nezha
