// Per-transaction lifecycle tracer — answers "how long did tx X take from
// submission to durable commit, and where did it wait?"
// (docs/OBSERVABILITY.md, "Transaction lifecycle").
//
// Each tracked transaction records one wall-clock stamp per pipeline stage:
//
//   submitted -> included -> confirmed -> scheduled -> executed -> committed
//                                                                (or aborted)
//
// Two storage tiers keep the hot path cheap:
//   * an INGRESS table — lock-striped, keyed by a cheap 64-bit transaction
//     key (LifecycleKey) — holds the pre-pipeline stamps (submitted at
//     mempool admission, included when a miner drains the tx into a block);
//   * an EPOCH table — a dense vector indexed by TxIndex — holds every
//     in-pipeline stage. BeginEpoch claims the batch's ingress entries into
//     the epoch table once; after that every stamp is an O(1) array write,
//     and batch stamps (StampAll / StampTxs) read the clock once per call.
//
// FinishEpoch rolls the epoch into per-scheme histograms (nezha_tx_e2e_ms,
// nezha_tx_stage_wait_ms{stage}) via one bulk observe per series, and
// returns an EpochLatencySummary — exact p50/p95/p99 over the epoch plus
// the top-K slowest transactions with their stage breakdown — which the
// node folds into the EpochReport and the epoch flight record.
//
// Threading: the ingress tier accepts concurrent stamps (clients submit
// while miners drain). The epoch tier holds ONE open epoch: the node runs
// one epoch to completion before the next (FullNode::ProcessEpoch is its
// only driver) — the same assumption the flight recorder's SetCurrentEpoch
// makes. A BeginEpoch while another epoch is active discards the
// unfinished epoch. All epoch-tier operations still take one mutex so
// pool workers stamping an epoch and concurrent readers (tests, exporters)
// are safe.
//
// The tracer is ON by default and kill-switched like the metrics registry:
// when disabled, every stamp is one relaxed load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace nezha::obs {

/// Pipeline stages a transaction moves through. kAborted is terminal and
/// mutually exclusive with kCommitted.
enum class TxStage : std::uint8_t {
  kSubmitted = 0,  ///< admitted to the mempool
  kIncluded,       ///< drained into a block payload
  kConfirmed,      ///< the carrying block's epoch is DAG-confirmed/sealed
  kScheduled,      ///< concurrency control done (ACG + sort)
  kExecuted,       ///< commit-group execution finished
  kCommitted,      ///< durably committed (journal + atomic batch applied)
  kAborted,        ///< terminal abort (carries a ConflictKind)
};
inline constexpr std::size_t kNumTxStages = 7;

const char* TxStageName(TxStage stage);

/// The five hand-off waits between consecutive stages, in order:
/// include (submitted->included), confirm (included->confirmed), schedule
/// (confirmed->scheduled), execute (scheduled->executed), commit
/// (executed->committed).
inline constexpr std::size_t kNumStageWaits = 5;

const char* StageWaitName(std::size_t wait);

/// One transaction's recorded stamps. Stamps are microseconds on the
/// process-wide tracer clock; kUnstamped marks a stage the transaction
/// never reached (schemes skip stages: Serial has no scheduling).
struct TxLifetime {
  static constexpr double kUnstamped = -1.0;

  std::uint64_t key = 0;   ///< LifecycleKey (0 when unknown)
  std::uint32_t tx = 0;    ///< TxIndex within its epoch batch
  std::array<double, kNumTxStages> stamp_us{
      kUnstamped, kUnstamped, kUnstamped, kUnstamped,
      kUnstamped, kUnstamped, kUnstamped};
  bool aborted = false;
  std::uint8_t abort_kind = 0;  ///< obs::ConflictKind when aborted

  double StampUs(TxStage stage) const {
    return stamp_us[static_cast<std::size_t>(stage)];
  }
  bool HasStage(TxStage stage) const { return StampUs(stage) >= 0; }

  /// End-to-end latency in ms: first recorded stamp to the terminal stamp
  /// (committed, or aborted). Negative when no terminal stage was reached.
  double EndToEndMs() const;

  /// Wait `w` (see StageWaitName) in ms; negative when either endpoint is
  /// missing.
  double WaitMs(std::size_t wait) const;
};

/// Exact (nearest-rank, interpolated) percentiles of one stage-wait
/// population within one epoch.
struct StageWaitSummary {
  std::uint64_t count = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

/// Per-epoch latency decomposition: the histogram summary plus the top-K
/// slowest transactions with their full stage breakdown. Folded into the
/// EpochReport and the epoch flight record (the "latency" JSON object).
struct EpochLatencySummary {
  std::uint64_t epoch = 0;
  std::string scheme;
  std::uint32_t tracked = 0;    ///< lifetimes in the epoch table
  std::uint32_t committed = 0;  ///< reached kCommitted
  std::uint32_t aborted = 0;    ///< marked aborted

  StageWaitSummary e2e;  ///< end-to-end, committed transactions only
  std::array<StageWaitSummary, kNumStageWaits> waits;

  struct SlowTx {
    std::uint64_t key = 0;
    std::uint32_t tx = 0;
    double e2e_ms = 0;
    /// Per-wait breakdown; negative entries mean the wait was not observed.
    std::array<double, kNumStageWaits> wait_ms{-1, -1, -1, -1, -1};
  };
  std::vector<SlowTx> slowest;  ///< descending end-to-end latency

  /// One JSON object (no trailing newline) — the flight-record "latency"
  /// member schema (docs/OBSERVABILITY.md).
  std::string ToJson() const;
};

class TxLifecycleTracer {
 public:
  static TxLifecycleTracer& Global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Microseconds on the tracer clock (shared with PhaseTracer so lifecycle
  /// stamps and trace spans line up).
  static double NowUs();

  // ---- Ingress tier (pre-pipeline, keyed, thread-safe) ----

  /// Stamps `stage` (kSubmitted or kIncluded) for one keyed transaction.
  /// Creates the entry on first touch; silently drops when the ingress
  /// table is at capacity (counted in nezha_tx_lifecycle_dropped_total).
  void StampIngress(std::uint64_t key, TxStage stage);
  /// Batch form: one clock read for the whole span.
  void StampIngressBatch(std::span<const std::uint64_t> keys, TxStage stage);
  /// Forgets a keyed transaction that will never reach an epoch (dropped
  /// from the mempool without being committed).
  void DropIngress(std::uint64_t key);
  std::size_t IngressCount() const;

  // ---- Epoch tier (in-pipeline, dense, single-pipeline) ----

  /// Starts tracking one epoch batch: lifetime t gets keys[t], and any
  /// ingress stamps recorded under that key are claimed (moved) into the
  /// epoch table. An unfinished previous epoch is discarded.
  void BeginEpoch(std::uint64_t epoch, std::string_view scheme,
                  std::span<const std::uint64_t> keys);
  bool EpochActive() const;
  std::size_t CurrentEpochSize() const;

  /// Stamps `stage` for every tracked transaction not marked aborted, with
  /// one clock read.
  void StampAll(TxStage stage);
  /// Stamps `stage` for the given TxIndex set, one clock read per call
  /// (out-of-range indices are ignored).
  void StampTxs(std::span<const std::uint32_t> txs, TxStage stage);
  void StampTx(std::uint32_t tx, TxStage stage);
  /// Marks `tx` aborted with a ConflictKind, stamping kAborted.
  void MarkAborted(std::uint32_t tx, std::uint8_t kind);
  /// Batch form: one clock read and one lock for the whole span (the
  /// scheduler hands over every abort of a schedule at once).
  void MarkAbortedBatch(
      std::span<const std::pair<std::uint32_t, std::uint8_t>> aborts);

  /// Ends the epoch: computes the latency decomposition (keeping the top_k
  /// slowest committed transactions), publishes the per-scheme
  /// nezha_tx_e2e_ms / nezha_tx_stage_wait_ms{stage} histograms and the
  /// committed/aborted counters, retains the lifetimes for
  /// LastEpochLifetimes(), and deactivates the epoch. Returns a
  /// default-constructed summary when no epoch is active.
  EpochLatencySummary FinishEpoch(std::size_t top_k = 4);
  /// Ends the epoch without summarizing or publishing anything (an epoch
  /// that failed).
  void DiscardEpoch();

  /// The finished epoch's lifetimes / summary (for tests and reports).
  std::vector<TxLifetime> LastEpochLifetimes() const;
  EpochLatencySummary LastSummary() const;

  /// Drops all ingress and epoch state (tests).
  void Clear();

 private:
  TxLifecycleTracer() = default;

  struct IngressEntry {
    double submitted_us = TxLifetime::kUnstamped;
    double included_us = TxLifetime::kUnstamped;
  };

  static constexpr std::size_t kIngressStripes = 64;
  /// Total ingress capacity ~1M entries; beyond that new stamps are dropped
  /// (a mempool deeper than this has bigger problems than tracing).
  static constexpr std::size_t kMaxIngressPerStripe = 16384;

  struct IngressStripe {
    mutable Mutex mutex;
    std::unordered_map<std::uint64_t, IngressEntry> entries
        GUARDED_BY(mutex);
  };

  IngressStripe& StripeFor(std::uint64_t key) {
    // splitmix64 finalizer: LifecycleKeys are already mixed, but keys from
    // other producers may be sequential.
    std::uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return ingress_[h % kIngressStripes];
  }

  /// Claims (removes and returns) the ingress entry for `key`, if any.
  bool ClaimIngress(std::uint64_t key, IngressEntry* out);

  std::atomic<bool> enabled_{true};

  IngressStripe ingress_[kIngressStripes];
  /// Total entries across all stripes. Lets BeginEpoch skip the per-key
  /// claim lookups entirely when no producer ever stamped ingress (benches,
  /// unit tests, drivers without a mempool).
  std::atomic<std::size_t> ingress_count_{0};

  mutable Mutex epoch_mutex_;
  bool active_ GUARDED_BY(epoch_mutex_) = false;
  std::uint64_t epoch_ GUARDED_BY(epoch_mutex_) = 0;
  std::string scheme_ GUARDED_BY(epoch_mutex_);
  std::vector<TxLifetime> lifetimes_ GUARDED_BY(epoch_mutex_);
  std::vector<TxLifetime> last_lifetimes_ GUARDED_BY(epoch_mutex_);
  EpochLatencySummary last_summary_ GUARDED_BY(epoch_mutex_);
};

/// Shorthand for TxLifecycleTracer::Global().
inline TxLifecycleTracer& Lifecycle() { return TxLifecycleTracer::Global(); }

}  // namespace nezha::obs
