// FullNode: the four-phase concurrent transaction processing pipeline of
// §III.B, assembled over all the substrates:
//
//   1. Validation      — verify every concurrent block of the epoch
//                        (linkage, tx Merkle root, previous state root);
//   2. Concurrent      — speculatively simulate all transactions against
//      execution         the snapshot of epoch e-1 across a thread pool;
//   3. Concurrency     — run the configured Scheduler (Serial / OCC / CG /
//      control           Nezha) over the read/write sets;
//   4. Commitment      — apply commit groups (concurrently within a group),
//                        flush to storage, compute the new state root.
//
// ProcessEpoch is the node's one epoch driver. It runs an epoch's phases to
// completion before the next epoch starts, so exactly one epoch is open in
// the observability layer at a time (flight recorder, determinism
// checkpoints, transaction lifecycle, profiler). The Serial scheme
// short-circuits phases 2-3: it executes and commits each transaction
// one-by-one against the live state, exactly like today's DAG-based
// blockchains (and like the paper's baseline). Every scheme ends in the
// same durable commit, and the ledger's epoch root moves only once that
// commit has landed.
#pragma once

#include <memory>
#include <span>

#include "cc/scheduler.h"
#include "common/thread_pool.h"
#include "ledger/epoch.h"
#include "ledger/ledger.h"
#include "node/receipts.h"
#include "obs/profiler.h"
#include "obs/tx_lifecycle.h"
#include "runtime/concurrent_executor.h"
#include "storage/state_db.h"
#include "vm/cost_model.h"
#include "vm/executor.h"

namespace nezha {

enum class SchemeKind { kSerial, kOcc, kCg, kNezha, kNezhaNoReorder };

/// Factory for the scheme's Scheduler implementation. When `pool` is given,
/// the Nezha schemes build their ACG sharded and sort cluster-parallel on
/// it (byte-identical output; docs/PARALLELISM.md); other schemes ignore
/// it. The pool must outlive the scheduler.
std::unique_ptr<Scheduler> MakeScheduler(SchemeKind kind,
                                         ThreadPool* pool = nullptr);

/// Parse/print helpers for CLI tools ("serial", "occ", "cg", "nezha",
/// "nezha-noreorder").
const char* SchemeName(SchemeKind kind);
Result<SchemeKind> ParseScheme(std::string_view name);

struct NodeConfig {
  SchemeKind scheme = SchemeKind::kNezha;
  ChainId max_chains = 12;         ///< maximum block concurrency (paper: 12)
  std::size_t worker_threads = 0;  ///< 0 = hardware concurrency
  ExecMode exec_mode = ExecMode::kNative;
  /// When true, EpochReport's execute_ms / serial latencies come from the
  /// calibrated EVM cost model instead of MiniVM wall time (DESIGN.md §4);
  /// concurrency-control and commit latencies are always measured.
  bool model_execution_cost = false;
  CostModel cost_model;
};

struct EpochReport {
  EpochId epoch = 0;
  std::size_t block_concurrency = 0;
  std::size_t txs = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;

  double validate_ms = 0;
  double execute_ms = 0;  ///< measured, or modelled when configured
  double cc_ms = 0;
  double commit_ms = 0;
  double TotalMs() const {
    return validate_ms + execute_ms + cc_ms + commit_ms;
  }

  SchedulerMetrics cc_metrics;
  /// Per-transaction latency decomposition for the epoch (end-to-end and
  /// stage-wait percentiles, top-K slowest transactions); empty when the
  /// lifecycle tracer is disabled.
  obs::EpochLatencySummary latency;
  /// Pipeline profile for the epoch: stage CPU vs wall, parallel efficiency,
  /// queue waits, idle gaps (obs/profiler.h). Default-empty when the
  /// profiler is disabled.
  obs::EpochProfile profile;
  std::size_t max_commit_group = 0;
  Hash256 state_root{};
  /// Merkle root over this epoch's transaction receipts (zero for the
  /// Serial baseline, which has no abort outcomes to attest).
  Hash256 receipt_root{};
};

class FullNode {
 public:
  explicit FullNode(const NodeConfig& config, KVStore* kv = nullptr);

  const NodeConfig& config() const { return config_; }
  ParallelChainLedger& ledger() { return ledger_; }
  StateDB& state() { return state_; }
  ThreadPool& pool() { return *pool_; }
  /// Receipt lookup by transaction id (persisted when a KVStore is
  /// attached; written by the concurrent-scheme pipeline).
  const ReceiptStore& receipts() const { return receipts_; }

  /// Current state snapshot (what the next epoch executes against).
  StateSnapshot Snapshot(EpochId epoch) { return state_.MakeSnapshot(epoch); }

  /// Runs the full pipeline over one epoch batch, updates the state, and
  /// commits it durably: the state records, receipts, epoch root and commit
  /// journal land in ONE atomic KV batch, preceded by a "j/pending" redo
  /// record — so a crash anywhere in the sequence leaves the store either
  /// pre-epoch or (after Recover()) fully committed, never torn.
  Result<EpochReport> ProcessEpoch(const EpochBatch& batch);

  /// What Recover() found and did (docs/ROBUSTNESS.md).
  struct RecoveryReport {
    bool rolled_forward = false;  ///< a pending commit journal was re-applied
    EpochId last_committed = 0;   ///< newest journaled epoch (0 when none)
    Hash256 state_root{};         ///< recovered state root
    Hash256 receipt_root{};       ///< from the commit journal (zero if none)
  };

  /// Crash recovery. Must be called on a fresh node with a KVStore:
  ///  1. a pending commit journal (a crash mid-commit) is rolled forward by
  ///     re-applying its redo batch — a torn commit batch becomes whole;
  ///  2. ledger and state are rebuilt from storage with full re-validation;
  ///  3. cross-checks: the state root must match the last epoch root, and
  ///     the commit journal's epoch, state root, block ids and chain tips
  ///     must agree with the recovered ledger — Corruption otherwise.
  Result<RecoveryReport> Recover();

 private:
  /// The durable-commit tail of every scheme: journal + one atomic commit
  /// batch (state, receipts, epoch root), with the commit-path injection
  /// sites. Installs the ledger's in-memory epoch root only once the commit
  /// has landed (flushed, or written to the KVStore).
  Status CommitEpochDurable(const EpochBatch& batch, EpochReport& report,
                            std::span<const Receipt> receipts);

  NodeConfig config_;
  KVStore* kv_;
  ParallelChainLedger ledger_;
  StateDB state_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Scheduler> scheduler_;
  ReceiptStore receipts_;
};

}  // namespace nezha
