#include "node/full_node.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <utility>
#include <vector>

#include "analysis/det_checkpoint.h"
#include "cc/cg/cg_scheduler.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "cc/occ/occ_scheduler.h"
#include "cc/serial/serial_scheduler.h"
#include "common/canonical_text.h"
#include "fault/fault.h"
#include "node/commit_journal.h"
#include "obs/abort_attribution.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/tx_lifecycle.h"
#include "runtime/concurrent_executor.h"
#include "vm/logged_state.h"

namespace nezha {

std::unique_ptr<Scheduler> MakeScheduler(SchemeKind kind, ThreadPool* pool) {
  switch (kind) {
    case SchemeKind::kSerial:
      return std::make_unique<SerialScheduler>();
    case SchemeKind::kOcc:
      return std::make_unique<OCCScheduler>();
    case SchemeKind::kCg:
      return std::make_unique<CGScheduler>();
    case SchemeKind::kNezha: {
      NezhaOptions options;
      options.pool = pool;
      return std::make_unique<NezhaScheduler>(options);
    }
    case SchemeKind::kNezhaNoReorder: {
      NezhaOptions options;
      options.enable_reordering = false;
      options.pool = pool;
      return std::make_unique<NezhaScheduler>(options);
    }
  }
  return nullptr;
}

const char* SchemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kSerial:
      return "serial";
    case SchemeKind::kOcc:
      return "occ";
    case SchemeKind::kCg:
      return "cg";
    case SchemeKind::kNezha:
      return "nezha";
    case SchemeKind::kNezhaNoReorder:
      return "nezha-noreorder";
  }
  return "?";
}

Result<SchemeKind> ParseScheme(std::string_view name) {
  if (name == "serial") return SchemeKind::kSerial;
  if (name == "occ") return SchemeKind::kOcc;
  if (name == "cg") return SchemeKind::kCg;
  if (name == "nezha") return SchemeKind::kNezha;
  if (name == "nezha-noreorder") return SchemeKind::kNezhaNoReorder;
  return Status::InvalidArgument("unknown scheme: " + std::string(name));
}

FullNode::FullNode(const NodeConfig& config, KVStore* kv)
    : config_(config),
      kv_(kv),
      ledger_(config.max_chains, kv),
      state_(kv),
      pool_(std::make_unique<ThreadPool>(config.worker_threads)),
      scheduler_(MakeScheduler(config.scheme, pool_.get())),
      receipts_(kv) {}

namespace {

/// One epoch's recorders, opened in one place and closed in one place on
/// every return path of ProcessEpoch: the flight-recorder label, the
/// determinism-checkpoint epoch, the transaction-lifecycle epoch and the
/// profiler window. Close(&report) hands a completed epoch's latency
/// summary and profile to its report; an epoch that fails is closed by the
/// destructor, which discards its windows so it publishes nothing.
class EpochRecorders {
 public:
  EpochRecorders(const NodeConfig& config, const EpochBatch& batch,
                 std::size_t workers) {
    const char* scheme = SchemeName(config.scheme);
    obs::FlightRecorder::Global().SetCurrentEpoch(batch.epoch);
    analysis::DetCheckpointRecorder::Global().BeginEpoch(batch.epoch, scheme);
    // Lifecycle: key every transaction, claim its mempool ingress stamps,
    // and stamp kConfirmed (the batch reaching the pipeline IS the epoch's
    // DAG confirmation — SealEpoch happened just before ProcessEpoch).
    if (obs::TxLifecycleTracer& lifecycle = obs::Lifecycle();
        lifecycle.enabled()) {
      std::vector<std::uint64_t> keys;
      keys.reserve(batch.txs.size());
      for (const Transaction& tx : batch.txs) keys.push_back(LifecycleKey(tx));
      lifecycle.BeginEpoch(batch.epoch, scheme, keys);
      lifecycle.StampAll(obs::TxStage::kConfirmed);
    }
    obs::Profiler().BeginEpoch(batch.epoch, scheme, workers);
  }
  ~EpochRecorders() { Close(nullptr); }

  EpochRecorders(const EpochRecorders&) = delete;
  EpochRecorders& operator=(const EpochRecorders&) = delete;

  /// Closes the checkpoint epoch, the lifecycle epoch and the profiler
  /// window (once). `report` is null for an epoch that failed.
  void Close(EpochReport* report) {
    if (closed_) return;
    closed_ = true;
    analysis::DetCheckpointRecorder::Global().EndEpoch();
    if (report == nullptr) {
      obs::Lifecycle().DiscardEpoch();
      obs::Profiler().DiscardEpoch();
      return;
    }
    report->latency = obs::Lifecycle().FinishEpoch();
    report->profile = obs::Profiler().FinishEpoch();
  }

 private:
  bool closed_ = false;
};

/// Mirrors one finished EpochReport into the global metrics registry so
/// dashboards see what the report structs see (docs/OBSERVABILITY.md).
void PublishEpochObs(const NodeConfig& config, const EpochReport& report) {
  if (!obs::MetricsEnabled()) return;
  auto& registry = obs::Registry();
  const std::string scheme = SchemeName(config.scheme);
  const obs::Labels by_scheme = {{"scheme", scheme}};

  const auto observe_phase = [&](const char* phase, double ms) {
    registry
        .GetHistogram("nezha_node_phase_ms",
                      {{"scheme", scheme}, {"phase", phase}},
                      obs::DefaultLatencyBoundsMs())
        ->Observe(ms);
  };
  observe_phase("validate", report.validate_ms);
  observe_phase("execute", report.execute_ms);
  observe_phase("cc", report.cc_ms);
  observe_phase("commit", report.commit_ms);
  registry
      .GetHistogram("nezha_node_epoch_total_ms", by_scheme,
                    obs::DefaultLatencyBoundsMs())
      ->Observe(report.TotalMs());

  registry.GetCounter("nezha_node_epochs_total", by_scheme)->Inc();
  registry.GetCounter("nezha_node_txs_total", by_scheme)->Inc(report.txs);
  registry.GetCounter("nezha_node_committed_total", by_scheme)
      ->Inc(report.committed);
  registry.GetCounter("nezha_node_aborted_total", by_scheme)
      ->Inc(report.aborted);
  registry.GetGauge("nezha_node_last_epoch", by_scheme)
      ->Set(static_cast<std::int64_t>(report.epoch));
  registry.GetGauge("nezha_node_block_concurrency", by_scheme)
      ->Set(static_cast<std::int64_t>(report.block_concurrency));
  registry.GetGauge("nezha_node_max_commit_group", by_scheme)
      ->Set(static_cast<std::int64_t>(report.max_commit_group));
}

/// Leaves one flight-recorder record behind for a finished epoch
/// (docs/OBSERVABILITY.md flight-recorder schema).
void RecordEpochFlight(const NodeConfig& config, const EpochReport& report,
                       std::size_t blocks,
                       obs::ScheduleAttribution attribution,
                       const ParallelExecStats* exec_stats) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  if (!recorder.enabled()) return;
  obs::EpochFlightRecord record;
  if (exec_stats != nullptr) {
    record.parallel_exec_groups =
        static_cast<std::uint32_t>(exec_stats->groups);
    record.parallel_max_group =
        static_cast<std::uint32_t>(exec_stats->max_group);
  }
  // Zero for every scheme but Nezha, which reports what its build used.
  record.parallel_acg_shards =
      static_cast<std::uint32_t>(report.cc_metrics.acg_shards);
  record.parallel_sort_clusters =
      static_cast<std::uint32_t>(report.cc_metrics.sort_clusters);
  record.epoch = report.epoch;
  record.scheme = SchemeName(config.scheme);
  record.blocks = static_cast<std::uint32_t>(blocks);
  record.txs = static_cast<std::uint32_t>(report.txs);
  record.committed = static_cast<std::uint32_t>(report.committed);
  record.aborted = static_cast<std::uint32_t>(report.aborted);
  record.validate_ms = report.validate_ms;
  record.execute_ms = report.execute_ms;
  record.cc_ms = report.cc_ms;
  record.commit_ms = report.commit_ms;
  record.acg_vertices = report.cc_metrics.graph_vertices;
  record.acg_edges = report.cc_metrics.graph_edges;
  record.attribution = std::move(attribution);
  record.latency = report.latency;
  record.profile = report.profile;
  recorder.Record(std::move(record));
}

/// Records the kCommit determinism checkpoint: epoch id, the two roots the
/// epoch commits to, and a digest of the serialized commit batch (the exact
/// bytes handed to the KVStore). The batch digest is what catches byte-level
/// nondeterminism in the durable write path — e.g. dirty-set iteration order
/// leaking into record order. `commit_batch` is null when no KV store is
/// attached (in-memory commit: only the roots are checkable).
void RecordCommitCheckpoint(EpochId epoch, const EpochReport& report,
                            const WriteBatch* commit_batch) {
  analysis::DetCheckpointRecorder& det =
      analysis::DetCheckpointRecorder::Global();
  if (!det.enabled()) return;
  std::string canonical;
  canonical.reserve(256);
  canonical += "commit epoch=";
  AppendU64(canonical, static_cast<std::uint64_t>(epoch));
  canonical += '\n';
  canonical += "state_root=" + report.state_root.ToHex() + "\n";
  canonical += "receipt_root=" + report.receipt_root.ToHex() + "\n";
  if (commit_batch != nullptr) {
    canonical += "batch records=";
    AppendU64(canonical, commit_batch->Count());
    canonical += " bytes=";
    AppendU64(canonical, commit_batch->ByteSize());
    canonical += '\n';
    canonical +=
        "batch_digest=" + Sha256::Digest(commit_batch->Serialize()).ToHex() +
        "\n";
  } else {
    canonical += "batch=none\n";
  }
  det.Record(analysis::DetStage::kCommit, canonical);
}

/// Serial's execute-and-commit loop: executes each transaction against the
/// live state before the next one runs — what today's DAG-based blockchains
/// do after consensus. The live state is one snapshot plus an overlay of
/// every earlier write, so no transaction re-snapshots the whole state; the
/// overlay's final values reach the StateDB as one batch.
void ExecuteSerially(StateDB& state, const EpochBatch& batch, ExecMode mode,
                     EpochReport& report) {
  const StateSnapshot base = state.MakeSnapshot(batch.epoch);
  LoggedStateView::Overlay overlay;
  obs::TxLifecycleTracer& lifecycle = obs::Lifecycle();
  for (std::size_t t = 0; t < batch.txs.size(); ++t) {
    const Transaction& tx = batch.txs[t];
    LoggedStateView view(base, &overlay);
    if (!ExecuteTransaction(tx, view, mode).ok()) {
      ++report.aborted;  // malformed transaction: skipped
      lifecycle.MarkAborted(
          static_cast<std::uint32_t>(t),
          static_cast<std::uint8_t>(obs::ConflictKind::kReverted));
      continue;
    }
    ReadWriteSet rw = view.TakeRWSet();
    for (std::size_t i = 0; i < rw.writes.size(); ++i) {
      overlay[rw.writes[i].value] = rw.write_values[i];
    }
    ++report.committed;
    lifecycle.StampTx(static_cast<std::uint32_t>(t), obs::TxStage::kExecuted);
  }
  const std::vector<StateWrite> writes = SortedWrites(overlay);
  state.ApplyWrites(writes);

  // Serial has no scheduler stages; its kExecute checkpoint is the overlay
  // of all committed writes, in ascending address order.
  analysis::DetCheckpointRecorder& det =
      analysis::DetCheckpointRecorder::Global();
  if (!det.enabled()) return;
  std::string canonical;
  canonical.reserve(64 + writes.size() * 24);
  canonical += "exec serial txs=";
  AppendU64(canonical, batch.txs.size());
  canonical += " committed=";
  AppendU64(canonical, report.committed);
  canonical += " addrs=";
  AppendU64(canonical, writes.size());
  canonical += '\n';
  for (const StateWrite& w : writes) {
    canonical += "w ";
    AppendU64(canonical, w.address.value);
    canonical += '=';
    AppendI64(canonical, static_cast<std::int64_t>(w.value));
    canonical += '\n';
  }
  det.Record(analysis::DetStage::kExecute, canonical);
}

}  // namespace

Result<EpochReport> FullNode::ProcessEpoch(const EpochBatch& batch) {
  const bool serial = config_.scheme == SchemeKind::kSerial;
  EpochRecorders recorders(config_, batch, pool_->size());
  EpochReport report;
  report.epoch = batch.epoch;
  report.block_concurrency = batch.BlockConcurrency();
  report.txs = batch.TxCount();

  // Each phase is one obs::Stage: its Stop() is the report's phase time and
  // the same interval the profile and the Chrome trace show.
  // ---- Phase 1: validation ----
  {
    obs::Stage stage("validate");
    for (const Block& block : batch.blocks) {
      // Blocks already appended to the ledger were validated on the way in;
      // re-check the semantic parts that depend on the current state.
      if (block.header.prev_state_root !=
          ledger_.StateRootBefore(batch.epoch)) {
        return Status::InvalidArgument("block state root does not match epoch");
      }
      if (block.header.tx_root != ComputeTxMerkleRoot(block.transactions)) {
        return Status::InvalidArgument("block tx merkle root mismatch");
      }
    }
    report.validate_ms = stage.Stop() / 1000.0;
  }

  StateSnapshot snapshot;
  BatchExecutionResult exec;
  Schedule schedule;
  std::vector<Receipt> receipts;  // none for Serial: no aborts to attest
  if (!serial) {
    // ---- Phase 2: concurrent speculative execution ----
    {
      obs::Stage stage("execute");
      snapshot = state_.MakeSnapshot(batch.epoch);
      exec = ExecuteBatchConcurrent(*pool_, snapshot, batch.txs,
                                    config_.exec_mode);
      report.execute_ms = stage.Stop() / 1000.0;
    }
    if (config_.model_execution_cost) {
      report.execute_ms =
          config_.cost_model.ConcurrentExecuteLatencyMs(batch.TxCount());
    }

    // ---- Phase 3: concurrency control ----
    {
      obs::Stage stage("cc");
      Result<Schedule> built = scheduler_->BuildSchedule(exec.rwsets);
      if (!built.ok()) return built.status();
      report.cc_ms = stage.Stop() / 1000.0;
      schedule = std::move(built.value());
    }
    report.cc_metrics = scheduler_->metrics();
    // Receipts are a pure function of the batch, the rwsets and the
    // schedule; the commit phase flushes them in the same atomic batch as
    // the state.
    receipts = BuildReceipts(batch.epoch, batch.txs, exec.rwsets, schedule);
    report.receipt_root = ComputeReceiptRoot(receipts);
  }

  // ---- Phase 4: commitment ----
  ParallelExecStats group_stats;
  {
    obs::Stage stage(serial ? "serial_execute_commit" : "commit");
    if (serial) {
      ExecuteSerially(state_, batch, config_.exec_mode, report);
    } else {
      // Group-parallel executor: merges the schedule's effects into a write
      // buffer in sequence order and applies it across the pool —
      // byte-identical to serial replay of the commit groups
      // (docs/PARALLELISM.md).
      group_stats = ExecuteScheduleParallel(*pool_, state_, snapshot,
                                            schedule, exec.rwsets);
      report.committed = group_stats.committed_txs;
      report.aborted = schedule.NumAborted();
      report.max_commit_group = group_stats.max_group;
    }
    report.state_root = state_.RootHash();
    if (Status s = CommitEpochDurable(batch, report, receipts); !s.ok()) {
      return s;
    }
    obs::Lifecycle().StampAll(obs::TxStage::kCommitted);
    report.commit_ms = stage.Stop() / 1000.0;
  }
  if (serial && config_.model_execution_cost) {
    report.commit_ms = 0;
    report.execute_ms = config_.cost_model.SerialLatencyMs(batch.TxCount());
  }
  recorders.Close(&report);

  PublishEpochObs(config_, report);
  RecordEpochFlight(config_, report, batch.blocks.size(),
                    std::move(schedule.attribution),
                    serial ? nullptr : &group_stats);
  return report;
}

Status FullNode::CommitEpochDurable(const EpochBatch& batch,
                                    EpochReport& report,
                                    std::span<const Receipt> receipts) {
  obs::Stage stage("durable_commit");
  if (const fault::Hit hit = fault::Check(fault::sites::kCommitBeforeJournal);
      hit.fired()) {
    if (hit.action == fault::Action::kCrash) {
      return fault::CrashStatus(fault::sites::kCommitBeforeJournal);
    }
    return Status::Unavailable("fault: commit rejected before journal");
  }
  if (kv_ == nullptr) {
    // No persistence attached: Flush() still clears the dirty markers;
    // nothing can tear.
    if (Status s = state_.Flush(); !s.ok()) return s;
    ledger_.CommitEpochRootLocal(batch.epoch, report.state_root);
    RecordCommitCheckpoint(batch.epoch, report, nullptr);
    return Status::Ok();
  }

  // Assemble the entire epoch commit as ONE WriteBatch: state records,
  // receipts, the epoch root, the "j/last" journal header, and the delete
  // of the pending slot. Applied atomically, a reader (or a restarted
  // node) sees all of it or none of it.
  WriteBatch commit_batch;
  state_.AppendDirtyTo(commit_batch);
  ReceiptStore::AppendTo(commit_batch, receipts);
  const auto [root_key, root_value] =
      ParallelChainLedger::EpochRootRecord(batch.epoch, report.state_root);
  commit_batch.Put(root_key, root_value);

  CommitJournal journal;
  journal.epoch = batch.epoch;
  journal.state_root = report.state_root;
  journal.receipt_root = report.receipt_root;
  journal.block_ids.reserve(batch.blocks.size());
  for (const Block& block : batch.blocks) {
    journal.block_ids.push_back(block.Hash());
  }
  for (ChainId chain = 0; chain < ledger_.num_chains(); ++chain) {
    journal.chain_tips.emplace_back(chain, ledger_.ChainTip(chain));
  }
  commit_batch.Put(kLastJournalKey, journal.Header().Serialize());
  commit_batch.Delete(kPendingJournalKey);
  // The redo payload IS the commit batch: recovery re-applies it verbatim
  // to roll a torn or missing commit forward.
  journal.redo = commit_batch.Serialize();

  // Step 1 — write-ahead: the pending journal, a single-key put (atomic by
  // the KVStore contract even under injected tears).
  if (Status s = kv_->Put(kPendingJournalKey, journal.Serialize()); !s.ok()) {
    return s;
  }
  if (const fault::Hit hit = fault::Check(fault::sites::kCommitAfterJournal);
      hit.fired()) {
    if (hit.action == fault::Action::kCrash) {
      return fault::CrashStatus(fault::sites::kCommitAfterJournal);
    }
    return Status::Unavailable("fault: commit interrupted after journal");
  }
  if (const fault::Hit hit = fault::Check(fault::sites::kCommitBeforeFlush);
      hit.fired()) {
    if (hit.action == fault::Action::kCrash) {
      return fault::CrashStatus(fault::sites::kCommitBeforeFlush);
    }
    return Status::Unavailable("fault: commit interrupted before flush");
  }
  // Step 2 — the atomic commit batch (the kvstore/write site can fail,
  // tear, or crash it; the journal repairs all three).
  if (Status s = kv_->Write(commit_batch); !s.ok()) return s;
  state_.ClearDirty();
  ledger_.CommitEpochRootLocal(batch.epoch, report.state_root);
  RecordCommitCheckpoint(batch.epoch, report, &commit_batch);
  if (obs::MetricsEnabled()) {
    auto& registry = obs::Registry();
    registry.GetCounter("nezha_commit_journal_writes_total")->Inc();
    registry.GetCounter("nezha_commit_batch_records_total")
        ->Inc(commit_batch.Count());
    registry.GetCounter("nezha_commit_batch_bytes_total")
        ->Inc(commit_batch.ByteSize());
  }
  if (const fault::Hit hit = fault::Check(fault::sites::kCommitAfterFlush);
      hit.action == fault::Action::kCrash) {
    return fault::CrashStatus(fault::sites::kCommitAfterFlush);
  }
  return Status::Ok();
}

Result<FullNode::RecoveryReport> FullNode::Recover() {
  if (kv_ == nullptr) return Status::InvalidArgument("no KV store attached");
  RecoveryReport recovery;
  // Corruption discovered during recovery is exactly what the flight
  // recorder exists for: dump whatever epochs it still holds before failing.
  const auto corrupt = [](std::string message) {
    obs::FlightRecorder::Global().DumpPostMortem("recovery-corruption");
    return Status::Corruption(std::move(message));
  };
  // Step 1 — a pending journal means the node died with a commit in flight.
  // Re-applying its redo batch is idempotent (pure overwrites), so a torn,
  // partial, or entirely missing commit batch all converge to the fully
  // committed store. The redo batch ends by installing "j/last" and
  // deleting the pending slot.
  if (auto pending = kv_->Get(kPendingJournalKey); pending.ok()) {
    auto journal = CommitJournal::Deserialize(*pending);
    if (!journal.ok()) {
      // The pending slot is written in one atomic put, so bad contents are
      // bit rot, not a tear — nothing trustworthy to roll forward from.
      return corrupt("pending commit journal is corrupt: " +
                                journal.status().message());
    }
    WriteBatch redo;
    if (!WriteBatch::Deserialize(journal->redo, &redo)) {
      return corrupt("pending commit journal redo does not parse");
    }
    if (Status s = kv_->Write(redo); !s.ok()) return s;
    recovery.rolled_forward = true;
    obs::Registry()
        .GetCounter("nezha_recovery_total", {{"outcome", "rolled_forward"}})
        ->Inc();
    obs::FlightRecorder::Global().DumpPostMortem("recovery-rolled-forward");
  }
  // Step 2 — rebuild the ledger (with full block re-validation) and the
  // state from storage.
  if (Status s = ledger_.LoadFromStorage(); !s.ok()) return s;
  if (Status s = state_.LoadFromStorage(); !s.ok()) return s;
  recovery.state_root = state_.RootHash();
  // Step 3 — the recovered state must hash to the last committed epoch
  // root (StateRootBefore of any future epoch is the newest root).
  const Hash256 expected =
      ledger_.StateRootBefore(std::numeric_limits<EpochId>::max());
  if (!expected.IsZero() && recovery.state_root != expected) {
    return corrupt(
        "recovered state root does not match the last epoch root");
  }
  // Step 4 — cross-check the commit journal against the recovered ledger:
  // its epoch must be the newest committed one, its roots must match, and
  // its block ids and chain tips must all still be in the ledger (tips may
  // have been extended by appends the crash cut short, but never replaced).
  if (auto last = kv_->Get(kLastJournalKey); last.ok()) {
    auto journal = CommitJournal::Deserialize(*last);
    if (!journal.ok()) {
      return corrupt("commit journal is corrupt: " +
                                journal.status().message());
    }
    recovery.last_committed = journal->epoch;
    recovery.receipt_root = journal->receipt_root;
    if (!ledger_.HasCommittedRoot() ||
        journal->epoch != ledger_.LastCommittedEpoch()) {
      return corrupt("commit journal epoch disagrees with ledger");
    }
    if (journal->state_root != expected) {
      return corrupt(
          "commit journal state root disagrees with epoch root");
    }
    for (const Hash256& id : journal->block_ids) {
      if (!ledger_.ContainsBlock(id)) {
        return corrupt("journaled block missing from ledger");
      }
    }
    for (const auto& [chain, tip] : journal->chain_tips) {
      if (!tip.IsZero() && !ledger_.ChainContains(chain, tip)) {
        return corrupt(
            "journaled chain tip missing from recovered chain " +
            std::to_string(chain));
      }
    }
  }
  if (!recovery.rolled_forward) {
    obs::Registry()
        .GetCounter("nezha_recovery_total", {{"outcome", "clean"}})
        ->Inc();
  }
  return recovery;
}

}  // namespace nezha
