// DeferredExecutionPipeline: the shared post-consensus execution engine
// behind the three DAG bridges (OHIE rank windows, Conflux-style epochs and
// DAG-Rider wave batches).
//
// Execution after consensus runs along the node's one path (Fig. 2b): each
// non-empty batch becomes one block of a fresh epoch on the pipeline's own
// FullNode — BuildBlock -> AppendBlock -> SealEpoch -> ProcessEpoch, the
// calls RunSimulation makes — so the bridges get the same validation,
// scheduling, group-parallel commitment, receipts and observability as
// every other epoch. What the pipeline adds is the bridges' batch
// bookkeeping: transactions are deduplicated across batches (first
// confirmed appearance wins, §III.B), every batch consumes one epoch id,
// and a batch left empty by deduplication executes nothing.
#pragma once

#include <unordered_set>
#include <vector>

#include "node/full_node.h"

namespace nezha {

struct DeferredExecConfig {
  SchemeKind scheme = SchemeKind::kNezha;
  std::size_t worker_threads = 0;
  ExecMode exec_mode = ExecMode::kNative;
};

class DeferredExecutionPipeline {
 public:
  explicit DeferredExecutionPipeline(const DeferredExecConfig& config);

  StateDB& state() { return node_.state(); }

  /// Executes one batch (already in its protocol-defined order); duplicates
  /// of transactions seen in earlier batches are dropped before execution.
  /// The batch travels as one block, so a batch with more fresh
  /// transactions than the ledger's block admission cap fails.
  Result<EpochReport> ProcessBatch(const std::vector<Transaction>& txs);

 private:
  FullNode node_;
  EpochId next_epoch_ = 1;
  std::unordered_set<Hash256> seen_txs_;
};

}  // namespace nezha
