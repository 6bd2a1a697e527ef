#include "node/deferred_executor.h"

namespace nezha {
namespace {

NodeConfig ToNodeConfig(const DeferredExecConfig& config) {
  NodeConfig node;
  node.scheme = config.scheme;
  node.max_chains = 1;  // one block per batch, all on chain 0
  node.worker_threads = config.worker_threads;
  node.exec_mode = config.exec_mode;
  return node;
}

}  // namespace

DeferredExecutionPipeline::DeferredExecutionPipeline(
    const DeferredExecConfig& config)
    : node_(ToNodeConfig(config)) {}

Result<EpochReport> DeferredExecutionPipeline::ProcessBatch(
    const std::vector<Transaction>& txs) {
  const EpochId epoch = next_epoch_++;
  std::vector<Transaction> fresh;
  fresh.reserve(txs.size());
  for (const Transaction& tx : txs) {
    if (seen_txs_.insert(tx.Id()).second) fresh.push_back(tx);
  }
  if (fresh.empty()) {
    EpochReport report;
    report.epoch = epoch;
    report.state_root = node_.state().RootHash();
    return report;
  }

  ParallelChainLedger& ledger = node_.ledger();
  Block block = ledger.BuildBlock(0, epoch, std::move(fresh));
  if (Status s = ledger.AppendBlock(std::move(block)); !s.ok()) return s;
  auto batch = ledger.SealEpoch(epoch);
  if (!batch.ok()) return batch.status();
  return node_.ProcessEpoch(batch.value());
}

}  // namespace nezha
