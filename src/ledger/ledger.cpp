#include "ledger/ledger.h"

#include <algorithm>

#include "common/bytes.h"
#include "fault/fault.h"
#include "ledger/validation.h"

namespace nezha {

ParallelChainLedger::ParallelChainLedger(ChainId num_chains, KVStore* kv)
    : num_chains_(num_chains), kv_(kv), chains_(num_chains) {}

Hash256 ParallelChainLedger::StateRootBefore(EpochId epoch) const {
  // The root "before epoch e" is the root committed for epoch e-1; walk the
  // recorded roots backwards to find the newest one older than `epoch`.
  Hash256 root{};  // empty-state root (all zero) before any commit
  for (const auto& [e, r] : epoch_roots_) {
    if (e < epoch) root = r;
  }
  return root;
}

void ParallelChainLedger::CommitEpochRoot(EpochId epoch, const Hash256& root) {
  CommitEpochRootLocal(epoch, root);
  if (kv_ != nullptr) {
    const auto [key, value] = EpochRootRecord(epoch, root);
    (void)kv_->Put(key, value);
  }
}

std::pair<std::string, std::string> ParallelChainLedger::EpochRootRecord(
    EpochId epoch, const Hash256& root) {
  std::string key = "r/";
  PutFixed64(key, epoch);
  return {std::move(key),
          std::string(reinterpret_cast<const char*>(root.bytes.data()), 32)};
}

void ParallelChainLedger::CommitEpochRootLocal(EpochId epoch,
                                               const Hash256& root) {
  epoch_roots_.emplace_back(epoch, root);
}

EpochId ParallelChainLedger::LastCommittedEpoch() const {
  EpochId last = 0;
  for (const auto& [epoch, root] : epoch_roots_) last = std::max(last, epoch);
  return last;
}

Status ParallelChainLedger::LoadFromStorage() {
  if (kv_ == nullptr) return Status::InvalidArgument("no KV store attached");
  if (TotalBlocks() != 0 || !epoch_roots_.empty()) {
    return Status::InvalidArgument("ledger is not empty");
  }
  // Epoch roots first (block validation checks prev_state_root against
  // them). Keys are big-endian, so iteration order is epoch order.
  for (auto it = kv_->NewIterator("r/", "r0"); it.Valid(); it.Next()) {
    if (it.value().size() != 32) {
      return Status::Corruption("bad epoch root record");
    }
    const EpochId epoch = GetFixed64(std::string_view(it.key()).substr(2));
    Hash256 root;
    for (int i = 0; i < 32; ++i) {
      root.bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(it.value()[static_cast<std::size_t>(i)]);
    }
    epoch_roots_.emplace_back(epoch, root);
  }
  // Blocks: keys order as (chain, height) ascending — exactly the order in
  // which re-validation succeeds chain by chain. Everything is fully
  // re-validated; a corrupted record fails the recovery.
  for (auto it = kv_->NewIterator("b/", "b0"); it.Valid(); it.Next()) {
    auto block = Block::Deserialize(it.value());
    if (!block.ok()) return block.status();
    // AppendBlock would redundantly re-persist; validate and attach.
    if (Status s = ValidateBlock(block.value()); !s.ok()) return s;
    chains_[block->header.chain].push_back(std::move(block.value()));
  }
  return Status::Ok();
}

BlockHeight ParallelChainLedger::ChainHeight(ChainId chain) const {
  return chains_[chain].size();
}

Hash256 ParallelChainLedger::ChainTip(ChainId chain) const {
  const auto& c = chains_[chain];
  return c.empty() ? Hash256{} : c.back().Hash();
}

bool ParallelChainLedger::ChainContains(ChainId chain,
                                        const Hash256& hash) const {
  if (chain >= num_chains_) return false;
  for (const Block& block : chains_[chain]) {
    if (block.Hash() == hash) return true;
  }
  return false;
}

bool ParallelChainLedger::ContainsBlock(const Hash256& hash) const {
  for (ChainId chain = 0; chain < num_chains_; ++chain) {
    if (ChainContains(chain, hash)) return true;
  }
  return false;
}

Status ParallelChainLedger::ValidateBlock(const Block& block) const {
  using ledger::RejectBlock;
  using ledger::RejectReason;
  constexpr std::string_view kComponent = "ledger";
  const BlockHeader& h = block.header;
  if (h.chain >= num_chains_) {
    return RejectBlock(kComponent, RejectReason::kChainOutOfRange,
                       "chain " + std::to_string(h.chain) + " >= " +
                           std::to_string(num_chains_));
  }
  const auto& chain = chains_[h.chain];
  if (h.height != chain.size()) {
    return RejectBlock(kComponent, RejectReason::kBadHeight,
                       "height " + std::to_string(h.height) + ", expected " +
                           std::to_string(chain.size()));
  }
  const Hash256 expected_parent =
      chain.empty() ? Hash256{} : chain.back().Hash();
  if (h.parent_hash != expected_parent) {
    return RejectBlock(kComponent, RejectReason::kBadParent,
                       "parent hash does not match the chain tip");
  }
  if (!chain.empty() && h.epoch <= chain.back().header.epoch) {
    return RejectBlock(kComponent, RejectReason::kEpochRegression,
                       "epoch " + std::to_string(h.epoch) +
                           " does not advance past " +
                           std::to_string(chain.back().header.epoch));
  }
  // The paper's validation phase: the state root in the block must match
  // the local state of the previous epoch; otherwise the block is discarded.
  if (h.prev_state_root != StateRootBefore(h.epoch)) {
    return RejectBlock(kComponent, RejectReason::kBadStateRoot,
                       "previous state root mismatch at epoch " +
                           std::to_string(h.epoch));
  }
  if (block.transactions.size() > max_block_txs_) {
    return RejectBlock(kComponent, RejectReason::kOversize,
                       std::to_string(block.transactions.size()) +
                           " txs exceed the cap of " +
                           std::to_string(max_block_txs_));
  }
  if (h.tx_root != ComputeTxMerkleRoot(block.transactions)) {
    return RejectBlock(kComponent, RejectReason::kBadTxRoot,
                       "transaction merkle root does not cover the body");
  }
  if (ledger::HasDuplicateTxIds(block.transactions)) {
    return RejectBlock(kComponent, RejectReason::kDuplicateTx,
                       "transaction id appears twice in one block");
  }
  return Status::Ok();
}

Status ParallelChainLedger::AppendBlock(Block block) {
  if (Status s = ValidateBlock(block); !s.ok()) return s;
  // Injection site: param 0 crashes before the block is persisted (block
  // lost), param 1 crashes after (block durable but never attached in
  // memory — recovery must pick it up from storage).
  const fault::Hit hit = fault::Check(fault::sites::kLedgerAppend);
  if (hit.action == fault::Action::kFail) {
    return Status::Unavailable("fault: block append rejected");
  }
  if (hit.action == fault::Action::kCrash && hit.param == 0) {
    return fault::CrashStatus(fault::sites::kLedgerAppend);
  }
  if (kv_ != nullptr) {
    const Status s = kv_->Put(BlockKey(block.header.chain, block.header.height),
                              block.Serialize());
    if (!s.ok()) return s;
  }
  if (hit.action == fault::Action::kCrash) {
    return fault::CrashStatus(fault::sites::kLedgerAppend);
  }
  chains_[block.header.chain].push_back(std::move(block));
  return Status::Ok();
}

Block ParallelChainLedger::BuildBlock(ChainId chain, EpochId epoch,
                                      std::vector<Transaction> txs) const {
  Block block;
  block.header.chain = chain;
  block.header.epoch = epoch;
  block.header.height = ChainHeight(chain);
  block.header.parent_hash = ChainTip(chain);
  block.header.prev_state_root = StateRootBefore(epoch);
  block.header.tx_root = ComputeTxMerkleRoot(txs);
  block.header.proposer = chain;  // one miner per chain in the simulator
  block.transactions = std::move(txs);
  return block;
}

Result<EpochBatch> ParallelChainLedger::SealEpoch(EpochId epoch) const {
  std::vector<Block> blocks;
  for (const auto& chain : chains_) {
    for (const Block& block : chain) {
      if (block.header.epoch == epoch) blocks.push_back(block);
    }
  }
  if (blocks.empty()) {
    return Status::NotFound("no blocks in epoch");
  }
  std::sort(blocks.begin(), blocks.end(), [](const Block& a, const Block& b) {
    return a.header.chain < b.header.chain;
  });
  return EpochBatch::FromBlocks(epoch, std::move(blocks));
}

std::string ParallelChainLedger::BlockKey(ChainId chain, BlockHeight height) {
  std::string key = "b/";
  PutFixed32(key, chain);
  key.push_back('/');
  PutFixed64(key, height);
  return key;
}

Result<Block> ParallelChainLedger::LoadBlock(ChainId chain,
                                             BlockHeight height) const {
  if (kv_ == nullptr) return Status::InvalidArgument("no KV store attached");
  auto bytes = kv_->Get(BlockKey(chain, height));
  if (!bytes.ok()) return bytes.status();
  return Block::Deserialize(bytes.value());
}

std::size_t ParallelChainLedger::TotalBlocks() const {
  std::size_t total = 0;
  for (const auto& chain : chains_) total += chain.size();
  return total;
}

}  // namespace nezha
