// ParallelChainLedger: an OHIE-style DAG ledger simulator.
//
// The paper evaluates Nezha on OHIE, which runs k parallel Nakamoto chain
// instances and confirms blocks in batches. This simulator reproduces the
// structural properties the transaction-processing layer depends on:
//
//  * k independent chains, each a hash-linked block sequence;
//  * per epoch, up to k concurrent valid blocks (the block concurrency ω_e),
//    delivered in a deterministic total order (by chain id);
//  * every block carries the state root of the previous epoch, which
//    validation checks (the paper's "Validation phase");
//  * block data optionally persisted to the KVStore.
//
// Mining/network behaviour is out of scope: all reported measurements in the
// paper are taken after consensus, on the full node (see DESIGN.md §4).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "ledger/block.h"
#include "ledger/epoch.h"
#include "storage/kvstore.h"

namespace nezha {

class ParallelChainLedger {
 public:
  /// num_chains: the maximum block concurrency (12 in the paper's setup).
  explicit ParallelChainLedger(ChainId num_chains, KVStore* kv = nullptr);

  ChainId num_chains() const { return num_chains_; }

  /// State root recorded for epoch e (set by CommitEpochRoot). The genesis
  /// root (epoch "-1", i.e. before epoch 0) is the empty-state root.
  Hash256 StateRootBefore(EpochId epoch) const;

  /// Records the post-commit state root of epoch e (persisted to the
  /// KVStore when one is attached, for crash recovery).
  void CommitEpochRoot(EpochId epoch, const Hash256& root);

  /// The KV key/value encoding of one epoch-root record — exposed so
  /// FullNode can fold the root write into its atomic epoch-commit batch
  /// instead of issuing a separate (crash-tearable) Put.
  static std::pair<std::string, std::string> EpochRootRecord(
      EpochId epoch, const Hash256& root);

  /// Records the root in memory only; storage is the caller's business
  /// (used together with EpochRootRecord in the atomic commit path).
  void CommitEpochRootLocal(EpochId epoch, const Hash256& root);

  /// Newest epoch with a committed root (0 when none committed yet; check
  /// HasCommittedRoot to disambiguate a real epoch 0).
  EpochId LastCommittedEpoch() const;
  bool HasCommittedRoot() const { return !epoch_roots_.empty(); }

  /// Rebuilds the ledger (epoch roots + all chains) from the attached
  /// KVStore, re-validating every block on the way in. The ledger must be
  /// freshly constructed (empty chains).
  Status LoadFromStorage();

  /// Height of the tip on `chain` (number of blocks appended so far).
  BlockHeight ChainHeight(ChainId chain) const;

  /// Hash of the tip block on `chain` (zero hash for an empty chain).
  Hash256 ChainTip(ChainId chain) const;

  /// True iff `hash` is a block on `chain`. Recovery cross-checks journaled
  /// tips with this: a tip recorded at commit time may legitimately have
  /// been extended by later appends, but must still be on its chain.
  bool ChainContains(ChainId chain, const Hash256& hash) const;

  /// True iff `hash` is a block on any chain.
  bool ContainsBlock(const Hash256& hash) const;

  /// Full structural + semantic validation of a proposed block:
  /// chain id in range, height/parent linkage, epoch monotonicity,
  /// prev_state_root matches the recorded root, tx_root matches the body,
  /// no duplicate transaction ids, body within the admission cap.
  /// Rejections use the shared taxonomy (ledger/validation.h): the Status
  /// message is "reject/<reason>: ...", the nezha_invalid_block_total
  /// counter ticks, and a flight event is recorded.
  Status ValidateBlock(const Block& block) const;

  /// Admission cap on transactions per block (satellite of the Byzantine
  /// hardening: an adversary must not be able to stuff an unbounded body).
  void SetMaxBlockTxs(std::size_t max_txs) { max_block_txs_ = max_txs; }
  std::size_t max_block_txs() const { return max_block_txs_; }

  /// Validates and appends. Persists to the KVStore when one is attached.
  Status AppendBlock(Block block);

  /// Builds a valid next block for `chain` at `epoch` from the given
  /// transactions (fills in parent hash, height, roots).
  Block BuildBlock(ChainId chain, EpochId epoch,
                   std::vector<Transaction> txs) const;

  /// Collects all blocks appended with header.epoch == epoch, in chain-id
  /// order, flattened into an EpochBatch. Error if no blocks exist.
  Result<EpochBatch> SealEpoch(EpochId epoch) const;

  /// Reloads a block from the KVStore (testing persistence round-trips).
  Result<Block> LoadBlock(ChainId chain, BlockHeight height) const;

  std::size_t TotalBlocks() const;

 private:
  static std::string BlockKey(ChainId chain, BlockHeight height);

  ChainId num_chains_;
  KVStore* kv_;
  std::size_t max_block_txs_ = 65'536;
  std::vector<std::vector<Block>> chains_;
  std::vector<std::pair<EpochId, Hash256>> epoch_roots_;  // append-only
};

}  // namespace nezha
