#include "consensus/treegraph.h"

#include <algorithm>

#include "common/bytes.h"
#include "ledger/validation.h"

namespace nezha {

std::string TGBlock::HashPreimage() const {
  std::string out;
  PutVarint64(out, miner);
  PutVarint64(out, mine_counter);
  out.append(reinterpret_cast<const char*>(parent.bytes.data()), 32);
  PutVarint64(out, references.size());
  for (const Hash256& ref : references) {
    out.append(reinterpret_cast<const char*>(ref.bytes.data()), 32);
  }
  out.append(reinterpret_cast<const char*>(tx_root.bytes.data()), 32);
  return out;
}

void TGBlock::Seal() { hash = Sha256::Digest(HashPreimage()); }

namespace {

bool ReadHash256(std::string_view data, std::size_t* offset, Hash256* out) {
  if (*offset + 32 > data.size()) return false;
  for (int b = 0; b < 32; ++b) {
    out->bytes[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(
        data[*offset + static_cast<std::size_t>(b)]);
  }
  *offset += 32;
  return true;
}

}  // namespace

std::string TGBlock::Serialize() const {
  std::string out = HashPreimage();
  PutVarint64(out, txs.size());
  for (const Transaction& tx : txs) {
    const std::string tx_bytes = tx.Serialize();
    PutVarint64(out, tx_bytes.size());
    out += tx_bytes;
  }
  return out;
}

Result<TGBlock> TGBlock::Deserialize(std::string_view data) {
  TGBlock block;
  std::size_t offset = 0;
  std::uint64_t miner = 0;
  if (!GetVarint64(data, &offset, &miner) ||
      !GetVarint64(data, &offset, &block.mine_counter)) {
    return Status::Corruption("truncated tree-graph block header");
  }
  block.miner = static_cast<NodeId>(miner);
  if (!ReadHash256(data, &offset, &block.parent)) {
    return Status::Corruption("truncated tree-graph parent");
  }
  std::uint64_t num_refs = 0;
  if (!GetVarint64(data, &offset, &num_refs)) {
    return Status::Corruption("truncated tree-graph reference count");
  }
  if (num_refs > (data.size() - offset) / 32) {
    return Status::Corruption("tree-graph reference count exceeds its bytes");
  }
  block.references.resize(num_refs);
  for (std::uint64_t i = 0; i < num_refs; ++i) {
    if (!ReadHash256(data, &offset, &block.references[i])) {
      return Status::Corruption("truncated tree-graph references");
    }
  }
  if (!ReadHash256(data, &offset, &block.tx_root)) {
    return Status::Corruption("truncated tree-graph tx root");
  }
  std::uint64_t num_txs = 0;
  if (!GetVarint64(data, &offset, &num_txs)) {
    return Status::Corruption("truncated tree-graph tx count");
  }
  // Every transaction takes at least one byte (its length prefix).
  if (num_txs > data.size() - offset) {
    return Status::Corruption("tree-graph tx count exceeds its bytes");
  }
  block.txs.reserve(num_txs);
  for (std::uint64_t i = 0; i < num_txs; ++i) {
    std::uint64_t tx_len = 0;
    if (!GetVarint64(data, &offset, &tx_len) ||
        tx_len > data.size() - offset) {
      return Status::Corruption("truncated tree-graph tx");
    }
    auto tx = Transaction::Deserialize(data.substr(offset, tx_len));
    if (!tx.ok()) return tx.status();
    block.txs.push_back(std::move(tx.value()));
    offset += tx_len;
  }
  if (offset != data.size()) {
    return Status::Corruption("trailing bytes after tree-graph block");
  }
  block.Seal();  // recompute the hash; never trust the wire
  return block;
}

Hash256 TreeGraphGenesisHash() {
  return Sha256::Digest("treegraph-genesis");
}

TGBlock MakeTreeGraphGenesis() {
  TGBlock genesis;
  genesis.hash = TreeGraphGenesisHash();
  genesis.height = 0;
  return genesis;
}

TreeGraphView::TreeGraphView(NodeId id, std::size_t confirm_depth)
    : id_(id), confirm_depth_(confirm_depth) {
  auto genesis = std::make_unique<TGBlock>(MakeTreeGraphGenesis());
  subtree_weight_[genesis->hash] = 1;
  blocks_.emplace(genesis->hash, std::move(genesis));
}

std::vector<const TGBlock*> TreeGraphView::PivotChain() const {
  std::vector<const TGBlock*> chain;
  const TGBlock* current = blocks_.at(TreeGraphGenesisHash()).get();
  for (;;) {
    chain.push_back(current);
    const auto it = children_.find(current->hash);
    if (it == children_.end() || it->second.empty()) break;
    // GHOST: heaviest subtree wins; ties toward the smaller hash.
    const Hash256* best = nullptr;
    std::size_t best_weight = 0;
    for (const Hash256& child : it->second) {
      const std::size_t weight = subtree_weight_.at(child);
      if (best == nullptr || weight > best_weight ||
          (weight == best_weight && child < *best)) {
        best = &child;
        best_weight = weight;
      }
    }
    current = blocks_.at(*best).get();
  }
  return chain;
}

const TGBlock* TreeGraphView::PivotTip() const {
  return PivotChain().back();
}

std::vector<Hash256> TreeGraphView::LooseTips() const {
  const Hash256 pivot_tip = PivotTip()->hash;
  std::vector<Hash256> tips;
  for (const auto& [hash, block] : blocks_) {
    if (!referenced_.contains(hash) && hash != pivot_tip) {
      tips.push_back(hash);
    }
  }
  std::sort(tips.begin(), tips.end());
  return tips;
}

TGBlock TreeGraphView::PrepareBlock(std::uint64_t mine_counter,
                                    std::vector<Transaction> txs) const {
  TGBlock block;
  block.miner = id_;
  block.mine_counter = mine_counter;
  block.parent = PivotTip()->hash;
  block.references = LooseTips();
  block.tx_root = ComputeTxMerkleRoot(txs);
  block.txs = std::move(txs);
  return block;
}

std::optional<Hash256> TreeGraphView::MissingDependency(
    const TGBlock& block) const {
  if (!Knows(block.parent)) return block.parent;
  for (const Hash256& ref : block.references) {
    if (!Knows(ref)) return ref;
  }
  return std::nullopt;
}

Result<std::size_t> TreeGraphView::OnBlock(const TGBlock& block) {
  if (Knows(block.hash)) return std::size_t{0};
  if (const auto missing = MissingDependency(block); missing.has_value()) {
    orphans_[*missing].push_back(block);
    return std::size_t{0};
  }
  if (Status s = Attach(block); !s.ok()) return s;
  std::size_t attached = 1;

  std::vector<Hash256> ready = {block.hash};
  while (!ready.empty()) {
    const Hash256 parent = ready.back();
    ready.pop_back();
    const auto it = orphans_.find(parent);
    if (it == orphans_.end()) continue;
    std::vector<TGBlock> waiting = std::move(it->second);
    orphans_.erase(it);
    for (TGBlock& orphan : waiting) {
      if (Knows(orphan.hash)) continue;
      if (const auto missing = MissingDependency(orphan);
          missing.has_value()) {
        orphans_[*missing].push_back(std::move(orphan));
        continue;
      }
      if (Attach(orphan).ok()) {
        ++attached;
        ready.push_back(orphan.hash);
      }
    }
  }
  return attached;
}

Status TreeGraphView::Attach(const TGBlock& block) {
  using ledger::RejectBlock;
  using ledger::RejectReason;
  constexpr std::string_view kComponent = "treegraph";
  TGBlock verified = block;
  verified.Seal();
  if (verified.hash != block.hash) {
    return RejectBlock(kComponent, RejectReason::kBadHash,
                       "block hash does not match its content");
  }
  if (ComputeTxMerkleRoot(verified.txs) != verified.tx_root) {
    return RejectBlock(kComponent, RejectReason::kBadTxRoot,
                       "tx root does not cover the block body");
  }
  if (ledger::HasDuplicateTxIds(verified.txs)) {
    return RejectBlock(kComponent, RejectReason::kDuplicateTx,
                       "transaction id appears twice in one block");
  }
  const TGBlock& parent = *blocks_.at(verified.parent);
  verified.height = parent.height + 1;

  auto stored = std::make_unique<TGBlock>(std::move(verified));
  const TGBlock* ptr = stored.get();
  blocks_.emplace(ptr->hash, std::move(stored));

  children_[ptr->parent].push_back(ptr->hash);
  referenced_.insert(ptr->parent);
  for (const Hash256& ref : ptr->references) referenced_.insert(ref);

  // GHOST weights: every pivot-tree ancestor gains one block.
  subtree_weight_[ptr->hash] = 1;
  const TGBlock* ancestor = &parent;
  for (;;) {
    ++subtree_weight_[ancestor->hash];
    if (ancestor->height == 0) break;
    ancestor = blocks_.at(ancestor->parent).get();
  }
  return Status::Ok();
}

std::vector<const TGBlock*> TreeGraphView::EpochBlocks(
    const TGBlock* pivot, std::unordered_set<Hash256>& consumed) const {
  // Collect everything reachable from the pivot through parent + reference
  // edges that earlier epochs have not consumed.
  std::unordered_set<Hash256> in_epoch;
  std::vector<const TGBlock*> stack = {pivot};
  in_epoch.insert(pivot->hash);
  while (!stack.empty()) {
    const TGBlock* current = stack.back();
    stack.pop_back();
    std::vector<Hash256> deps = {current->parent};
    deps.insert(deps.end(), current->references.begin(),
                current->references.end());
    for (const Hash256& dep : deps) {
      if (current->height == 0) continue;  // genesis has no real parent
      if (consumed.contains(dep) || in_epoch.contains(dep)) continue;
      in_epoch.insert(dep);
      stack.push_back(blocks_.at(dep).get());
    }
  }

  // Deterministic topological order inside the epoch (Kahn, smallest-hash
  // first among ready blocks). The pivot is the unique sink, so it lands
  // last — Conflux's epoch order.
  std::unordered_map<Hash256, std::size_t> pending;  // unmet in-epoch deps
  std::unordered_map<Hash256, std::vector<Hash256>> dependants;
  for (const Hash256& member : in_epoch) {
    const TGBlock* block = blocks_.at(member).get();
    std::size_t unmet = 0;
    std::vector<Hash256> deps = {block->parent};
    deps.insert(deps.end(), block->references.begin(),
                block->references.end());
    for (const Hash256& dep : deps) {
      if (in_epoch.contains(dep)) {
        ++unmet;
        dependants[dep].push_back(member);
      }
    }
    pending[member] = unmet;
  }
  std::vector<Hash256> ready;
  for (const auto& [hash, unmet] : pending) {
    if (unmet == 0) ready.push_back(hash);
  }
  std::sort(ready.begin(), ready.end());

  std::vector<const TGBlock*> ordered;
  while (!ready.empty()) {
    // Smallest hash first; keep `ready` sorted descending for cheap pops.
    const Hash256 next = ready.front();
    ready.erase(ready.begin());
    ordered.push_back(blocks_.at(next).get());
    consumed.insert(next);
    const auto it = dependants.find(next);
    if (it == dependants.end()) continue;
    for (const Hash256& dep : it->second) {
      if (--pending[dep] == 0) {
        ready.insert(std::lower_bound(ready.begin(), ready.end(), dep), dep);
      }
    }
  }
  return ordered;
}

std::vector<TGEpoch> TreeGraphView::ConfirmedEpochs() const {
  const auto pivot_chain = PivotChain();
  if (pivot_chain.size() <= confirm_depth_) return {};
  const std::size_t confirmed_len = pivot_chain.size() - confirm_depth_;

  std::vector<TGEpoch> epochs;
  std::unordered_set<Hash256> consumed = {TreeGraphGenesisHash()};
  for (std::size_t i = 1; i < confirmed_len; ++i) {
    TGEpoch epoch;
    epoch.pivot_height = pivot_chain[i]->height;
    epoch.blocks = EpochBlocks(pivot_chain[i], consumed);
    epochs.push_back(std::move(epoch));
  }
  return epochs;
}

std::vector<const TGBlock*> TreeGraphView::AllBlocks() const {
  std::vector<const TGBlock*> out;
  out.reserve(blocks_.size());
  for (const auto& [hash, block] : blocks_) out.push_back(block.get());
  std::sort(out.begin(), out.end(), [](const TGBlock* a, const TGBlock* b) {
    if (a->height != b->height) return a->height < b->height;
    return a->hash < b->hash;
  });
  return out;
}

std::size_t TreeGraphView::NumOrphans() const {
  std::size_t total = 0;
  for (const auto& [hash, waiting] : orphans_) total += waiting.size();
  return total;
}

}  // namespace nezha
