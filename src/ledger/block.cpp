#include "ledger/block.h"

#include "common/bytes.h"

namespace nezha {
namespace {

void PutHash(std::string& out, const Hash256& h) {
  out.append(reinterpret_cast<const char*>(h.bytes.data()), 32);
}

bool GetHash(std::string_view data, std::size_t* offset, Hash256* out) {
  if (*offset + 32 > data.size()) return false;
  for (int i = 0; i < 32; ++i) {
    out->bytes[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
        data[*offset + static_cast<std::size_t>(i)]);
  }
  *offset += 32;
  return true;
}

}  // namespace

std::string BlockHeader::Serialize() const {
  std::string out;
  PutVarint64(out, epoch);
  PutVarint64(out, chain);
  PutVarint64(out, height);
  PutHash(out, parent_hash);
  PutHash(out, prev_state_root);
  PutHash(out, tx_root);
  PutVarint64(out, proposer);
  return out;
}

Result<BlockHeader> BlockHeader::Deserialize(std::string_view data) {
  BlockHeader h;
  std::size_t offset = 0;
  std::uint64_t chain = 0;
  if (!GetVarint64(data, &offset, &h.epoch) ||
      !GetVarint64(data, &offset, &chain) ||
      !GetVarint64(data, &offset, &h.height) ||
      !GetHash(data, &offset, &h.parent_hash) ||
      !GetHash(data, &offset, &h.prev_state_root) ||
      !GetHash(data, &offset, &h.tx_root) ||
      !GetVarint64(data, &offset, &h.proposer)) {
    return Status::Corruption("truncated block header");
  }
  h.chain = static_cast<ChainId>(chain);
  if (offset != data.size()) {
    return Status::Corruption("trailing bytes after block header");
  }
  return h;
}

Hash256 BlockHeader::Hash() const { return Sha256::Digest(Serialize()); }

std::string Block::Serialize() const {
  std::string out;
  const std::string header_bytes = header.Serialize();
  PutVarint64(out, header_bytes.size());
  out += header_bytes;
  PutVarint64(out, transactions.size());
  for (const Transaction& tx : transactions) {
    const std::string tx_bytes = tx.Serialize();
    PutVarint64(out, tx_bytes.size());
    out += tx_bytes;
  }
  return out;
}

Result<Block> Block::Deserialize(std::string_view data) {
  Block block;
  std::size_t offset = 0;
  std::uint64_t header_len = 0;
  if (!GetVarint64(data, &offset, &header_len) ||
      header_len > data.size() - offset) {
    return Status::Corruption("truncated block");
  }
  auto header = BlockHeader::Deserialize(data.substr(offset, header_len));
  if (!header.ok()) return header.status();
  block.header = std::move(header.value());
  offset += header_len;

  std::uint64_t num_txs = 0;
  if (!GetVarint64(data, &offset, &num_txs)) {
    return Status::Corruption("truncated block tx count");
  }
  // Every transaction takes at least one byte (its length prefix).
  if (num_txs > data.size() - offset) {
    return Status::Corruption("block tx count exceeds its bytes");
  }
  block.transactions.reserve(num_txs);
  for (std::uint64_t i = 0; i < num_txs; ++i) {
    std::uint64_t tx_len = 0;
    if (!GetVarint64(data, &offset, &tx_len) ||
        tx_len > data.size() - offset) {
      return Status::Corruption("truncated block tx");
    }
    auto tx = Transaction::Deserialize(data.substr(offset, tx_len));
    if (!tx.ok()) return tx.status();
    block.transactions.push_back(std::move(tx.value()));
    offset += tx_len;
  }
  if (offset != data.size()) {
    return Status::Corruption("trailing bytes after block");
  }
  return block;
}

Hash256 ComputeTxMerkleRoot(const std::vector<Transaction>& txs) {
  if (txs.empty()) return Hash256{};
  std::vector<Hash256> level;
  level.reserve(txs.size());
  for (const Transaction& tx : txs) level.push_back(tx.Id());
  while (level.size() > 1) {
    if (level.size() % 2 != 0) level.push_back(level.back());
    std::vector<Hash256> next;
    next.reserve(level.size() / 2);
    for (std::size_t i = 0; i < level.size(); i += 2) {
      Sha256 hasher;
      hasher.Update(std::span<const std::uint8_t>(level[i].bytes.data(), 32));
      hasher.Update(
          std::span<const std::uint8_t>(level[i + 1].bytes.data(), 32));
      next.push_back(hasher.Finish());
    }
    level = std::move(next);
  }
  return level[0];
}

}  // namespace nezha
