#include "consensus/ohie_types.h"

#include "common/bytes.h"

namespace nezha {

std::string OhieBlock::HashPreimage() const {
  std::string out;
  PutVarint64(out, miner);
  PutVarint64(out, mine_counter);
  PutVarint64(out, parent_tips.size());
  for (const Hash256& tip : parent_tips) {
    out.append(reinterpret_cast<const char*>(tip.bytes.data()), 32);
  }
  out.append(reinterpret_cast<const char*>(tx_root.bytes.data()), 32);
  return out;
}

void OhieBlock::Seal(ChainId num_chains) {
  hash = Sha256::Digest(HashPreimage());
  // The chain is determined by the hash — the miner cannot choose it.
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value = (value << 8) | hash.bytes[static_cast<std::size_t>(i)];
  }
  chain = static_cast<ChainId>(value % num_chains);
}

std::string OhieBlock::Serialize() const {
  std::string out = HashPreimage();
  PutVarint64(out, txs.size());
  for (const Transaction& tx : txs) {
    const std::string tx_bytes = tx.Serialize();
    PutVarint64(out, tx_bytes.size());
    out += tx_bytes;
  }
  return out;
}

Result<OhieBlock> OhieBlock::Deserialize(std::string_view data,
                                         ChainId num_chains) {
  OhieBlock block;
  std::size_t offset = 0;
  std::uint64_t miner = 0, num_tips = 0;
  if (!GetVarint64(data, &offset, &miner) ||
      !GetVarint64(data, &offset, &block.mine_counter) ||
      !GetVarint64(data, &offset, &num_tips)) {
    return Status::Corruption("truncated OHIE block header");
  }
  block.miner = static_cast<NodeId>(miner);
  if (num_tips > (data.size() - offset) / 32) {
    return Status::Corruption("OHIE parent tip count exceeds its bytes");
  }
  block.parent_tips.resize(num_tips);
  for (std::uint64_t i = 0; i < num_tips; ++i) {
    if (offset + 32 > data.size()) {
      return Status::Corruption("truncated OHIE parent tips");
    }
    for (int b = 0; b < 32; ++b) {
      block.parent_tips[i].bytes[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(data[offset + static_cast<std::size_t>(b)]);
    }
    offset += 32;
  }
  if (offset + 32 > data.size()) {
    return Status::Corruption("truncated OHIE tx root");
  }
  for (int b = 0; b < 32; ++b) {
    block.tx_root.bytes[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(data[offset + static_cast<std::size_t>(b)]);
  }
  offset += 32;

  std::uint64_t num_txs = 0;
  if (!GetVarint64(data, &offset, &num_txs)) {
    return Status::Corruption("truncated OHIE tx count");
  }
  // Every transaction takes at least one byte (its length prefix).
  if (num_txs > data.size() - offset) {
    return Status::Corruption("OHIE tx count exceeds its bytes");
  }
  block.txs.reserve(num_txs);
  for (std::uint64_t i = 0; i < num_txs; ++i) {
    std::uint64_t tx_len = 0;
    if (!GetVarint64(data, &offset, &tx_len) ||
        tx_len > data.size() - offset) {
      return Status::Corruption("truncated OHIE tx");
    }
    auto tx = Transaction::Deserialize(data.substr(offset, tx_len));
    if (!tx.ok()) return tx.status();
    block.txs.push_back(std::move(tx.value()));
    offset += tx_len;
  }
  if (offset != data.size()) {
    return Status::Corruption("trailing bytes after OHIE block");
  }
  block.Seal(num_chains);  // recompute hash + chain; never trust the wire
  return block;
}

OhieBlock MakeOhieGenesis(ChainId chain) {
  OhieBlock genesis;
  genesis.miner = 0;
  genesis.mine_counter = chain;  // distinct content per chain
  genesis.tx_root = Hash256{};
  genesis.hash = OhieGenesisHash(chain);
  genesis.chain = chain;
  genesis.height = 0;
  genesis.rank = 0;
  genesis.next_rank = 1;
  return genesis;
}

Hash256 OhieGenesisHash(ChainId chain) {
  std::string preimage = "ohie-genesis/";
  PutFixed32(preimage, chain);
  return Sha256::Digest(preimage);
}

}  // namespace nezha
