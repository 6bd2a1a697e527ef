#include "ledger/transaction.h"

#include "common/bytes.h"

namespace nezha {

std::string Transaction::Serialize() const {
  std::string out;
  PutVarint64(out, nonce);
  PutVarint64(out, payload.contract);
  PutVarint64(out, payload.op);
  PutVarint64(out, payload.args.size());
  for (std::uint64_t arg : payload.args) PutVarint64(out, arg);
  return out;
}

Result<Transaction> Transaction::Deserialize(std::string_view data) {
  Transaction tx;
  std::size_t offset = 0;
  std::uint64_t contract = 0, op = 0, num_args = 0;
  if (!GetVarint64(data, &offset, &tx.nonce) ||
      !GetVarint64(data, &offset, &contract) ||
      !GetVarint64(data, &offset, &op) ||
      !GetVarint64(data, &offset, &num_args)) {
    return Status::Corruption("truncated transaction");
  }
  tx.payload.contract = static_cast<std::uint32_t>(contract);
  tx.payload.op = static_cast<std::uint32_t>(op);
  // Every argument takes at least one byte: a larger count is corrupt, and
  // must not size the reservation below.
  if (num_args > data.size() - offset) {
    return Status::Corruption("transaction arg count exceeds its bytes");
  }
  tx.payload.args.reserve(num_args);
  for (std::uint64_t i = 0; i < num_args; ++i) {
    std::uint64_t arg = 0;
    if (!GetVarint64(data, &offset, &arg)) {
      return Status::Corruption("truncated transaction args");
    }
    tx.payload.args.push_back(arg);
  }
  if (offset != data.size()) {
    return Status::Corruption("trailing bytes after transaction");
  }
  return tx;
}

Hash256 Transaction::Id() const { return Sha256::Digest(Serialize()); }

}  // namespace nezha
