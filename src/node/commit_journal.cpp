#include "node/commit_journal.h"

#include "common/bytes.h"

namespace nezha {

namespace {

constexpr char kJournalMagic[4] = {'N', 'Z', 'J', 'L'};
constexpr std::size_t kDigestSize = 32;

void PutHash(std::string& out, const Hash256& hash) {
  out.append(reinterpret_cast<const char*>(hash.bytes.data()), 32);
}

bool GetHash(std::string_view data, std::size_t* offset, Hash256* out) {
  if (*offset + 32 > data.size()) return false;
  for (std::size_t i = 0; i < 32; ++i) {
    out->bytes[i] = static_cast<std::uint8_t>(data[*offset + i]);
  }
  *offset += 32;
  return true;
}

}  // namespace

CommitJournal CommitJournal::Header() const {
  CommitJournal header = *this;
  header.redo.clear();
  return header;
}

std::string CommitJournal::Serialize() const {
  std::string out(kJournalMagic, sizeof(kJournalMagic));
  PutVarint64(out, epoch);
  PutHash(out, state_root);
  PutHash(out, receipt_root);
  PutVarint64(out, block_ids.size());
  for (const Hash256& id : block_ids) PutHash(out, id);
  PutVarint64(out, chain_tips.size());
  for (const auto& [chain, tip] : chain_tips) {
    PutFixed32(out, chain);
    PutHash(out, tip);
  }
  PutVarint64(out, redo.size());
  out += redo;
  const Hash256 digest = Sha256::Digest(out);
  out.append(reinterpret_cast<const char*>(digest.bytes.data()), kDigestSize);
  return out;
}

Result<CommitJournal> CommitJournal::Deserialize(std::string_view data) {
  if (data.size() < sizeof(kJournalMagic) + kDigestSize) {
    return Status::Corruption("commit journal truncated");
  }
  if (data.compare(0, sizeof(kJournalMagic),
                   std::string_view(kJournalMagic, sizeof(kJournalMagic))) !=
      0) {
    return Status::Corruption("commit journal magic mismatch");
  }
  const std::string_view body = data.substr(0, data.size() - kDigestSize);
  const Hash256 digest = Sha256::Digest(body);
  if (std::string_view(reinterpret_cast<const char*>(digest.bytes.data()),
                       kDigestSize) != data.substr(data.size() - kDigestSize)) {
    return Status::Corruption("commit journal checksum mismatch");
  }
  CommitJournal journal;
  std::size_t offset = sizeof(kJournalMagic);
  std::uint64_t count = 0;
  if (!GetVarint64(body, &offset, &journal.epoch) ||
      !GetHash(body, &offset, &journal.state_root) ||
      !GetHash(body, &offset, &journal.receipt_root) ||
      !GetVarint64(body, &offset, &count)) {
    return Status::Corruption("commit journal header does not parse");
  }
  if (count > (body.size() - offset) / 32) {
    return Status::Corruption("commit journal id count exceeds its bytes");
  }
  journal.block_ids.resize(count);
  for (Hash256& id : journal.block_ids) {
    if (!GetHash(body, &offset, &id)) {
      return Status::Corruption("commit journal block ids truncated");
    }
  }
  if (!GetVarint64(body, &offset, &count)) {
    return Status::Corruption("commit journal tip count truncated");
  }
  if (count > (body.size() - offset) / 36) {
    return Status::Corruption("commit journal tip count exceeds its bytes");
  }
  journal.chain_tips.resize(count);
  for (auto& [chain, tip] : journal.chain_tips) {
    if (offset + 4 > body.size()) {
      return Status::Corruption("commit journal chain tips truncated");
    }
    chain = GetFixed32(body.substr(offset));
    offset += 4;
    if (!GetHash(body, &offset, &tip)) {
      return Status::Corruption("commit journal chain tips truncated");
    }
  }
  std::uint64_t redo_size = 0;
  if (!GetVarint64(body, &offset, &redo_size) ||
      offset + redo_size != body.size()) {
    return Status::Corruption("commit journal redo payload truncated");
  }
  journal.redo = std::string(body.substr(offset, redo_size));
  return journal;
}

}  // namespace nezha
