#include "node/state_sync.h"

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "obs/metrics.h"

namespace nezha {

namespace {

// AddChunk's transport-corruption verdict; SyncFrom distinguishes it from
// proof-level failures (which only a lying server can produce and which
// count toward blacklisting).
constexpr std::string_view kChecksumMismatch = "chunk checksum mismatch";

obs::Counter* SyncCounter(const char* name) {
  return obs::Registry().GetCounter(name);
}

}  // namespace

Hash256 StateChunk::ComputeChecksum() const {
  Sha256 hasher;
  std::string header;
  PutFixed64(header, index);
  header.push_back(last ? 1 : 0);
  hasher.Update(header);
  hasher.Update(root.bytes);
  for (const StateWrite& record : records) {
    std::string encoded;
    PutFixed64(encoded, record.address.value);
    PutFixed64(encoded, record.value);
    hasher.Update(encoded);
  }
  for (const auto* proof : {&first_proof, &last_proof}) {
    std::string frame;
    PutVarint64(frame, proof->size());
    hasher.Update(frame);
    for (const std::string& node : *proof) {
      std::string len;
      PutVarint64(len, node.size());
      hasher.Update(len).Update(node);
    }
  }
  return hasher.Finish();
}

StateSyncServer::StateSyncServer(StateDB& db, std::size_t chunk_size)
    : chunk_size_(chunk_size == 0 ? 1 : chunk_size) {
  const StateSnapshot snapshot = db.MakeSnapshot(0);
  records_.reserve(snapshot.Size());
  for (const auto& [address, value] : snapshot.items()) {
    records_.push_back({Address(address), value});
  }
  std::sort(records_.begin(), records_.end(),
            [](const StateWrite& a, const StateWrite& b) {
              return a.address < b.address;
            });
  for (const StateWrite& record : records_) {
    trie_.Put(StateDB::StateKey(record.address),
              StateDB::EncodeValue(record.value));
  }
  root_ = trie_.RootHash();
}

std::uint64_t StateSyncServer::NumChunks() const {
  if (records_.empty()) return 1;  // one empty terminal chunk
  return (records_.size() + chunk_size_ - 1) / chunk_size_;
}

Result<StateChunk> StateSyncServer::GetChunk(std::uint64_t index) const {
  if (index >= NumChunks()) {
    return Status::OutOfRange("chunk index past the end");
  }
  StateChunk chunk;
  chunk.index = index;
  chunk.root = root_;
  const std::size_t begin = static_cast<std::size_t>(index) * chunk_size_;
  const std::size_t end = std::min(records_.size(), begin + chunk_size_);
  chunk.records.assign(records_.begin() + static_cast<std::ptrdiff_t>(begin),
                       records_.begin() + static_cast<std::ptrdiff_t>(end));
  chunk.last = end == records_.size();
  if (!chunk.records.empty()) {
    chunk.first_proof =
        trie_.GenerateProof(StateDB::StateKey(chunk.records.front().address));
    chunk.last_proof =
        trie_.GenerateProof(StateDB::StateKey(chunk.records.back().address));
  }
  chunk.checksum = chunk.ComputeChecksum();

  // Injection site: everything below models what happens to the chunk
  // between an honest server and the client.
  const fault::Hit hit = fault::Check(fault::sites::kSyncServeChunk);
  switch (hit.action) {
    case fault::Action::kNone:
      break;
    case fault::Action::kDrop:
      return Status::Unavailable("fault: chunk dropped in transit");
    case fault::Action::kDelay:
      // Simulated latency in ms; the ChunkSource compares it against the
      // client's timeout — no real sleeping.
      chunk.delay_ms = static_cast<double>(hit.param);
      break;
    case fault::Action::kCorrupt:
      if (!chunk.records.empty()) {
        if (hit.param == 0) {
          // Transport corruption: a record flipped after the checksum was
          // computed. The client detects the mismatch and re-requests.
          chunk.records[chunk.records.size() / 2].value ^= 0x1;
        } else {
          // Malicious server: a boundary record is forged and the checksum
          // recomputed to match, so only the (now stale) boundary proof can
          // expose the lie — this is the blacklist trigger.
          chunk.records.back().value ^= 0x1;
          chunk.checksum = chunk.ComputeChecksum();
        }
      }
      break;
    case fault::Action::kTruncate:
      // Tail records lost in transit, checksum now stale.
      if (chunk.records.size() > 1) {
        chunk.records.resize(chunk.records.size() / 2);
      }
      break;
    case fault::Action::kFail:
    case fault::Action::kCrash:
      return fault::CrashStatus(fault::sites::kSyncServeChunk);
    case fault::Action::kTear:
    case fault::Action::kDuplicate:
    case fault::Action::kReorder:
      break;  // not meaningful for a read path
  }
  return chunk;
}

Result<StateChunk> ServerChunkSource::FetchChunk(std::uint64_t index,
                                                 double timeout_ms) {
  auto chunk = server_.GetChunk(index);
  if (!chunk.ok()) return chunk;
  if (chunk->delay_ms > timeout_ms) {
    return Status::Unavailable("fault: chunk fetch timed out");
  }
  return chunk;
}

Status StateSyncClient::AddChunk(const StateChunk& chunk) {
  if (complete_) return Status::InvalidArgument("sync already complete");
  if (chunk.index != next_index_) {
    return Status::InvalidArgument("chunk out of order");
  }
  // Integrity first: cheap, and catches in-flight damage (bit flips,
  // truncation) without touching the proof machinery.
  if (chunk.checksum != chunk.ComputeChecksum()) {
    return Status::Corruption(std::string(kChecksumMismatch));
  }
  if (chunk.root != trusted_root_) {
    return Status::Corruption("chunk served from a different state root");
  }
  if (!chunk.records.empty()) {
    // Boundary checks: the first and last record must prove against the
    // trusted root with exactly the claimed values.
    const auto check = [&](const StateWrite& record,
                           const std::vector<std::string>& proof) -> Status {
      auto proven = MerklePatriciaTrie::VerifyProof(
          trusted_root_, StateDB::StateKey(record.address), proof);
      if (!proven.ok()) {
        return Status::Corruption("boundary proof invalid: " +
                                  proven.status().ToString());
      }
      if (*proven != StateDB::EncodeValue(record.value)) {
        return Status::Corruption("boundary record value mismatch");
      }
      return Status::Ok();
    };
    if (Status s = check(chunk.records.front(), chunk.first_proof); !s.ok()) {
      return s;
    }
    if (Status s = check(chunk.records.back(), chunk.last_proof); !s.ok()) {
      return s;
    }
    // Records must continue strictly ascending across the whole stream.
    Address previous = records_.empty()
                           ? Address(0)
                           : records_.back().address;
    const bool have_previous = !records_.empty();
    for (std::size_t i = 0; i < chunk.records.size(); ++i) {
      const Address current = chunk.records[i].address;
      if ((have_previous || i > 0) && !(previous < current)) {
        return Status::Corruption("records not strictly ascending");
      }
      previous = current;
    }
    records_.insert(records_.end(), chunk.records.begin(),
                    chunk.records.end());
  }
  ++next_index_;
  if (chunk.last) complete_ = true;
  return Status::Ok();
}

bool StateSyncClient::IsChecksumFailure(const Status& status) {
  return status.code() == StatusCode::kCorruption &&
         std::string_view(status.message()).substr(0, kChecksumMismatch.size())
             == kChecksumMismatch;
}

Status StateSyncClient::Finish(StateDB& db) {
  if (!complete_) return Status::InvalidArgument("sync not complete");
  // Rebuild the commitment trie from scratch: only a byte-exact state can
  // reproduce the trusted root.
  MerklePatriciaTrie trie;
  for (const StateWrite& record : records_) {
    trie.Put(StateDB::StateKey(record.address),
             StateDB::EncodeValue(record.value));
  }
  if (trie.RootHash() != trusted_root_) {
    return Status::Corruption("rebuilt state root does not match");
  }
  for (const StateWrite& record : records_) {
    db.Set(record.address, record.value);
  }
  return Status::Ok();
}

Status StateSyncClient::SyncFrom(std::span<ChunkSource* const> sources,
                                 StateDB& db, const SyncRetryPolicy& policy) {
  if (sources.empty()) {
    return Status::InvalidArgument("no chunk sources");
  }
  stats_ = {};
  Rng rng(policy.seed);
  std::vector<std::size_t> proof_failures(sources.size(), 0);
  std::vector<bool> blacklisted(sources.size(), false);
  std::size_t source_index = 0;

  const auto next_live_source = [&]() -> ChunkSource* {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const std::size_t candidate = (source_index + i) % sources.size();
      if (!blacklisted[candidate]) {
        source_index = candidate;
        return sources[candidate];
      }
    }
    return nullptr;
  };

  const auto blacklist_current = [&] {
    blacklisted[source_index] = true;
    ++stats_.sources_blacklisted;
    SyncCounter("nezha_sync_sources_blacklisted_total")->Inc();
  };

  while (!complete_) {
    const std::uint64_t index = next_index_;
    ChunkSource* source = next_live_source();
    if (source == nullptr) {
      return Status::Unavailable("all sync sources blacklisted");
    }
    // Attempt loop for this one chunk; attempts and backoff reset when the
    // driver moves to a different source mid-chunk (after a blacklist).
    std::size_t attempts = 0;
    double backoff = policy.initial_backoff_ms;
    bool verified = false;
    while (!verified) {
      ++attempts;
      ++stats_.fetch_attempts;
      SyncCounter("nezha_sync_fetch_attempts_total")->Inc();
      Status verdict = Status::Ok();
      auto chunk = source->FetchChunk(index, policy.chunk_timeout_ms);
      if (chunk.ok()) {
        verdict = AddChunk(*chunk);
      } else {
        verdict = chunk.status();
      }
      if (verdict.ok()) {
        verified = true;
        ++stats_.chunks_verified;
        SyncCounter("nezha_sync_chunks_verified_total")->Inc();
        break;
      }
      switch (verdict.code()) {
        case StatusCode::kUnavailable:
          ++stats_.drops;
          SyncCounter("nezha_sync_drops_total")->Inc();
          break;
        case StatusCode::kAborted:
          // An injected server crash; treat like a drop and retry.
          ++stats_.drops;
          SyncCounter("nezha_sync_drops_total")->Inc();
          break;
        case StatusCode::kCorruption:
          if (IsChecksumFailure(verdict)) {
            ++stats_.checksum_failures;
            SyncCounter("nezha_sync_checksum_failures_total")->Inc();
          } else {
            // Proof-level lie: wrong root, forged boundary proof, or a
            // non-ascending stream. Only a dishonest (or broken beyond
            // retrying) server produces these.
            ++stats_.proof_failures;
            SyncCounter("nezha_sync_proof_failures_total")->Inc();
            ++proof_failures[source_index];
            if (proof_failures[source_index] >=
                policy.blacklist_after_proof_failures) {
              blacklist_current();
              source = next_live_source();
              if (source == nullptr) {
                return Status::Unavailable("all sync sources blacklisted");
              }
              attempts = 0;
              backoff = policy.initial_backoff_ms;
              continue;
            }
          }
          break;
        default:
          // InvalidArgument / OutOfRange etc.: a protocol bug, not a
          // transient fault — retrying cannot help.
          return verdict;
      }
      if (attempts >= policy.max_attempts_per_chunk) {
        // This source cannot deliver this chunk; try the next one, or give
        // up when none are left untried.
        blacklist_current();
        source = next_live_source();
        if (source == nullptr) {
          return Status::Unavailable("chunk unfetchable from every source");
        }
        attempts = 0;
        backoff = policy.initial_backoff_ms;
        continue;
      }
      ++stats_.retries;
      SyncCounter("nezha_sync_retries_total")->Inc();
      // Bounded exponential backoff with symmetric jitter; the wait is
      // accounted, never slept, so the whole driver is deterministic.
      const double jittered =
          backoff * (1.0 + policy.jitter * (2.0 * rng.NextDouble() - 1.0));
      stats_.backoff_ms_total += jittered;
      obs::Registry().GetHistogram("nezha_sync_backoff_ms")->Observe(jittered);
      backoff = std::min(backoff * policy.backoff_multiplier,
                         policy.max_backoff_ms);
    }
  }
  return Finish(db);
}

Status StateSyncClient::SyncFrom(ChunkSource& source, StateDB& db,
                                 const SyncRetryPolicy& policy) {
  ChunkSource* const sources[] = {&source};
  return SyncFrom(std::span<ChunkSource* const>(sources), db, policy);
}

}  // namespace nezha
