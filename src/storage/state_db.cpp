#include "storage/state_db.h"

#include <algorithm>

#include "common/bytes.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nezha {
namespace {

// Counted once per ApplyWrites batch, not per cell: a per-access atomic on
// one process-wide cache line is what parallel apply workers would contend
// on (docs/OBSERVABILITY.md).
obs::Counter* WritesCounter() {
  static obs::Counter* c =
      obs::Registry().GetCounter("nezha_statedb_writes_total");
  return c;
}

}  // namespace

std::vector<StateWrite> SortedWrites(const StateSnapshot::Map& cells) {
  std::vector<StateWrite> writes(cells.size());
  std::transform(cells.begin(), cells.end(), writes.begin(),
                 [](const auto& cell) {
                   return StateWrite{Address(cell.first), cell.second};
                 });
  std::sort(writes.begin(), writes.end(),
            [](const StateWrite& a, const StateWrite& b) {
              return a.address < b.address;
            });
  return writes;
}

StateValue StateDB::Read(Address a) const {
  const Shard& shard = shards_[ShardOf(a)];
  {
    MutexLock lock(shard.mutex);
    const auto it = shard.pending.find(a.value);
    if (it != shard.pending.end()) return it->second.value;
  }
  const auto it = base_->find(a.value);
  return it == base_->end() ? 0 : it->second;
}

StateValue StateDB::Get(Address a) const {
  ReaderMutexLock base_lock(base_mutex_);
  return Read(a);
}

void StateDB::Set(Address a, StateValue v) {
  Shard& shard = shards_[ShardOf(a)];
  MutexLock lock(shard.mutex);
  shard.pending[a.value] = PendingCell{v, false};
  shard.dirty.insert(a.value);
}

void StateDB::ApplyWrites(std::span<const StateWrite> writes) {
  for (const StateWrite& w : writes) Set(w.address, w.value);
  WritesCounter()->Inc(writes.size());
}

std::string StateDB::StateKey(Address a) {
  std::string key = "s/";
  PutFixed64(key, a.value);
  return key;
}

std::string StateDB::EncodeValue(StateValue v) {
  std::string out;
  PutFixed64(out, static_cast<std::uint64_t>(v));
  return out;
}

void StateDB::SyncToTrie(Shard& shard) {
  // The trie's root does not depend on insertion order.
  for (auto& [addr, cell] : shard.pending) {
    if (cell.in_trie) continue;
    trie_.Put(StateKey(Address(addr)), EncodeValue(cell.value));
    cell.in_trie = true;
  }
}

Hash256 StateDB::RootHash() {
  MutexLock trie_lock(trie_mutex_);
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    SyncToTrie(shard);
  }
  return trie_.RootHash();
}

StateSnapshot StateDB::MakeSnapshot(EpochId epoch) {
  MutexLock trie_lock(trie_mutex_);
  MutexLock base_lock(base_mutex_);
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    if (shard.pending.empty()) continue;
    SyncToTrie(shard);
    // Copy-on-write: an older snapshot still reading the base keeps its
    // view. After the first copy this DB is the only owner again.
    if (base_.use_count() > 1) {
      base_ = std::make_shared<StateSnapshot::Map>(*base_);
    }
    for (const auto& [addr, cell] : shard.pending) (*base_)[addr] = cell.value;
    shard.pending.clear();
  }
  return StateSnapshot(base_, trie_.RootHash(), epoch);
}

void StateDB::AppendDirtyTo(WriteBatch& batch) {
  ReaderMutexLock base_lock(base_mutex_);
  // The dirty sets are unordered and were populated by however many threads
  // executed the epoch, so their iteration order varies run to run. Sort
  // before appending: the commit batch (and the journal redo payload built
  // from it) must be byte-identical for identical state transitions, or the
  // kCommit determinism checkpoint and cross-node journal comparisons break.
  std::vector<std::uint64_t> dirty;
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    dirty.insert(dirty.end(), shard.dirty.begin(), shard.dirty.end());
  }
  std::sort(dirty.begin(), dirty.end());
  for (std::uint64_t addr : dirty) {
    batch.Put(StateKey(Address(addr)), EncodeValue(Read(Address(addr))));
  }
}

void StateDB::ClearDirty() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    shard.dirty.clear();
  }
}

Status StateDB::Flush() {
  const double start_us = obs::PhaseTracer::NowUs();
  if (const fault::Hit hit = fault::Check(fault::sites::kStateFlush);
      hit.action != fault::Action::kNone) {
    if (hit.action == fault::Action::kCrash) {
      return fault::CrashStatus(fault::sites::kStateFlush);
    }
    return Status::Unavailable("fault: state flush failed");
  }
  WriteBatch batch;
  AppendDirtyTo(batch);
  Status status = Status::Ok();
  if (kv_ != nullptr && !batch.Empty()) status = kv_->Write(batch);
  if (status.ok()) ClearDirty();

  auto& registry = obs::Registry();
  registry.GetCounter("nezha_statedb_flushes_total")->Inc();
  registry.GetCounter("nezha_statedb_flush_entries_total")->Inc(batch.Count());
  registry.GetCounter("nezha_statedb_flush_bytes_total")->Inc(batch.ByteSize());
  registry.GetHistogram("nezha_statedb_flush_us")
      ->Observe(obs::PhaseTracer::NowUs() - start_us);
  return status;
}

Status StateDB::LoadFromStorage() {
  if (kv_ == nullptr) return Status::InvalidArgument("no KV store attached");
  if (Size() != 0) return Status::InvalidArgument("state DB is not empty");
  for (auto it = kv_->NewIterator("s/", "s0"); it.Valid(); it.Next()) {
    if (it.key().size() != 10 || it.value().size() != 8) {
      return Status::Corruption("bad state record");
    }
    const Address address(GetFixed64(std::string_view(it.key()).substr(2)));
    const auto value =
        static_cast<StateValue>(GetFixed64(it.value()));
    Shard& shard = shards_[ShardOf(address)];
    MutexLock lock(shard.mutex);
    shard.pending[address.value] = PendingCell{value, false};
  }
  return Status::Ok();
}

std::size_t StateDB::Size() const {
  ReaderMutexLock base_lock(base_mutex_);
  std::size_t total = base_->size();
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mutex);
    for (const auto& entry : shard.pending) {
      if (!base_->contains(entry.first)) ++total;
    }
  }
  return total;
}

}  // namespace nezha
