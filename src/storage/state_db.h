// StateDB: the account-model world state.
//
// Each Address (one state cell, e.g. an account's savings or checking
// balance) maps to a signed 64-bit value. The DB supports:
//  * immutable snapshots, used by the concurrent speculative execution phase
//    (every transaction of an epoch executes against the snapshot of epoch
//    e-1, §III.B);
//  * thread-safe concurrent writes (sharded locks), used by the grouped
//    commitment phase where transactions with equal sequence numbers commit
//    in parallel;
//  * authenticated commitments via a Merkle Patricia Trie (the state root
//    each block carries), and flushing to the underlying KVStore.
//
// Cost. The committed state is held once, in a base map that snapshots
// share; cells written since the last snapshot sit in sharded pending maps,
// which Get reads before the base. MakeSnapshot folds them into the base in
// place, so it costs O(cells written since the previous snapshot). It copies
// the whole base first only while an older snapshot still holds it (the
// copy-on-write idiom of KVStore); the node drops each epoch's snapshot
// before taking the next one.
//
// A written cell has two independent states. In the trie: a pending cell
// records whether the commitment trie holds its value, so RootHash puts each
// written cell once per epoch. KV-dirty: every Set marks the cell, and only
// ClearDirty, once the AppendDirtyTo batch has landed, clears the mark.
// LoadFromStorage's cells still need the trie but are not dirty: the store
// already holds them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "storage/kvstore.h"
#include "storage/mpt.h"

namespace nezha {

/// The value stored at one state address (an account balance in SmallBank).
using StateValue = std::int64_t;

/// An immutable point-in-time view of the state. Reads are lock-free and
/// safe from any number of threads.
class StateSnapshot {
 public:
  using Map = std::unordered_map<std::uint64_t, StateValue>;

  StateSnapshot() : data_(std::make_shared<Map>()) {}
  StateSnapshot(std::shared_ptr<const Map> data, Hash256 root, EpochId epoch)
      : data_(std::move(data)), root_(root), epoch_(epoch) {}

  /// Missing addresses read as 0 (accounts start empty).
  StateValue Get(Address a) const {
    const auto it = data_->find(a.value);
    return it == data_->end() ? 0 : it->second;
  }

  bool Contains(Address a) const { return data_->contains(a.value); }
  std::size_t Size() const { return data_->size(); }
  const Hash256& root() const { return root_; }
  EpochId epoch() const { return epoch_; }

  /// Read-only access to the raw contents (state sync, tests).
  const Map& items() const { return *data_; }

 private:
  std::shared_ptr<const Map> data_;
  Hash256 root_{};
  EpochId epoch_ = 0;
};

/// One write produced by a committed transaction.
struct StateWrite {
  Address address;
  StateValue value;
};

/// `cells` as writes in ascending address order: the canonical order that
/// keeps hash-table iteration order out of checkpoints and apply chunks.
std::vector<StateWrite> SortedWrites(const StateSnapshot::Map& cells);

class StateDB {
 public:
  /// kv may be null (no persistence); the MPT commitment always works.
  explicit StateDB(KVStore* kv = nullptr)
      : kv_(kv), base_(std::make_shared<StateSnapshot::Map>()) {}

  StateValue Get(Address a) const;
  void Set(Address a, StateValue v);

  /// Applies a batch of writes. Safe to call concurrently from multiple
  /// threads as long as no two concurrent calls write the same address
  /// (guaranteed for Nezha's same-sequence-number commit groups).
  void ApplyWrites(std::span<const StateWrite> writes);

  /// Puts the written cells the commitment trie lacks and returns the root.
  Hash256 RootHash();

  /// Creates an immutable snapshot tagged with the epoch id: syncs the root,
  /// then folds the pending cells into the shared base (module comment).
  StateSnapshot MakeSnapshot(EpochId epoch);

  /// Flushes all dirty entries to the KVStore as one atomic batch.
  /// No-op (OK) when the DB was constructed without a KVStore.
  Status Flush();

  /// Appends every dirty entry (as canonical StateKey/EncodeValue puts) to
  /// `batch` in ascending address order, WITHOUT clearing the dirty
  /// markers — the caller owns the KV write (FullNode folds the state flush
  /// into one atomic epoch-commit batch) and calls ClearDirty() once it
  /// lands. Leaves the commitment trie alone: RootHash syncs it.
  void AppendDirtyTo(WriteBatch& batch);

  /// Marks every entry clean after the caller durably wrote the batch
  /// produced by AppendDirtyTo. Leaving entries dirty on a failed write is
  /// what makes a retried flush still complete.
  void ClearDirty();

  /// Canonical storage/commitment encoding of one state cell — shared by
  /// the KV flush path, the commitment trie, and state sync.
  static std::string StateKey(Address a);
  static std::string EncodeValue(StateValue v);

  /// Recovery: repopulates the DB from the "s/" records in the attached
  /// KVStore (the DB must be freshly constructed/empty). Loaded entries are
  /// already persisted, so they are not marked dirty; the commitment trie
  /// takes them on the next RootHash().
  Status LoadFromStorage();

  std::size_t Size() const;

 private:
  static constexpr std::size_t kNumShards = 64;

  /// A cell written since the last snapshot.
  struct PendingCell {
    StateValue value = 0;
    bool in_trie = false;  ///< the commitment trie holds `value`
  };

  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<std::uint64_t, PendingCell> pending GUARDED_BY(mutex);
    std::unordered_set<std::uint64_t> dirty GUARDED_BY(mutex);
  };

  static std::size_t ShardOf(Address a) {
    // Fixed SplitMix64 finalizer, NOT std::hash: shard choice only
    // partitions locks, but pinning it keeps lock-contention profiles (and
    // any shard-labeled diagnostics) identical across standard-library
    // versions. std::hash's value is implementation-defined.
    std::uint64_t x = a.value + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::size_t>(x ^ (x >> 31)) % kNumShards;
  }

  /// The current value of `a`: its pending cell, else the base.
  StateValue Read(Address a) const REQUIRES_SHARED(base_mutex_);

  /// Puts the shard's pending cells the trie lacks.
  void SyncToTrie(Shard& shard) REQUIRES(trie_mutex_, shard.mutex);

  // Lock order: trie_mutex_, then base_mutex_, then one shard's mutex. Set
  // takes only its shard's mutex, so concurrent writers never meet on a
  // DB-wide lock.
  std::array<Shard, kNumShards> shards_;
  KVStore* kv_;

  Mutex trie_mutex_;
  MerklePatriciaTrie trie_ GUARDED_BY(trie_mutex_);

  /// The committed state as of the last snapshot, shared with every
  /// snapshot that still holds it. Only MakeSnapshot replaces or mutates
  /// it, under the exclusive lock; readers take the shared lock.
  mutable SharedMutex base_mutex_;
  std::shared_ptr<StateSnapshot::Map> base_ GUARDED_BY(base_mutex_);
};

}  // namespace nezha
