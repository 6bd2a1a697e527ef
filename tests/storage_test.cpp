// Unit tests for the KV store, write batches, and the StateDB.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "storage/kvstore.h"
#include "storage/state_db.h"
#include "storage/write_batch.h"

namespace nezha {
namespace {

// ---------- WriteBatch ----------

TEST(WriteBatchTest, CollectsOps) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Delete("b");
  EXPECT_EQ(batch.Count(), 2u);
  EXPECT_EQ(batch.ops()[0].type, WriteBatch::OpType::kPut);
  EXPECT_EQ(batch.ops()[1].type, WriteBatch::OpType::kDelete);
}

TEST(WriteBatchTest, SerializeRoundTrip) {
  WriteBatch batch;
  batch.Put("key1", "value with \0 byte");
  batch.Put(std::string("\x00\x01", 2), "bin");
  batch.Delete("gone");
  WriteBatch decoded;
  ASSERT_TRUE(WriteBatch::Deserialize(batch.Serialize(), &decoded));
  ASSERT_EQ(decoded.Count(), 3u);
  EXPECT_EQ(decoded.ops()[0].key, "key1");
  EXPECT_EQ(decoded.ops()[1].key, std::string("\x00\x01", 2));
  EXPECT_EQ(decoded.ops()[2].type, WriteBatch::OpType::kDelete);
}

TEST(WriteBatchTest, DeserializeRejectsGarbage) {
  WriteBatch decoded;
  EXPECT_FALSE(WriteBatch::Deserialize("not a batch", &decoded));
}

TEST(WriteBatchTest, DeserializeRejectsTruncation) {
  WriteBatch batch;
  batch.Put("abcdef", "ghijkl");
  std::string bytes = batch.Serialize();
  bytes.resize(bytes.size() - 3);
  WriteBatch decoded;
  EXPECT_FALSE(WriteBatch::Deserialize(bytes, &decoded));
}

// ---------- KVStore ----------

TEST(KVStoreTest, PutGetDelete) {
  KVStore kv;
  ASSERT_TRUE(kv.Put("k", "v").ok());
  auto got = kv.Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");
  ASSERT_TRUE(kv.Delete("k").ok());
  EXPECT_EQ(kv.Get("k").status().code(), StatusCode::kNotFound);
}

TEST(KVStoreTest, OverwriteReplaces) {
  KVStore kv;
  kv.Put("k", "1");
  kv.Put("k", "2");
  EXPECT_EQ(*kv.Get("k"), "2");
  EXPECT_EQ(kv.Size(), 1u);
}

TEST(KVStoreTest, BatchIsAtomicallyVisible) {
  KVStore kv;
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(kv.Write(batch).ok());
  EXPECT_FALSE(kv.Contains("a"));
  EXPECT_EQ(*kv.Get("b"), "2");
}

TEST(KVStoreTest, SnapshotIsStableUnderWrites) {
  KVStore kv;
  kv.Put("x", "old");
  const KVSnapshot snap = kv.GetSnapshot();
  kv.Put("x", "new");
  kv.Put("y", "added");
  EXPECT_EQ(*snap.Get("x"), "old");
  EXPECT_FALSE(snap.Get("y").ok());
  EXPECT_EQ(*kv.Get("x"), "new");
}

TEST(KVStoreTest, IteratorRange) {
  KVStore kv;
  for (char c = 'a'; c <= 'f'; ++c) {
    kv.Put(std::string(1, c), "v");
  }
  auto it = kv.NewIterator("b", "e");
  std::string seen;
  for (; it.Valid(); it.Next()) seen += it.key();
  EXPECT_EQ(seen, "bcd");
}

TEST(KVStoreTest, IteratorFullScanIsOrdered) {
  KVStore kv;
  kv.Put("zebra", "1");
  kv.Put("apple", "2");
  kv.Put("mango", "3");
  auto it = kv.NewIterator();
  std::vector<std::string> keys;
  for (; it.Valid(); it.Next()) keys.push_back(it.key());
  EXPECT_EQ(keys, (std::vector<std::string>{"apple", "mango", "zebra"}));
}

TEST(KVStoreTest, CheckpointRestoreRoundTrip) {
  KVStore kv;
  kv.Put("a", "1");
  kv.Put("b", "2");
  const std::string checkpoint = kv.Checkpoint();

  KVStore other;
  other.Put("junk", "x");
  ASSERT_TRUE(other.Restore(checkpoint).ok());
  EXPECT_EQ(other.Size(), 2u);
  EXPECT_EQ(*other.Get("a"), "1");
  EXPECT_FALSE(other.Contains("junk"));
}

TEST(KVStoreTest, RestoreRejectsCorruption) {
  KVStore kv;
  EXPECT_EQ(kv.Restore("garbage").code(), StatusCode::kCorruption);
}

TEST(KVStoreTest, RestoreCorruptionSweep) {
  // Flip one byte at EVERY offset of a checkpoint: each mutant must be
  // rejected as Corruption and must leave the target store untouched.
  KVStore kv;
  kv.Put("alpha", "1");
  kv.Put("beta", std::string("\x00\xff", 2));
  kv.Delete("absent");
  const std::string checkpoint = kv.Checkpoint();

  for (std::size_t offset = 0; offset < checkpoint.size(); ++offset) {
    for (const char flip : {char(0x01), char(0x80)}) {
      std::string mutant = checkpoint;
      mutant[offset] = static_cast<char>(mutant[offset] ^ flip);
      KVStore target;
      target.Put("sentinel", "intact");
      const Status s = target.Restore(mutant);
      EXPECT_EQ(s.code(), StatusCode::kCorruption)
          << "offset " << offset << ": " << s.ToString();
      EXPECT_EQ(*target.Get("sentinel"), "intact")
          << "store mutated by rejected restore at offset " << offset;
    }
  }
}

TEST(KVStoreTest, RestoreTruncationSweep) {
  // Every proper prefix of a checkpoint must be rejected without touching
  // the store.
  KVStore kv;
  kv.Put("key", "value");
  const std::string checkpoint = kv.Checkpoint();

  for (std::size_t len = 0; len < checkpoint.size(); ++len) {
    KVStore target;
    target.Put("sentinel", "intact");
    const Status s = target.Restore(checkpoint.substr(0, len));
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "length " << len;
    EXPECT_EQ(*target.Get("sentinel"), "intact") << "length " << len;
  }
}

TEST(KVStoreTest, ConcurrentReadersAndWriters) {
  KVStore kv;
  ThreadPool pool(4);
  pool.ParallelFor(0, 1000, [&](std::size_t i) {
    const std::string key = "k" + std::to_string(i % 50);
    kv.Put(key, std::to_string(i));
    auto snap = kv.GetSnapshot();
    (void)snap.Get(key);
    (void)kv.Get(key);
  });
  EXPECT_EQ(kv.Size(), 50u);
}

// ---------- StateDB ----------

TEST(StateDBTest, MissingAddressReadsZero) {
  StateDB db;
  EXPECT_EQ(db.Get(Address(42)), 0);
}

TEST(StateDBTest, SetGet) {
  StateDB db;
  db.Set(Address(1), 100);
  db.Set(Address(2), -50);
  EXPECT_EQ(db.Get(Address(1)), 100);
  EXPECT_EQ(db.Get(Address(2)), -50);
  EXPECT_EQ(db.Size(), 2u);
}

TEST(StateDBTest, ApplyWritesBatch) {
  StateDB db;
  const std::vector<StateWrite> writes = {{Address(1), 5}, {Address(2), 6}};
  db.ApplyWrites(writes);
  EXPECT_EQ(db.Get(Address(1)), 5);
  EXPECT_EQ(db.Get(Address(2)), 6);
}

TEST(StateDBTest, SnapshotIsImmutable) {
  StateDB db;
  db.Set(Address(1), 10);
  const StateSnapshot snap = db.MakeSnapshot(1);
  db.Set(Address(1), 20);
  db.Set(Address(2), 30);
  EXPECT_EQ(snap.Get(Address(1)), 10);
  EXPECT_EQ(snap.Get(Address(2)), 0);
  EXPECT_EQ(snap.epoch(), 1u);
}

TEST(StateDBTest, RootHashChangesWithState) {
  StateDB db;
  const Hash256 empty_root = db.RootHash();
  db.Set(Address(1), 1);
  const Hash256 one_root = db.RootHash();
  EXPECT_NE(empty_root, one_root);
  db.Set(Address(1), 2);
  EXPECT_NE(db.RootHash(), one_root);
}

TEST(StateDBTest, RootHashIsOrderInsensitive) {
  StateDB a, b;
  a.Set(Address(1), 10);
  a.Set(Address(2), 20);
  b.Set(Address(2), 20);
  b.Set(Address(1), 10);
  EXPECT_EQ(a.RootHash(), b.RootHash());
}

TEST(StateDBTest, RootHashIsStableAcrossCalls) {
  StateDB db;
  db.Set(Address(7), 7);
  EXPECT_EQ(db.RootHash(), db.RootHash());
}

TEST(StateDBTest, FlushPersistsToKV) {
  KVStore kv;
  StateDB db(&kv);
  db.Set(Address(1), 42);
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_GE(kv.Size(), 1u);
  // Flushing twice with no new writes adds nothing.
  const std::size_t size_after = kv.Size();
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_EQ(kv.Size(), size_after);
}

TEST(StateDBTest, RootHashSurvivesFlush) {
  // Regression: Flush consumes the dirty markers; the commitment trie must
  // be synced first or a post-flush RootHash would miss the writes.
  StateDB db;
  db.Set(Address(9), 99);
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_FALSE(db.RootHash().IsZero());

  StateDB reference;
  reference.Set(Address(9), 99);
  EXPECT_EQ(db.RootHash(), reference.RootHash());
}

TEST(StateDBTest, ConcurrentDisjointWritesAreSafe) {
  StateDB db;
  ThreadPool pool(4);
  pool.ParallelFor(0, 10000, [&](std::size_t i) {
    db.Set(Address(i), static_cast<StateValue>(i));
  });
  for (std::size_t i = 0; i < 10000; i += 997) {
    EXPECT_EQ(db.Get(Address(i)), static_cast<StateValue>(i));
  }
  EXPECT_EQ(db.Size(), 10000u);
}

TEST(StateDBTest, SnapshotSizeMatches) {
  StateDB db;
  for (std::uint64_t i = 0; i < 100; ++i) db.Set(Address(i), 1);
  EXPECT_EQ(db.MakeSnapshot(0).Size(), 100u);
}

// ---------- StateDB against a copying model ----------

/// The StateDB contract restated as the simplest thing that meets it: a
/// std::map whose snapshots are full copies, a dirty set that every write
/// marks, and the cells the successful flushes persisted.
struct StateModel {
  using Cells = std::map<std::uint64_t, StateValue>;
  Cells cells;
  std::set<std::uint64_t> dirty;
  Cells persisted;

  void Set(std::uint64_t a, StateValue v) {
    cells[a] = v;
    dirty.insert(a);
  }
  static StateValue Get(const Cells& from, std::uint64_t a) {
    const auto it = from.find(a);
    return it == from.end() ? 0 : it->second;
  }
  static Hash256 Root(const Cells& from) {
    MerklePatriciaTrie trie;
    for (const auto& [a, v] : from) {
      trie.Put(StateDB::StateKey(Address(a)), StateDB::EncodeValue(v));
    }
    return trie.RootHash();
  }
  std::string DirtyBatch() const {
    WriteBatch batch;
    for (const std::uint64_t a : dirty) {
      batch.Put(StateDB::StateKey(Address(a)),
                StateDB::EncodeValue(cells.at(a)));
    }
    return batch.Serialize();
  }
};

StateModel::Cells PersistedCells(const KVStore& kv) {
  StateModel::Cells out;
  for (auto it = kv.NewIterator("s/", "s0"); it.Valid(); it.Next()) {
    out[GetFixed64(std::string_view(it.key()).substr(2))] =
        static_cast<StateValue>(GetFixed64(it.value()));
  }
  return out;
}

TEST(StateDBTest, MatchesCopyingModelUnderRandomOperations) {
  constexpr std::uint64_t kCells = 40;  // few, so writes collide often
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    const auto value = [&rng] {
      return static_cast<StateValue>(rng.Below(2001)) - 1000;
    };
    KVStore kv;
    StateDB db(&kv);
    StateModel model;
    struct Held {
      StateSnapshot snapshot;
      StateModel::Cells cells;
    };
    std::vector<Held> held;
    EpochId epoch = 0;
    for (int step = 0; step < 300 && !HasFailure(); ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      switch (rng.Below(10)) {
        case 0:
        case 1: {
          const std::uint64_t a = rng.Below(kCells);
          const StateValue v = value();
          db.Set(Address(a), v);
          model.Set(a, v);
          break;
        }
        case 2: {  // repeats allowed: the last write to a cell wins
          std::vector<StateWrite> writes(rng.Between(1, 6));
          for (StateWrite& w : writes) {
            w = {Address(rng.Below(kCells)), value()};
            model.Set(w.address.value, w.value);
          }
          db.ApplyWrites(writes);
          break;
        }
        case 3: {  // some snapshots are held across later writes
          StateSnapshot snapshot = db.MakeSnapshot(++epoch);
          EXPECT_EQ(snapshot.root(), StateModel::Root(model.cells));
          EXPECT_EQ(snapshot.epoch(), epoch);
          if (rng.Chance(0.5)) {
            held.push_back({std::move(snapshot), model.cells});
          }
          if (!held.empty() && rng.Chance(0.3)) {
            held.erase(held.begin() +
                       static_cast<std::ptrdiff_t>(rng.Below(held.size())));
          }
          break;
        }
        case 4:
          EXPECT_EQ(db.RootHash(), StateModel::Root(model.cells));
          break;
        case 5: {
          WriteBatch batch;
          db.AppendDirtyTo(batch);
          EXPECT_EQ(batch.Serialize(), model.DirtyBatch());
          break;
        }
        case 6: {  // the write is rejected: every dirty marker stays
          fault::ScopedPlan armed(
              fault::Plan().FailAt(fault::sites::kKvWrite));
          EXPECT_EQ(db.Flush().ok(), model.dirty.empty());
          break;
        }
        case 7:
          ASSERT_TRUE(db.Flush().ok());
          for (const std::uint64_t a : model.dirty) {
            model.persisted[a] = model.cells.at(a);
          }
          model.dirty.clear();
          break;
        case 8: {  // the caller writes the appended batch itself
          WriteBatch batch;
          db.AppendDirtyTo(batch);
          ASSERT_TRUE(kv.Write(batch).ok());
          db.ClearDirty();
          for (const std::uint64_t a : model.dirty) {
            model.persisted[a] = model.cells.at(a);
          }
          model.dirty.clear();
          break;
        }
        case 9: {  // a recovery from what the flushes persisted
          StateDB recovered(&kv);
          ASSERT_TRUE(recovered.LoadFromStorage().ok());
          EXPECT_EQ(recovered.Size(), model.persisted.size());
          EXPECT_EQ(recovered.RootHash(), StateModel::Root(model.persisted));
          WriteBatch batch;
          recovered.AppendDirtyTo(batch);
          EXPECT_TRUE(batch.Empty());
          break;
        }
      }
      for (std::uint64_t a = 0; a <= kCells; ++a) {
        EXPECT_EQ(db.Get(Address(a)), StateModel::Get(model.cells, a)) << a;
      }
      EXPECT_EQ(db.Size(), model.cells.size());
      for (const Held& h : held) {
        EXPECT_EQ(h.snapshot.Size(), h.cells.size());
        for (std::uint64_t a = 0; a <= kCells; ++a) {
          EXPECT_EQ(h.snapshot.Get(Address(a)), StateModel::Get(h.cells, a))
              << "held snapshot, cell " << a;
        }
      }
      EXPECT_EQ(PersistedCells(kv), model.persisted);
    }
  }
}

}  // namespace
}  // namespace nezha
