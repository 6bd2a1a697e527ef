// Crash-recovery and mempool tests: reloading state/ledger from the KV
// store, root cross-checks, corruption detection, commit-journal
// roll-forward, and transaction-pool behaviour.
#include <gtest/gtest.h>

#include <atomic>

#include "analysis/det_checkpoint.h"
#include "common/bytes.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "node/commit_journal.h"
#include "node/full_node.h"
#include "node/mempool.h"
#include "obs/metrics.h"
#include "vm/smallbank.h"
#include "workload/smallbank_workload.h"

namespace nezha {
namespace {

// ---------- StateDB recovery ----------

TEST(StateRecoveryTest, RoundTripsThroughKV) {
  KVStore kv;
  {
    StateDB db(&kv);
    db.Set(Address(1), 100);
    db.Set(Address(999), -5);
    ASSERT_TRUE(db.Flush().ok());
  }
  StateDB recovered(&kv);
  ASSERT_TRUE(recovered.LoadFromStorage().ok());
  EXPECT_EQ(recovered.Get(Address(1)), 100);
  EXPECT_EQ(recovered.Get(Address(999)), -5);
  EXPECT_EQ(recovered.Size(), 2u);
}

TEST(StateRecoveryTest, RecoveredRootMatchesOriginal) {
  KVStore kv;
  Hash256 original;
  {
    StateDB db(&kv);
    for (std::uint64_t i = 0; i < 500; ++i) {
      db.Set(Address(i), static_cast<StateValue>(i * 7));
    }
    ASSERT_TRUE(db.Flush().ok());
    original = db.RootHash();
  }
  StateDB recovered(&kv);
  ASSERT_TRUE(recovered.LoadFromStorage().ok());
  EXPECT_EQ(recovered.RootHash(), original);
}

TEST(StateRecoveryTest, UnflushedWritesAreLost) {
  KVStore kv;
  {
    StateDB db(&kv);
    db.Set(Address(1), 1);
    ASSERT_TRUE(db.Flush().ok());
    db.Set(Address(2), 2);  // never flushed: the "crash" loses it
  }
  StateDB recovered(&kv);
  ASSERT_TRUE(recovered.LoadFromStorage().ok());
  EXPECT_EQ(recovered.Get(Address(1)), 1);
  EXPECT_EQ(recovered.Get(Address(2)), 0);
}

TEST(StateRecoveryTest, RequiresKVAndEmptyDB) {
  StateDB no_kv;
  EXPECT_FALSE(no_kv.LoadFromStorage().ok());

  KVStore kv;
  StateDB db(&kv);
  db.Set(Address(1), 1);
  EXPECT_FALSE(db.LoadFromStorage().ok());  // not empty
}

TEST(StateRecoveryTest, DetectsCorruptRecord) {
  KVStore kv;
  {
    StateDB db(&kv);
    db.Set(Address(1), 1);
    ASSERT_TRUE(db.Flush().ok());
  }
  // Truncate the stored value.
  auto it = kv.NewIterator("s/", "s0");
  ASSERT_TRUE(it.Valid());
  kv.Put(it.key(), "short");
  StateDB recovered(&kv);
  EXPECT_EQ(recovered.LoadFromStorage().code(), StatusCode::kCorruption);
}

// ---------- ledger recovery ----------

TEST(LedgerRecoveryTest, ReloadsChainsAndRoots) {
  KVStore kv;
  Hash256 tip0, root;
  {
    ParallelChainLedger ledger(2, &kv);
    Transaction tx;
    tx.payload = MakeSmallBankCall(SmallBankOp::kGetBalance, {1});
    ASSERT_TRUE(ledger.AppendBlock(ledger.BuildBlock(0, 1, {tx})).ok());
    ASSERT_TRUE(ledger.AppendBlock(ledger.BuildBlock(1, 1, {})).ok());
    root.bytes[0] = 0x42;
    ledger.CommitEpochRoot(1, root);
    ASSERT_TRUE(ledger.AppendBlock(ledger.BuildBlock(0, 2, {})).ok());
    tip0 = ledger.ChainTip(0);
  }
  ParallelChainLedger recovered(2, &kv);
  ASSERT_TRUE(recovered.LoadFromStorage().ok());
  EXPECT_EQ(recovered.ChainHeight(0), 2u);
  EXPECT_EQ(recovered.ChainHeight(1), 1u);
  EXPECT_EQ(recovered.ChainTip(0), tip0);
  EXPECT_EQ(recovered.StateRootBefore(2), root);
}

TEST(LedgerRecoveryTest, DetectsTamperedBlock) {
  KVStore kv;
  {
    ParallelChainLedger ledger(1, &kv);
    ASSERT_TRUE(ledger.AppendBlock(ledger.BuildBlock(0, 1, {})).ok());
  }
  // Corrupt the stored block bytes.
  auto it = kv.NewIterator("b/", "b0");
  ASSERT_TRUE(it.Valid());
  std::string bytes = it.value();
  bytes[bytes.size() / 2] ^= 0x01;
  kv.Put(it.key(), bytes);

  ParallelChainLedger recovered(1, &kv);
  EXPECT_FALSE(recovered.LoadFromStorage().ok());
}

TEST(LedgerRecoveryTest, RejectsNonEmptyLedger) {
  KVStore kv;
  ParallelChainLedger ledger(1, &kv);
  ASSERT_TRUE(ledger.AppendBlock(ledger.BuildBlock(0, 1, {})).ok());
  EXPECT_FALSE(ledger.LoadFromStorage().ok());
}

// ---------- full node recovery ----------

TEST(NodeRecoveryTest, RestartContinuesIdenticallyToUnbrokenRun) {
  // Run A: 4 epochs straight through. Run B: 2 epochs, "crash", recover a
  // fresh node from storage, process epochs 3-4. Final roots must match.
  const auto make_config = [] {
    NodeConfig config;
    config.scheme = SchemeKind::kNezha;
    config.worker_threads = 2;
    config.max_chains = 2;
    return config;
  };
  const auto drive = [](FullNode& node, SmallBankWorkload& workload,
                        EpochId from, EpochId to) -> Hash256 {
    Hash256 root{};
    for (EpochId epoch = from; epoch <= to; ++epoch) {
      for (ChainId chain = 0; chain < 2; ++chain) {
        Block block =
            node.ledger().BuildBlock(chain, epoch, workload.MakeBatch(30));
        EXPECT_TRUE(node.ledger().AppendBlock(std::move(block)).ok());
      }
      auto batch = node.ledger().SealEpoch(epoch);
      EXPECT_TRUE(batch.ok());
      auto report = node.ProcessEpoch(*batch);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      root = report->state_root;
    }
    return root;
  };
  WorkloadConfig wl;
  wl.num_accounts = 200;
  wl.skew = 0.6;

  // Continuous run.
  KVStore kv_a;
  FullNode node_a(make_config(), &kv_a);
  SmallBankWorkload workload_a(wl, 77);
  SmallBankWorkload::InitAccounts(node_a.state(), wl.num_accounts, 100, 100);
  ASSERT_TRUE(node_a.state().Flush().ok());
  node_a.ledger().CommitEpochRoot(0, node_a.state().RootHash());
  const Hash256 continuous = drive(node_a, workload_a, 1, 4);

  // Crash-and-recover run (same workload stream).
  KVStore kv_b;
  SmallBankWorkload workload_b(wl, 77);
  {
    FullNode node_b(make_config(), &kv_b);
    SmallBankWorkload::InitAccounts(node_b.state(), wl.num_accounts, 100, 100);
    ASSERT_TRUE(node_b.state().Flush().ok());
    node_b.ledger().CommitEpochRoot(0, node_b.state().RootHash());
    drive(node_b, workload_b, 1, 2);
  }  // crash: everything in memory is gone
  FullNode recovered(make_config(), &kv_b);
  ASSERT_TRUE(recovered.Recover().ok());
  const Hash256 resumed = drive(recovered, workload_b, 3, 4);

  EXPECT_EQ(resumed, continuous);
}

TEST(NodeRecoveryTest, FirstCommitAfterRecoveryWritesOnlyItsEpoch) {
  // The state a recovery loads is already in storage: epoch 3's commit
  // batch after a crash at epoch 2 must hold what the uninterrupted node's
  // holds (its kCommit checkpoint covers the record count, bytes and
  // digest), not every loaded cell again.
  NodeConfig config;
  config.worker_threads = 2;
  config.max_chains = 2;
  WorkloadConfig wl;
  wl.num_accounts = 300;
  const auto genesis = [&](FullNode& node) {
    SmallBankWorkload::InitAccounts(node.state(), wl.num_accounts, 100, 100);
    ASSERT_TRUE(node.state().Flush().ok());
    node.ledger().CommitEpochRoot(0, node.state().RootHash());
  };
  const auto run_epoch = [](FullNode& node, SmallBankWorkload& workload,
                            EpochId epoch) {
    for (ChainId chain = 0; chain < 2; ++chain) {
      Block block =
          node.ledger().BuildBlock(chain, epoch, workload.MakeBatch(20));
      ASSERT_TRUE(node.ledger().AppendBlock(std::move(block)).ok());
    }
    auto batch = node.ledger().SealEpoch(epoch);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(node.ProcessEpoch(*batch).ok());
  };
  analysis::DetCheckpointRecorder& det =
      analysis::DetCheckpointRecorder::Global();
  det.SetEnabled(true);
  det.SetCapture(true);
  det.Clear();
  const auto commit_record = [&det] {
    const auto record = det.Find(3);
    return record && record->Has(analysis::DetStage::kCommit)
               ? record->Canonical(analysis::DetStage::kCommit)
               : std::string("missing");
  };

  KVStore kv_a;
  FullNode node_a(config, &kv_a);
  SmallBankWorkload workload_a(wl, 5);
  genesis(node_a);
  for (EpochId epoch = 1; epoch <= 3; ++epoch) {
    run_epoch(node_a, workload_a, epoch);
  }
  const std::string uninterrupted = commit_record();

  KVStore kv_b;
  SmallBankWorkload workload_b(wl, 5);
  {
    FullNode node_b(config, &kv_b);
    genesis(node_b);
    run_epoch(node_b, workload_b, 1);
    run_epoch(node_b, workload_b, 2);
  }  // crash after epoch 2
  FullNode recovered(config, &kv_b);
  ASSERT_TRUE(recovered.Recover().ok());
  run_epoch(recovered, workload_b, 3);
  const std::string resumed = commit_record();

  det.SetCapture(false);
  det.SetEnabled(std::nullopt);
  det.Clear();
  EXPECT_NE(uninterrupted, "missing");
  EXPECT_EQ(resumed, uninterrupted);
}

TEST(NodeRecoveryTest, DetectsStateLedgerMismatch) {
  KVStore kv;
  {
    FullNode node(NodeConfig{}, &kv);
    node.state().Set(Address(1), 1);
    ASSERT_TRUE(node.state().Flush().ok());
    node.ledger().CommitEpochRoot(0, node.state().RootHash());
  }
  // Tamper with the persisted state so it no longer matches the root.
  auto it = kv.NewIterator("s/", "s0");
  ASSERT_TRUE(it.Valid());
  std::string bytes = it.value();
  bytes[7] = static_cast<char>(bytes[7] + 1);
  kv.Put(it.key(), bytes);

  FullNode recovered(NodeConfig{}, &kv);
  EXPECT_EQ(recovered.Recover().status().code(), StatusCode::kCorruption);
}

// ---------- commit journal ----------

TEST(CommitJournalTest, SerializeRoundTrip) {
  CommitJournal journal;
  journal.epoch = 7;
  journal.state_root.bytes[0] = 0xab;
  journal.receipt_root.bytes[31] = 0xcd;
  journal.block_ids.resize(2);
  journal.block_ids[1].bytes[5] = 0x11;
  journal.chain_tips.emplace_back(0, Hash256{});
  journal.chain_tips.emplace_back(3, journal.block_ids[1]);
  journal.redo = "opaque redo bytes";

  auto decoded = CommitJournal::Deserialize(journal.Serialize());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch, 7u);
  EXPECT_EQ(decoded->state_root, journal.state_root);
  EXPECT_EQ(decoded->receipt_root, journal.receipt_root);
  EXPECT_EQ(decoded->block_ids, journal.block_ids);
  EXPECT_EQ(decoded->chain_tips, journal.chain_tips);
  EXPECT_EQ(decoded->redo, journal.redo);
  // Header() is the journal minus the (bulky) redo payload.
  auto header = CommitJournal::Deserialize(journal.Header().Serialize());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->epoch, 7u);
  EXPECT_TRUE(header->redo.empty());
}

TEST(CommitJournalTest, EveryByteFlipIsDetected) {
  CommitJournal journal;
  journal.epoch = 3;
  journal.redo = "redo";
  journal.block_ids.resize(1);
  const std::string bytes = journal.Serialize();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutant = bytes;
    mutant[i] ^= 0x01;
    EXPECT_EQ(CommitJournal::Deserialize(mutant).status().code(),
              StatusCode::kCorruption)
        << "flip at offset " << i;
  }
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(CommitJournal::Deserialize(bytes.substr(0, len)).ok())
        << "truncated to " << len;
  }
}

TEST(CommitJournalTest, CountsBeyondTheirBytesRejected) {
  // A well-checksummed frame whose block-id or tip count no body can back
  // must be Corruption, not a throw or an oversized allocation.
  for (const bool tips : {false, true}) {
    std::string body = "NZJL";
    PutVarint64(body, 1);                 // epoch
    body += std::string(64, '\0');        // state and receipt roots
    if (tips) PutVarint64(body, 0);       // no block ids
    PutVarint64(body, std::uint64_t{1} << 62);
    body += std::string(40, '\0');
    const Hash256 digest = Sha256::Digest(body);
    body.append(reinterpret_cast<const char*>(digest.bytes.data()), 32);
    Status status = Status::Internal("threw");
    EXPECT_NO_THROW(status = CommitJournal::Deserialize(body).status());
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << "tips=" << tips;
  }
}

TEST(NodeRecoveryTest, PendingJournalRollsForwardAfterCrash) {
  // Crash between the journal write and the commit batch; the restarted
  // node must report a roll-forward and land on the committed state.
  NodeConfig config;
  config.max_chains = 1;
  config.worker_threads = 1;
  WorkloadConfig wl;
  wl.num_accounts = 60;

  KVStore kv;
  {
    FullNode node(config, &kv);
    SmallBankWorkload workload(wl, 9);
    SmallBankWorkload::InitAccounts(node.state(), wl.num_accounts, 100, 100);
    ASSERT_TRUE(node.state().Flush().ok());
    node.ledger().CommitEpochRoot(0, node.state().RootHash());
    Block block = node.ledger().BuildBlock(0, 1, workload.MakeBatch(25));
    ASSERT_TRUE(node.ledger().AppendBlock(std::move(block)).ok());
    auto batch = node.ledger().SealEpoch(1);
    ASSERT_TRUE(batch.ok());
    fault::ScopedPlan armed(
        fault::Plan().CrashAt(fault::sites::kCommitAfterJournal));
    auto report = node.ProcessEpoch(*batch);
    ASSERT_FALSE(report.ok());
    ASSERT_TRUE(fault::IsInjectedCrash(report.status()));
  }
  ASSERT_TRUE(kv.Contains(kPendingJournalKey));

  FullNode recovered(config, &kv);
  auto rec = recovered.Recover();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->rolled_forward);
  EXPECT_EQ(rec->last_committed, EpochId(1));
  EXPECT_EQ(recovered.state().RootHash(), rec->state_root);
  EXPECT_FALSE(kv.Contains(kPendingJournalKey));  // consumed by roll-forward
  EXPECT_TRUE(kv.Contains(kLastJournalKey));
}

TEST(NodeRecoveryTest, CorruptPendingJournalDetected) {
  KVStore kv;
  {
    FullNode node(NodeConfig{}, &kv);
    node.state().Set(Address(1), 1);
    ASSERT_TRUE(node.state().Flush().ok());
    node.ledger().CommitEpochRoot(0, node.state().RootHash());
  }
  kv.Put(kPendingJournalKey, "definitely not a journal");
  FullNode recovered(NodeConfig{}, &kv);
  EXPECT_EQ(recovered.Recover().status().code(), StatusCode::kCorruption);
}

TEST(NodeRecoveryTest, CorruptLastJournalDetected) {
  KVStore kv;
  {
    FullNode node(NodeConfig{}, &kv);
    SmallBankWorkload workload(WorkloadConfig{}, 1);
    SmallBankWorkload::InitAccounts(node.state(), 50, 100, 100);
    ASSERT_TRUE(node.state().Flush().ok());
    node.ledger().CommitEpochRoot(0, node.state().RootHash());
    Block block = node.ledger().BuildBlock(0, 1, workload.MakeBatch(10));
    ASSERT_TRUE(node.ledger().AppendBlock(std::move(block)).ok());
    auto batch = node.ledger().SealEpoch(1);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(node.ProcessEpoch(*batch).ok());
  }
  auto bytes = kv.Get(kLastJournalKey);
  ASSERT_TRUE(bytes.ok());
  std::string mutant = *bytes;
  mutant[mutant.size() / 2] ^= 0x01;
  kv.Put(kLastJournalKey, mutant);
  FullNode recovered(NodeConfig{}, &kv);
  EXPECT_EQ(recovered.Recover().status().code(), StatusCode::kCorruption);
}

// ---------- mempool ----------

Transaction TxWithNonce(std::uint64_t nonce) {
  Transaction tx;
  tx.nonce = nonce;
  tx.payload = MakeSmallBankCall(SmallBankOp::kGetBalance, {nonce});
  return tx;
}

TEST(MempoolTest, FifoOrder) {
  Mempool pool;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(pool.Add(TxWithNonce(i)).ok());
  }
  const auto batch = pool.TakeBatch(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].nonce, 1u);
  EXPECT_EQ(batch[2].nonce, 3u);
  EXPECT_EQ(pool.PendingCount(), 2u);
}

TEST(MempoolTest, RejectsDuplicates) {
  Mempool pool;
  ASSERT_TRUE(pool.Add(TxWithNonce(1)).ok());
  EXPECT_EQ(pool.Add(TxWithNonce(1)).code(), StatusCode::kAlreadyExists);
  // Still deduplicated after the tx leaves in a batch (until committed).
  pool.TakeBatch(1);
  EXPECT_EQ(pool.Add(TxWithNonce(1)).code(), StatusCode::kAlreadyExists);
}

TEST(MempoolTest, DuplicateRejectIsIdempotentAndCounted) {
  obs::Counter* duplicates =
      obs::Registry().GetCounter("nezha_mempool_duplicate_total");
  const std::uint64_t before = duplicates->Value();

  Mempool pool;
  ASSERT_TRUE(pool.Add(TxWithNonce(7)).ok());
  ASSERT_TRUE(pool.Add(TxWithNonce(8)).ok());
  const std::size_t depth = pool.PendingCount();

  // Re-submitting the same transaction N times rejects every attempt,
  // bumps the counter per attempt, and leaves the pool untouched.
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_EQ(pool.Add(TxWithNonce(7)).code(), StatusCode::kAlreadyExists);
  }
  EXPECT_EQ(duplicates->Value(), before + 3);
  EXPECT_EQ(pool.PendingCount(), depth);

  // FIFO order is preserved — the duplicate did not re-queue or reorder.
  const auto batch = pool.TakeBatch(10);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].nonce, 7u);
  EXPECT_EQ(batch[1].nonce, 8u);
}

TEST(MempoolTest, CapacityBound) {
  Mempool pool(2);
  ASSERT_TRUE(pool.Add(TxWithNonce(1)).ok());
  ASSERT_TRUE(pool.Add(TxWithNonce(2)).ok());
  EXPECT_EQ(pool.Add(TxWithNonce(3)).code(), StatusCode::kOutOfRange);
}

TEST(MempoolTest, RemoveCommittedReleasesDedup) {
  Mempool pool;
  const Transaction tx = TxWithNonce(1);
  ASSERT_TRUE(pool.Add(tx).ok());
  const Hash256 id = tx.Id();
  pool.RemoveCommitted(std::vector<Hash256>{id});
  EXPECT_EQ(pool.PendingCount(), 0u);
  EXPECT_FALSE(pool.Contains(id));
  // Re-submission after commitment is allowed again.
  EXPECT_TRUE(pool.Add(tx).ok());
}

TEST(MempoolTest, RemoveCommittedDropsPending) {
  Mempool pool;
  const Transaction keep = TxWithNonce(1);
  const Transaction drop = TxWithNonce(2);
  ASSERT_TRUE(pool.Add(keep).ok());
  ASSERT_TRUE(pool.Add(drop).ok());
  pool.RemoveCommitted(std::vector<Hash256>{drop.Id()});
  const auto batch = pool.TakeBatch(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].nonce, 1u);
}

TEST(MempoolTest, ConcurrentProducersAndConsumer) {
  Mempool pool;
  ThreadPool workers(4);
  std::atomic<std::size_t> taken{0};
  workers.ParallelFor(0, 1000, [&](std::size_t i) {
    if (i % 10 == 9) {
      taken += pool.TakeBatch(5).size();
    } else {
      (void)pool.Add(TxWithNonce(i));
    }
  });
  taken += pool.TakeBatch(10'000).size();
  EXPECT_EQ(taken.load(), 900u);  // every admitted tx comes out exactly once
}

}  // namespace
}  // namespace nezha
