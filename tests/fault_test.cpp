// Fault-injection tests: the injector machinery itself, the storage-layer
// fault semantics (torn/failed writes, failed flushes), the
// crash-at-every-site epoch-commit recovery sweep across all schemes, and
// state sync under injected network faults (docs/ROBUSTNESS.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "node/full_node.h"
#include "node/state_sync.h"
#include "storage/kvstore.h"
#include "storage/state_db.h"
#include "workload/smallbank_workload.h"

namespace nezha {
namespace {

// ---------- the injector itself ----------

TEST(FaultInjectorTest, DisarmedReturnsNone) {
  EXPECT_FALSE(fault::Injector::Global().Armed());
  EXPECT_FALSE(fault::Check("anything").fired());
}

TEST(FaultInjectorTest, FiresOnExactHitNumber) {
  fault::ScopedPlan armed(fault::Plan().FailAt("site/x", 3));
  EXPECT_FALSE(fault::Check("site/x").fired());
  EXPECT_FALSE(fault::Check("site/x").fired());
  EXPECT_EQ(fault::Check("site/x").action, fault::Action::kFail);
  EXPECT_FALSE(fault::Check("site/x").fired());  // max_fires = 1 exhausted
  EXPECT_FALSE(fault::Check("site/other").fired());
}

TEST(FaultInjectorTest, MaxFiresBoundsRepeatedRule) {
  fault::Plan plan;
  plan.Add({"site/x", fault::Action::kFail, /*hit_number=*/0,
            /*probability=*/1.0, /*param=*/0, /*max_fires=*/2});
  fault::ScopedPlan armed(std::move(plan));
  EXPECT_TRUE(fault::Check("site/x").fired());
  EXPECT_TRUE(fault::Check("site/x").fired());
  EXPECT_FALSE(fault::Check("site/x").fired());
  EXPECT_EQ(fault::Injector::Global().FireCount(), 2u);
}

TEST(FaultInjectorTest, ProbabilityIsSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    fault::Plan plan(seed);
    plan.WithProbability("site/p", fault::Action::kDrop, 0.5);
    fault::ScopedPlan armed(std::move(plan));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(fault::Check("site/p").fired());
    return fired;
  };
  const auto a = run(7);
  EXPECT_EQ(a, run(7));       // same seed, same schedule
  EXPECT_NE(a, run(8));       // different seed, different schedule
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);  // p=0.5 over 64 draws
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjectorTest, HitCountsObserveSites) {
  fault::ScopedPlan armed(fault::Plan{});  // empty plan: count, fire nothing
  (void)fault::Check("site/a");
  (void)fault::Check("site/a");
  (void)fault::Check("site/b");
  const auto hits = fault::Injector::Global().HitCounts();
  EXPECT_EQ(hits.at("site/a"), 2u);
  EXPECT_EQ(hits.at("site/b"), 1u);
  EXPECT_EQ(fault::Injector::Global().FireCount(), 0u);
}

TEST(FaultInjectorTest, CrashStatusIsRecognizable) {
  const Status crash = fault::CrashStatus("site/x");
  EXPECT_EQ(crash.code(), StatusCode::kAborted);
  EXPECT_TRUE(fault::IsInjectedCrash(crash));
  EXPECT_FALSE(fault::IsInjectedCrash(Status::Aborted("real abort")));
  EXPECT_FALSE(fault::IsInjectedCrash(Status::Ok()));
}

// ---------- storage-layer fault semantics ----------

TEST(StorageFaultTest, FailedWriteLeavesStoreUntouched) {
  KVStore kv;
  kv.Put("keep", "1");
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  fault::ScopedPlan armed(fault::Plan().FailAt(fault::sites::kKvWrite));
  EXPECT_EQ(kv.Write(batch).code(), StatusCode::kUnavailable);
  EXPECT_FALSE(kv.Contains("a"));
  EXPECT_FALSE(kv.Contains("b"));
  EXPECT_TRUE(kv.Contains("keep"));
}

TEST(StorageFaultTest, TornWriteAppliesExactPrefix) {
  KVStore kv;
  WriteBatch batch;
  for (char c = 'a'; c <= 'e'; ++c) batch.Put(std::string(1, c), "v");
  fault::ScopedPlan armed(fault::Plan().TearAt(fault::sites::kKvWrite, 2));
  EXPECT_EQ(kv.Write(batch).code(), StatusCode::kAborted);
  EXPECT_TRUE(kv.Contains("a"));
  EXPECT_TRUE(kv.Contains("b"));
  EXPECT_FALSE(kv.Contains("c"));  // the tear point
  EXPECT_FALSE(kv.Contains("e"));
}

TEST(StorageFaultTest, FailedFlushKeepsDirtyForRetry) {
  KVStore kv;
  StateDB db(&kv);
  db.Set(Address(1), 11);
  fault::ScopedPlan armed(fault::Plan().FailAt(fault::sites::kStateFlush));
  EXPECT_FALSE(db.Flush().ok());
  EXPECT_EQ(kv.Size(), 0u);
  // The single-fire rule is spent: the retry must succeed and persist
  // everything the failed attempt carried.
  ASSERT_TRUE(db.Flush().ok());
  EXPECT_EQ(kv.Size(), 1u);
  StateDB recovered(&kv);
  ASSERT_TRUE(recovered.LoadFromStorage().ok());
  EXPECT_EQ(recovered.Get(Address(1)), 11);
}

TEST(StorageFaultTest, LedgerAppendCrashBeforeAndAfterPersist) {
  // param 0: crash before the block is persisted (block lost);
  // param 1: crash after (block durable, only recovery sees it).
  for (const std::uint64_t when : {0u, 1u}) {
    KVStore kv;
    ParallelChainLedger ledger(1, &kv);
    ASSERT_TRUE(ledger.AppendBlock(ledger.BuildBlock(0, 1, {})).ok());
    fault::Plan plan;
    plan.Add({fault::sites::kLedgerAppend, fault::Action::kCrash, 1, 1.0,
              when, 1});
    fault::ScopedPlan armed(std::move(plan));
    const Status s = ledger.AppendBlock(ledger.BuildBlock(0, 2, {}));
    ASSERT_TRUE(fault::IsInjectedCrash(s)) << s.ToString();
    EXPECT_EQ(ledger.ChainHeight(0), 1u);  // never attached in memory

    ParallelChainLedger recovered(1, &kv);
    ASSERT_TRUE(recovered.LoadFromStorage().ok());
    EXPECT_EQ(recovered.ChainHeight(0), when == 0 ? 1u : 2u);
  }
}

// ---------- crash-at-every-site recovery sweep ----------

NodeConfig MakeConfig(SchemeKind scheme) {
  NodeConfig config;
  config.scheme = scheme;
  config.worker_threads = 2;
  config.max_chains = 2;
  return config;
}

void InitNode(FullNode& node, const WorkloadConfig& wl) {
  SmallBankWorkload::InitAccounts(node.state(), wl.num_accounts, 100, 100);
  ASSERT_TRUE(node.state().Flush().ok());
  node.ledger().CommitEpochRoot(0, node.state().RootHash());
}

void AppendEpochBlocks(FullNode& node, SmallBankWorkload& workload,
                       EpochId epoch) {
  for (ChainId chain = 0; chain < 2; ++chain) {
    Block block =
        node.ledger().BuildBlock(chain, epoch, workload.MakeBatch(20));
    ASSERT_TRUE(node.ledger().AppendBlock(std::move(block)).ok());
  }
}

Result<EpochReport> ProcessSealed(FullNode& node, EpochId epoch) {
  auto batch = node.ledger().SealEpoch(epoch);
  if (!batch.ok()) return batch.status();
  return node.ProcessEpoch(*batch);
}

TEST(CrashRecoverySweepTest, EverySiteEverySchemeNeverTearsState) {
  // For every scheme and every commit-path injection site: process epoch 1
  // cleanly, crash (or tear the commit batch) while committing epoch 2,
  // recover a fresh node, and require the recovered state to be EXACTLY the
  // pre-epoch-2 state or EXACTLY the fully-committed epoch-2 state — with
  // roots, receipt root, journal epoch and ledger agreeing — never a blend.
  const SchemeKind schemes[] = {SchemeKind::kSerial, SchemeKind::kOcc,
                                SchemeKind::kCg, SchemeKind::kNezha,
                                SchemeKind::kNezhaNoReorder};
  WorkloadConfig wl;
  wl.num_accounts = 120;
  wl.skew = 0.5;

  for (const SchemeKind scheme : schemes) {
    // Control run: both epochs clean, recording the two committed reports.
    KVStore kv_control;
    FullNode control(MakeConfig(scheme), &kv_control);
    SmallBankWorkload workload_control(wl, 42);
    InitNode(control, wl);
    AppendEpochBlocks(control, workload_control, 1);
    auto r1 = ProcessSealed(control, 1);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    AppendEpochBlocks(control, workload_control, 2);
    auto r2 = ProcessSealed(control, 2);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();

    for (const std::string& site : fault::CommitPathSites()) {
      SCOPED_TRACE(std::string(SchemeName(scheme)) + " crash at " + site);
      KVStore kv;
      {
        FullNode node(MakeConfig(scheme), &kv);
        SmallBankWorkload workload(wl, 42);
        InitNode(node, wl);
        AppendEpochBlocks(node, workload, 1);
        ASSERT_TRUE(ProcessSealed(node, 1).ok());
        AppendEpochBlocks(node, workload, 2);
        // Arm only around the commit under test; the kvstore/write site is
        // torn mid-batch (record 3) instead of crashed to also exercise the
        // partial-batch repair.
        fault::Plan plan;
        if (site == fault::sites::kKvWrite) {
          plan.TearAt(site, 3);
        } else {
          plan.CrashAt(site);
        }
        fault::ScopedPlan armed(std::move(plan));
        auto report = ProcessSealed(node, 2);
        ASSERT_FALSE(report.ok()) << "injection did not fire";
      }  // the node object dies with everything in memory

      FullNode recovered(MakeConfig(scheme), &kv);
      auto rec = recovered.Recover();
      ASSERT_TRUE(rec.ok()) << rec.status().ToString();

      // Before the journal lands, the epoch is as if it never happened;
      // from the journal write onwards it must recover fully committed.
      const bool committed = site != fault::sites::kCommitBeforeJournal;
      const EpochReport& expected = committed ? *r2 : *r1;
      EXPECT_EQ(rec->state_root, expected.state_root);
      EXPECT_EQ(recovered.state().RootHash(), expected.state_root);
      EXPECT_EQ(rec->receipt_root, expected.receipt_root);
      EXPECT_EQ(rec->last_committed, committed ? EpochId(2) : EpochId(1));
      EXPECT_EQ(recovered.ledger().LastCommittedEpoch(),
                committed ? EpochId(2) : EpochId(1));
      // Roll-forward happens exactly when the crash hit between the pending
      // journal write and the end of the commit batch.
      const bool expect_roll = site == fault::sites::kCommitAfterJournal ||
                               site == fault::sites::kCommitBeforeFlush ||
                               site == fault::sites::kKvWrite;
      EXPECT_EQ(rec->rolled_forward, expect_roll);
      // Epoch-2 blocks were persisted before the commit in every scenario.
      EXPECT_EQ(recovered.ledger().TotalBlocks(), 4u);

      // The recovered node must be able to CONTINUE. If epoch 2 was lost,
      // reprocessing it from the recovered ledger's own blocks must land on
      // the control's epoch-2 state.
      if (!committed) {
        auto redo = ProcessSealed(recovered, 2);
        ASSERT_TRUE(redo.ok()) << redo.status().ToString();
        EXPECT_EQ(redo->state_root, r2->state_root);
        EXPECT_EQ(redo->receipt_root, r2->receipt_root);
      }
    }
  }
}

// A commit that fails must not advance the live ledger: the epoch root
// installs only once the commit has landed — StateDB::Flush on a node
// without a KVStore, the atomic KVStore::Write on a durable node.
TEST(CommitFaultTest, FailedCommitLeavesEpochRootUninstalled) {
  WorkloadConfig wl;
  wl.num_accounts = 120;
  wl.skew = 0.5;
  struct FailCase {
    const char* site;
    bool durable;
  };
  const FailCase cases[] = {{fault::sites::kStateFlush, false},
                            {fault::sites::kKvWrite, true}};
  for (const FailCase& c : cases) {
    SCOPED_TRACE(c.site);
    KVStore kv;
    FullNode node(MakeConfig(SchemeKind::kNezha), c.durable ? &kv : nullptr);
    SmallBankWorkload workload(wl, 42);
    InitNode(node, wl);
    AppendEpochBlocks(node, workload, 1);
    ASSERT_TRUE(ProcessSealed(node, 1).ok());
    ASSERT_EQ(node.ledger().LastCommittedEpoch(), EpochId(1));
    AppendEpochBlocks(node, workload, 2);
    {
      fault::ScopedPlan armed(fault::Plan().FailAt(c.site));
      ASSERT_FALSE(ProcessSealed(node, 2).ok()) << "injection did not fire";
    }
    EXPECT_EQ(node.ledger().LastCommittedEpoch(), EpochId(1));
  }
}

// ---------- state sync under fire ----------

void FillState(StateDB& db, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    db.Set(Address(i * 3 + 1), static_cast<StateValue>(i * 13 + 7));
  }
}

TEST(SyncFaultTest, CompletesUnderDropAndCorruption) {
  StateDB source;
  FillState(source, 2000);
  StateSyncServer server(source, /*chunk_size=*/64);
  ServerChunkSource transport(server);

  // 20% drops + 5% in-flight corruption + occasional over-deadline delays.
  fault::Plan plan(1234);
  plan.WithProbability(fault::sites::kSyncServeChunk, fault::Action::kDrop,
                       0.20);
  plan.WithProbability(fault::sites::kSyncServeChunk, fault::Action::kCorrupt,
                       0.05, /*mode: transport flip*/ 0);
  plan.WithProbability(fault::sites::kSyncServeChunk, fault::Action::kDelay,
                       0.05, /*ms*/ 200);
  fault::ScopedPlan armed(std::move(plan));

  StateSyncClient client(server.root());
  SyncRetryPolicy policy;
  policy.max_attempts_per_chunk = 32;
  policy.chunk_timeout_ms = 50;  // the injected 200ms delay times out
  StateDB target;
  const Status s = client.SyncFrom(transport, target, policy);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(target.RootHash(), server.root());
  EXPECT_EQ(target.Size(), source.Size());

  const SyncStats& stats = client.stats();
  EXPECT_EQ(stats.chunks_verified, server.NumChunks());
  EXPECT_GT(stats.drops, 0u);
  EXPECT_GT(stats.checksum_failures, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.backoff_ms_total, 0.0);
  EXPECT_EQ(stats.proof_failures, 0u);  // transport noise is not a lie
  EXPECT_EQ(stats.sources_blacklisted, 0u);
}

TEST(SyncFaultTest, TruncatedChunkIsRetried) {
  StateDB source;
  FillState(source, 300);
  StateSyncServer server(source, 100);
  ServerChunkSource transport(server);
  fault::Plan plan;
  plan.Add({fault::sites::kSyncServeChunk, fault::Action::kTruncate, 1, 1.0,
            0, 1});
  fault::ScopedPlan armed(std::move(plan));

  StateSyncClient client(server.root());
  StateDB target;
  ASSERT_TRUE(client.SyncFrom(transport, target, {}).ok());
  EXPECT_EQ(target.RootHash(), server.root());
  EXPECT_EQ(client.stats().checksum_failures, 1u);
  EXPECT_EQ(client.stats().retries, 1u);
}

/// A malicious source: forges a boundary record AND recomputes the checksum
/// so only the boundary proof can expose the lie.
class ForgingSource : public ChunkSource {
 public:
  explicit ForgingSource(const StateSyncServer& server) : server_(server) {}

  Result<StateChunk> FetchChunk(std::uint64_t index,
                                double /*timeout_ms*/) override {
    auto chunk = server_.GetChunk(index);
    if (chunk.ok() && !chunk->records.empty()) {
      chunk->records.back().value ^= 1;
      chunk->checksum = chunk->ComputeChecksum();
    }
    return chunk;
  }
  std::string Name() const override { return "forger"; }

 private:
  const StateSyncServer& server_;
};

TEST(SyncFaultTest, ForgedProofServerIsBlacklisted) {
  StateDB source;
  FillState(source, 500);
  StateSyncServer server(source, 100);
  ForgingSource forger(server);

  StateSyncClient client(server.root());
  SyncRetryPolicy policy;
  policy.blacklist_after_proof_failures = 3;
  StateDB target;
  const Status s = client.SyncFrom(forger, target, policy);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.stats().proof_failures, 3u);
  EXPECT_EQ(client.stats().sources_blacklisted, 1u);
  EXPECT_EQ(target.Size(), 0u);  // nothing installed from a liar
}

TEST(SyncFaultTest, FailsOverFromForgerToHonestSource) {
  StateDB source;
  FillState(source, 500);
  StateSyncServer server(source, 100);
  ForgingSource forger(server);
  ServerChunkSource honest(server, "honest");

  StateSyncClient client(server.root());
  ChunkSource* const sources[] = {&forger, &honest};
  StateDB target;
  const Status s = client.SyncFrom(sources, target, {});
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(target.RootHash(), server.root());
  EXPECT_EQ(client.stats().sources_blacklisted, 1u);
  EXPECT_GE(client.stats().proof_failures, 3u);
}

}  // namespace
}  // namespace nezha
