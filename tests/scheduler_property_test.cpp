// Property-based tests over all concurrency-control schemes (DESIGN.md §6):
// for randomized SmallBank workloads across skews, batch sizes, and seeds,
// every scheduler must produce schedules that are
//   (1) structurally serializable (per-address read<write, distinct writes),
//   (2) equivalent to a serial replay of the committed transactions,
//   (3) deterministic,
//   (4) concurrency-safe inside commit groups (no conflicting pair shares a
//       group).
// Plus Nezha-specific properties: it never aborts a conflict-free batch and
// reordering only reduces aborts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <random>

#include "analysis/schedule_verifier.h"
#include "cc/cg/cg_scheduler.h"
#include "cc/nezha/acg.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "cc/occ/occ_scheduler.h"
#include "common/thread_pool.h"
#include "runtime/concurrent_executor.h"
#include "vm/contract.h"
#include "vm/logged_state.h"
#include "workload/kv_workload.h"
#include "workload/smallbank_workload.h"

namespace nezha {
namespace {

struct Scenario {
  const char* scheme;
  double skew;
  std::size_t num_accounts;
  std::size_t batch_size;
  std::uint64_t seed;
};

std::unique_ptr<Scheduler> Make(const std::string& scheme,
                                ThreadPool* pool = nullptr) {
  if (scheme == "nezha") {
    NezhaOptions options;
    options.pool = pool;
    return std::make_unique<NezhaScheduler>(options);
  }
  if (scheme == "nezha-noreorder") {
    NezhaOptions options;
    options.enable_reordering = false;
    options.pool = pool;
    return std::make_unique<NezhaScheduler>(options);
  }
  if (scheme == "cg") return std::make_unique<CGScheduler>();
  if (scheme == "occ") return std::make_unique<OCCScheduler>();
  return nullptr;
}

/// Forces the serializability oracle on for the enclosing scope, restoring
/// the environment-driven default even when an assertion bails out early.
struct ForcedVerification {
  ForcedVerification() { SetScheduleVerification(true); }
  ~ForcedVerification() { SetScheduleVerification(std::nullopt); }
};

class SchedulerPropertyTest : public ::testing::TestWithParam<Scenario> {
 protected:
  void SetUp() override {
    const Scenario& s = GetParam();
    WorkloadConfig config;
    config.num_accounts = s.num_accounts;
    config.skew = s.skew;
    SmallBankWorkload workload(config, s.seed);
    SmallBankWorkload::InitAccounts(db_, s.num_accounts, 5000, 5000);
    snapshot_ = db_.MakeSnapshot(0);
    txs_ = workload.MakeBatch(s.batch_size);
    exec_ = ExecuteBatchSerial(snapshot_, txs_);
  }

  StateDB db_;
  StateSnapshot snapshot_;
  std::vector<Transaction> txs_;
  BatchExecutionResult exec_;
};

TEST_P(SchedulerPropertyTest, StructurallySerializable) {
  auto scheduler = Make(GetParam().scheme);
  auto schedule = scheduler->BuildSchedule(exec_.rwsets);
  ASSERT_TRUE(schedule.ok());
  const auto report = analysis::VerifySchedule(*schedule, exec_.rwsets);
  EXPECT_TRUE(report.ok) << GetParam().scheme << ": "
                         << report.counterexample.ToString();
}

TEST_P(SchedulerPropertyTest, ReplayEquivalentToSerialExecution) {
  auto scheduler = Make(GetParam().scheme);
  auto schedule = scheduler->BuildSchedule(exec_.rwsets);
  ASSERT_TRUE(schedule.ok());
  const auto report =
      analysis::VerifyByReplay(snapshot_, txs_, *schedule, exec_.rwsets);
  EXPECT_TRUE(report.ok) << GetParam().scheme << ": "
                         << report.counterexample.ToString();
}

TEST_P(SchedulerPropertyTest, OracleProvesSerializabilityWithWitness) {
  // The independent precedence-graph oracle (src/analysis) must accept the
  // schedule and exhibit an equivalent serial order over exactly the
  // committed transactions.
  auto scheduler = Make(GetParam().scheme);
  auto schedule = scheduler->BuildSchedule(exec_.rwsets);
  ASSERT_TRUE(schedule.ok());
  analysis::VerifierOptions options;
  options.reordered = schedule->reordered;
  const auto report =
      analysis::VerifySchedule(*schedule, exec_.rwsets, options);
  ASSERT_TRUE(report.ok)
      << GetParam().scheme << ": " << report.counterexample.ToString();
  EXPECT_EQ(report.witness.size(), schedule->NumCommitted());
  EXPECT_EQ(report.graph_vertices, schedule->NumCommitted());
}

TEST_P(SchedulerPropertyTest, WitnessReplayMatchesScheduledState) {
  // State equivalence against serial execution: re-executing the committed
  // transactions one-by-one, in the oracle's witness order, against an
  // evolving state must land in exactly the state the schedule's recorded
  // write sets produce.
  auto scheduler = Make(GetParam().scheme);
  auto schedule = scheduler->BuildSchedule(exec_.rwsets);
  ASSERT_TRUE(schedule.ok());
  const auto report = analysis::VerifySchedule(*schedule, exec_.rwsets);
  ASSERT_TRUE(report.ok) << report.counterexample.ToString();

  LoggedStateView::Overlay scheduled;
  for (const TxIndex t : report.witness) {
    const ReadWriteSet& rw = exec_.rwsets[t];
    for (std::size_t i = 0; i < rw.writes.size(); ++i) {
      scheduled[rw.writes[i].value] = rw.write_values[i];
    }
  }

  LoggedStateView::Overlay evolving;
  for (const TxIndex t : report.witness) {
    LoggedStateView view(snapshot_, &evolving);
    ASSERT_TRUE(ExecuteContract(txs_[t].payload, view).ok());
    ReadWriteSet rw = view.TakeRWSet();
    ASSERT_TRUE(rw.ok) << GetParam().scheme << ": committed T" << t
                       << " reverted when replayed in witness order";
    for (std::size_t i = 0; i < rw.writes.size(); ++i) {
      evolving[rw.writes[i].value] = rw.write_values[i];
    }
  }

  ASSERT_EQ(evolving.size(), scheduled.size()) << GetParam().scheme;
  for (const auto& [addr, value] : scheduled) {
    const auto it = evolving.find(addr);
    ASSERT_NE(it, evolving.end())
        << GetParam().scheme << ": witness replay missed "
        << ToString(Address(addr));
    EXPECT_EQ(it->second, value)
        << GetParam().scheme << ": divergence at " << ToString(Address(addr));
  }
}

TEST_P(SchedulerPropertyTest, Deterministic) {
  auto s1 = Make(GetParam().scheme);
  auto s2 = Make(GetParam().scheme);
  auto a = s1->BuildSchedule(exec_.rwsets);
  auto b = s2->BuildSchedule(exec_.rwsets);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sequence, b->sequence);
  EXPECT_EQ(a->aborted, b->aborted);
  EXPECT_EQ(a->groups, b->groups);
}

TEST_P(SchedulerPropertyTest, CommitGroupsAreConflictFree) {
  auto scheduler = Make(GetParam().scheme);
  auto schedule = scheduler->BuildSchedule(exec_.rwsets);
  ASSERT_TRUE(schedule.ok());
  for (const auto& group : schedule->groups) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        EXPECT_FALSE(Conflicts(exec_.rwsets[group[i]],
                               exec_.rwsets[group[j]]))
            << GetParam().scheme << ": T" << group[i] << " and T" << group[j]
            << " conflict inside one commit group";
      }
    }
  }
}

TEST_P(SchedulerPropertyTest, AbortedPlusCommittedIsEverything) {
  auto scheduler = Make(GetParam().scheme);
  auto schedule = scheduler->BuildSchedule(exec_.rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->NumAborted() + schedule->NumCommitted(),
            exec_.rwsets.size());
}

TEST_P(SchedulerPropertyTest, ParallelExecutorMatchesSerialReplayUnderOracle) {
  // Every scheme's schedule, built with the oracle forced on (so the
  // precedence-graph verifier re-proves serializability inside
  // BuildSchedule), must commit to the same state root under the
  // group-parallel executor as under one-at-a-time serial replay — in both
  // apply-recorded and re-execute modes. Nezha schemes additionally build
  // through the full parallel pipeline (sharded ACG + cluster sorter).
  const ForcedVerification forced;
  const Scenario& s = GetParam();
  ThreadPool pool(4);
  const bool is_nezha = std::string(s.scheme).rfind("nezha", 0) == 0;
  auto scheduler = Make(s.scheme, is_nezha ? &pool : nullptr);
  auto schedule = scheduler->BuildSchedule(exec_.rwsets);
  ASSERT_TRUE(schedule.ok()) << s.scheme << ": " << schedule.status().ToString();

  StateDB serial_db;
  SmallBankWorkload::InitAccounts(serial_db, s.num_accounts, 5000, 5000);
  for (const auto& group : schedule->groups) {
    for (const TxIndex t : group) {
      const ReadWriteSet& rw = exec_.rwsets[t];
      for (std::size_t i = 0; i < rw.writes.size(); ++i) {
        serial_db.Set(rw.writes[i], rw.write_values[i]);
      }
    }
  }
  const Hash256 expected_root = serial_db.RootHash();

  StateDB recorded_db;
  SmallBankWorkload::InitAccounts(recorded_db, s.num_accounts, 5000, 5000);
  const StateSnapshot recorded_snap = recorded_db.MakeSnapshot(1);
  const ParallelExecStats recorded = ExecuteScheduleParallel(
      pool, recorded_db, recorded_snap, *schedule, exec_.rwsets);
  EXPECT_EQ(recorded_db.RootHash(), expected_root) << s.scheme;
  EXPECT_EQ(recorded.committed_txs, schedule->NumCommitted()) << s.scheme;

  StateDB rerun_db;
  SmallBankWorkload::InitAccounts(rerun_db, s.num_accounts, 5000, 5000);
  const StateSnapshot rerun_snap = rerun_db.MakeSnapshot(1);
  const TxExecFn exec_tx = [this](TxIndex t, LoggedStateView& view) {
    return ExecuteContract(txs_[t].payload, view);
  };
  ExecuteScheduleParallel(pool, rerun_db, rerun_snap, *schedule, exec_.rwsets,
                          ParallelExecMode::kReExecute, exec_tx);
  EXPECT_EQ(rerun_db.RootHash(), expected_root) << s.scheme;
}

// gtest has no printer for Scenario, so each test's listed name ends with the
// raw parameter bytes, led by the low byte of the `scheme` pointer. A string
// literal's address moves whenever any linked code adds or drops a literal,
// which would rename these tests. The names therefore live at fixed offsets
// in one 256-byte-aligned block. The offsets keep the bytes the names have
// always shown: "occ" in 0x00-0x0F and "cg" at 0x9B.
struct alignas(256) SchemeNames {
  char occ[16] = "occ";
  char nezha[16] = "nezha";
  char nezha_noreorder[16] = "nezha-noreorder";
  char unused[0x9B - 48] = {};
  char cg[3] = "cg";
};
constexpr SchemeNames kSchemeNames;
static_assert(offsetof(SchemeNames, cg) == 0x9B);

constexpr Scenario kScenarios[] = {
    // scheme, skew, accounts, batch, seed
    {kSchemeNames.nezha, 0.0, 10'000, 200, 1},
    {kSchemeNames.nezha, 0.6, 10'000, 400, 2},
    {kSchemeNames.nezha, 0.8, 1'000, 400, 3},
    {kSchemeNames.nezha, 1.0, 1'000, 300, 4},
    {kSchemeNames.nezha, 1.2, 100, 200, 5},  // brutal contention
    {kSchemeNames.nezha, 0.9, 20, 150, 6},   // tiny hot world
    {kSchemeNames.nezha_noreorder, 0.8, 1'000, 300, 7},
    {kSchemeNames.nezha_noreorder, 1.0, 100, 200, 8},
    {kSchemeNames.cg, 0.0, 10'000, 150, 9},
    {kSchemeNames.cg, 0.6, 1'000, 150, 10},
    {kSchemeNames.cg, 0.9, 200, 120, 11},
    {kSchemeNames.occ, 0.6, 1'000, 300, 12},
    {kSchemeNames.occ, 1.0, 100, 300, 13},
};

INSTANTIATE_TEST_SUITE_P(
    Workloads, SchedulerPropertyTest, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      const Scenario& s = info.param;
      std::string name = s.scheme;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_skew" + std::to_string(static_cast<int>(s.skew * 10)) +
             "_n" + std::to_string(s.batch_size) + "_seed" +
             std::to_string(s.seed);
    });

// ---------- Nezha-specific properties ----------

TEST(NezhaPropertyTest, ConflictFreeBatchCommitsEverythingInOneGroup) {
  // Transactions over disjoint addresses: nothing aborts and everything can
  // share one sequence number (maximum commit concurrency).
  std::vector<ReadWriteSet> rwsets;
  for (std::uint64_t i = 0; i < 50; ++i) {
    ReadWriteSet rw;
    rw.reads = {Address(1000 + i)};
    rw.writes = {Address(2000 + i)};
    rw.write_values = {1};
    rwsets.push_back(rw);
  }
  NezhaScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->NumAborted(), 0u);
  EXPECT_EQ(schedule->groups.size(), 1u);
  EXPECT_EQ(schedule->groups[0].size(), 50u);
}

TEST(NezhaPropertyTest, ReorderingNeverAbortsMore) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    WorkloadConfig config;
    config.num_accounts = 200;
    config.skew = 1.0;
    SmallBankWorkload workload(config, seed);
    StateDB db;
    const StateSnapshot snap = db.MakeSnapshot(0);
    const auto txs = workload.MakeBatch(250);
    const auto exec = ExecuteBatchSerial(snap, txs);

    NezhaScheduler with;
    NezhaOptions no_opts;
    no_opts.enable_reordering = false;
    NezhaScheduler without(no_opts);
    auto a = with.BuildSchedule(exec.rwsets);
    auto b = without.BuildSchedule(exec.rwsets);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_LE(a->NumAborted(), b->NumAborted()) << "seed " << seed;
  }
}

TEST(NezhaPropertyTest, GroupCountFarBelowTxCount) {
  // The "certain degree of concurrency": on a mildly contended batch the
  // number of commit groups must be well below the committed tx count
  // (unlike CG/OCC whose commit is fully serial).
  WorkloadConfig config;
  config.num_accounts = 10'000;
  config.skew = 0.4;
  SmallBankWorkload workload(config, 55);
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(800);
  const auto exec = ExecuteBatchSerial(snap, txs);

  NezhaScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_LT(schedule->groups.size(), schedule->NumCommitted() / 4);
}

TEST(NezhaPropertyTest, AbortRateRisesWithSkew) {
  auto abort_rate = [](double skew) {
    WorkloadConfig config;
    config.num_accounts = 10'000;
    config.skew = skew;
    SmallBankWorkload workload(config, 77);
    StateDB db;
    const StateSnapshot snap = db.MakeSnapshot(0);
    // Fig. 11 uses block concurrency 1 => 200 transactions per batch.
    const auto txs = workload.MakeBatch(200);
    const auto exec = ExecuteBatchSerial(snap, txs);
    NezhaScheduler scheduler;
    auto schedule = scheduler.BuildSchedule(exec.rwsets);
    return schedule->AbortRate();
  };
  // The paper's Fig. 11 shape: modest aborts at skew 0.6, monotonically and
  // sharply higher toward 1.0 (measured ~5% -> ~35% here; the paper's EVM
  // workload sits lower in absolute terms but rises identically).
  const double at06 = abort_rate(0.6);
  const double at08 = abort_rate(0.8);
  const double at10 = abort_rate(1.0);
  EXPECT_LT(at06, 0.10);
  EXPECT_GT(at08, at06);
  EXPECT_GT(at10, at08);
  EXPECT_GT(at10, 2 * at06);
}

// ---------- blind-write fuzz (exercises the §IV.D TryRaise machinery) ----------

struct KVScenario {
  double skew;
  double blind_fraction;
  std::size_t num_keys;
  std::size_t writes_per_tx;
};

class KVWorkloadFuzzTest : public ::testing::TestWithParam<KVScenario> {};

TEST_P(KVWorkloadFuzzTest, AllSchedulersStaySoundOnBlindWrites) {
  // SmallBank never issues blind writes; this fuzz drives the synthetic KV
  // workload (multi-address blind writes = the Fig. 8 shape) through every
  // scheduler across many seeds and checks structural serializability.
  const KVScenario& s = GetParam();
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    KVWorkloadConfig config;
    config.num_keys = s.num_keys;
    config.skew = s.skew;
    config.reads_per_tx = 2;
    config.writes_per_tx = s.writes_per_tx;
    config.blind_write_fraction = s.blind_fraction;
    KVWorkload workload(config, seed);
    const auto rwsets = workload.MakeBatch(120);

    for (const char* scheme :
         {"nezha", "nezha-noreorder", "cg", "occ"}) {
      auto scheduler = Make(scheme);
      auto schedule = scheduler->BuildSchedule(rwsets);
      ASSERT_TRUE(schedule.ok());
      // With the reordered set the oracle also checks the §IV.D landing
      // rule on top of every structural rule.
      analysis::VerifierOptions options;
      options.reordered = schedule->reordered;
      const auto oracle = analysis::VerifySchedule(*schedule, rwsets, options);
      ASSERT_TRUE(oracle.ok) << scheme << " seed=" << seed << ": "
                             << oracle.counterexample.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BlindWrites, KVWorkloadFuzzTest,
    ::testing::Values(KVScenario{0.0, 1.0, 50, 2},
                      KVScenario{0.9, 1.0, 50, 2},
                      KVScenario{0.9, 0.5, 100, 3},
                      KVScenario{1.2, 1.0, 20, 2},
                      KVScenario{1.0, 0.25, 30, 4},
                      KVScenario{1.4, 0.75, 10, 3}),
    [](const ::testing::TestParamInfo<KVScenario>& info) {
      const KVScenario& s = info.param;
      return "skew" + std::to_string(static_cast<int>(s.skew * 10)) +
             "_blind" + std::to_string(static_cast<int>(s.blind_fraction * 100)) +
             "_keys" + std::to_string(s.num_keys) + "_w" +
             std::to_string(s.writes_per_tx);
    });

TEST(NezhaPropertyTest, IdenticalResultsAcrossThreadCounts) {
  // Determinism across execution parallelism: rwsets computed with 1 or 8
  // threads are identical, hence so is the schedule.
  WorkloadConfig config;
  config.num_accounts = 500;
  config.skew = 0.8;
  SmallBankWorkload workload(config, 91);
  StateDB db;
  SmallBankWorkload::InitAccounts(db, config.num_accounts, 100, 100);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(300);

  ThreadPool pool1(1), pool8(8);
  const auto serial = ExecuteBatchConcurrent(pool1, snap, txs);
  const auto parallel = ExecuteBatchConcurrent(pool8, snap, txs);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(serial.rwsets[i].reads, parallel.rwsets[i].reads);
    EXPECT_EQ(serial.rwsets[i].writes, parallel.rwsets[i].writes);
    EXPECT_EQ(serial.rwsets[i].write_values, parallel.rwsets[i].write_values);
  }
  NezhaScheduler s1, s2;
  auto a = s1.BuildSchedule(serial.rwsets);
  auto b = s2.BuildSchedule(parallel.rwsets);
  EXPECT_EQ(a->sequence, b->sequence);
}

// ---------- sharded ACG construction property ----------

/// Asserts BuildSharded produced the exact vertex set, subscript
/// assignment, readers/writers lists, and edge multiset of the serial
/// builder. Adjacency is compared as sorted neighbor lists: the serial
/// builder deduplicates edges, so sorted adjacency IS the edge multiset.
void ExpectSameAcg(const AddressConflictGraph& serial,
                   const AddressConflictGraph& sharded,
                   const std::string& label) {
  ASSERT_EQ(sharded.NumAddresses(), serial.NumAddresses()) << label;
  ASSERT_EQ(sharded.NumEdges(), serial.NumEdges()) << label;
  for (std::size_t v = 0; v < serial.NumAddresses(); ++v) {
    const AddressRWSet& a = serial.entries()[v];
    const AddressRWSet& b = sharded.entries()[v];
    EXPECT_EQ(b.address, a.address) << label << " vertex " << v;
    EXPECT_EQ(b.readers, a.readers) << label << " vertex " << v;
    EXPECT_EQ(b.writers, a.writers) << label << " vertex " << v;
    EXPECT_EQ(sharded.IndexOf(a.address), static_cast<int>(v)) << label;

    const auto sn = serial.dependencies().OutNeighbors(v);
    const auto pn = sharded.dependencies().OutNeighbors(v);
    std::vector<Digraph::Vertex> sorted_serial(sn.begin(), sn.end());
    std::vector<Digraph::Vertex> sorted_sharded(pn.begin(), pn.end());
    std::sort(sorted_serial.begin(), sorted_serial.end());
    std::sort(sorted_sharded.begin(), sorted_sharded.end());
    EXPECT_EQ(sorted_sharded, sorted_serial) << label << " vertex " << v;
  }
}

TEST(ShardedAcgPropertyTest, MatchesSerialBuilderOnRandomizedRWSets) {
  ThreadPool pool(4);
  std::mt19937_64 rng(20260805);
  for (int iter = 0; iter < 25; ++iter) {
    // Random batches over a deliberately small key space so shards collide,
    // with empty reads/writes, overlapping units, and reverted txs mixed in.
    const std::size_t num_txs = 40 + rng() % 300;
    const std::uint64_t key_space = 4 + rng() % 120;
    std::vector<ReadWriteSet> rwsets(num_txs);
    for (ReadWriteSet& rw : rwsets) {
      const std::size_t reads = rng() % 4;
      const std::size_t writes = rng() % 4;
      for (std::size_t i = 0; i < reads; ++i) {
        rw.reads.push_back(Address(rng() % key_space));
      }
      for (std::size_t i = 0; i < writes; ++i) {
        rw.writes.push_back(Address(rng() % key_space));
        rw.write_values.push_back(static_cast<StateValue>(rng() % 1000));
      }
      std::sort(rw.reads.begin(), rw.reads.end());
      rw.reads.erase(std::unique(rw.reads.begin(), rw.reads.end()),
                     rw.reads.end());
      std::sort(rw.writes.begin(), rw.writes.end());
      rw.writes.erase(std::unique(rw.writes.begin(), rw.writes.end()),
                      rw.writes.end());
      rw.write_values.resize(rw.writes.size());
      rw.ok = rng() % 10 != 0;  // ~10% reverted: must contribute no units
    }
    const AddressConflictGraph serial = AddressConflictGraph::Build(rwsets);
    for (const std::size_t shards : {0, 2, 3, 7, 16}) {
      ExpectSameAcg(serial,
                    AddressConflictGraph::BuildSharded(rwsets, pool, shards),
                    "iter=" + std::to_string(iter) +
                        " shards=" + std::to_string(shards));
    }
  }
}

TEST(ShardedAcgPropertyTest, DegenerateShapes) {
  ThreadPool pool(3);
  // All-read batch: vertices with readers only, zero edges.
  std::vector<ReadWriteSet> all_read(64);
  for (std::size_t t = 0; t < all_read.size(); ++t) {
    all_read[t].reads = {Address(t % 7), Address(100 + t % 3)};
    std::sort(all_read[t].reads.begin(), all_read[t].reads.end());
  }
  ExpectSameAcg(AddressConflictGraph::Build(all_read),
                AddressConflictGraph::BuildSharded(all_read, pool),
                "all-read");

  // All-write batch: vertices with writers only; no read units means no
  // Definition 3 edges either.
  std::vector<ReadWriteSet> all_write(64);
  for (std::size_t t = 0; t < all_write.size(); ++t) {
    all_write[t].writes = {Address(t % 5)};
    all_write[t].write_values = {static_cast<StateValue>(t)};
  }
  ExpectSameAcg(AddressConflictGraph::Build(all_write),
                AddressConflictGraph::BuildSharded(all_write, pool),
                "all-write");

  // Empty epoch and all-empty rwsets: zero vertices, zero edges.
  const std::vector<ReadWriteSet> empty_epoch;
  ExpectSameAcg(AddressConflictGraph::Build(empty_epoch),
                AddressConflictGraph::BuildSharded(empty_epoch, pool),
                "empty-epoch");
  const std::vector<ReadWriteSet> empty_units(50);
  ExpectSameAcg(AddressConflictGraph::Build(empty_units),
                AddressConflictGraph::BuildSharded(empty_units, pool),
                "empty-units");
}

}  // namespace
}  // namespace nezha
