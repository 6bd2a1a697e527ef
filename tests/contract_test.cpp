// Tests for the contract registry, the KV and token contracts (native +
// bytecode equivalence, revert semantics, address namespacing), and
// mixed-contract traffic through the schedulers.
#include <gtest/gtest.h>

#include "analysis/schedule_verifier.h"
#include "cc/nezha/nezha_scheduler.h"
#include "runtime/concurrent_executor.h"
#include "vm/contract.h"
#include "vm/executor.h"
#include "vm/kv_contract.h"
#include "vm/smallbank.h"
#include "vm/token_contract.h"
#include "workload/mixed_workload.h"

namespace nezha {
namespace {

StateSnapshot SnapshotWith(
    std::initializer_list<std::pair<Address, StateValue>> values) {
  StateDB db;
  for (const auto& [a, v] : values) db.Set(a, v);
  return db.MakeSnapshot(0);
}

ReadWriteSet MustRun(const StateSnapshot& snap, const TxPayload& payload,
                     ExecMode mode = ExecMode::kNative) {
  Transaction tx;
  tx.payload = payload;
  auto result = SimulateTransaction(snap, tx, mode);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result.value()) : ReadWriteSet{};
}

// ---------- registry ----------

TEST(ContractRegistryTest, FindsAllThreeContracts) {
  ASSERT_NE(FindContract(kSmallBankContract), nullptr);
  ASSERT_NE(FindContract(kKVContract), nullptr);
  ASSERT_NE(FindContract(kTokenContract), nullptr);
  EXPECT_EQ(FindContract(999), nullptr);
  EXPECT_STREQ(FindContract(kKVContract)->name, "kvstore");
}

TEST(ContractRegistryTest, NamespacesAreDisjoint) {
  // The three contracts' addresses can never collide.
  const Address smallbank = CheckingAddress(123456);
  const Address kv = KVAddress(123456);
  const Address token = TokenBalanceAddress(123456);
  const Address allowance = TokenAllowanceAddress(1, 2);
  EXPECT_NE(smallbank, kv);
  EXPECT_NE(kv, token);
  EXPECT_NE(token, allowance);
  EXPECT_LT(smallbank.value, 1ull << 40);
  EXPECT_GE(kv.value, 1ull << 40);
  EXPECT_LT(kv.value, 2ull << 40);
  EXPECT_GE(token.value, 2ull << 40);
}

// ---------- KV contract ----------

TEST(KVContractTest, SetIsBlindWrite) {
  const StateSnapshot snap = SnapshotWith({});
  const ReadWriteSet rw = MustRun(snap, MakeKVCall(KVOp::kSet, {7, 42}));
  EXPECT_TRUE(rw.reads.empty());  // the defining property: no read
  ASSERT_EQ(rw.writes.size(), 1u);
  EXPECT_EQ(rw.writes[0], KVAddress(7));
  EXPECT_EQ(rw.write_values[0], 42);
}

TEST(KVContractTest, AddIsReadModifyWrite) {
  const StateSnapshot snap = SnapshotWith({{KVAddress(7), 10}});
  const ReadWriteSet rw = MustRun(snap, MakeKVCall(KVOp::kAdd, {7, 5}));
  EXPECT_EQ(rw.reads, (std::vector<Address>{KVAddress(7)}));
  EXPECT_EQ(rw.write_values[0], 15);
}

TEST(KVContractTest, MultiSetWritesTwoAddresses) {
  const StateSnapshot snap = SnapshotWith({});
  const ReadWriteSet rw =
      MustRun(snap, MakeKVCall(KVOp::kMultiSet, {1, 11, 2, 22}));
  EXPECT_TRUE(rw.reads.empty());
  ASSERT_EQ(rw.writes.size(), 2u);
  EXPECT_EQ(rw.write_values[0], 11);
  EXPECT_EQ(rw.write_values[1], 22);
}

TEST(KVContractTest, CopyReadsSourceWritesDestination) {
  const StateSnapshot snap = SnapshotWith({{KVAddress(1), 99}});
  const ReadWriteSet rw = MustRun(snap, MakeKVCall(KVOp::kCopy, {1, 2}));
  EXPECT_EQ(rw.reads, (std::vector<Address>{KVAddress(1)}));
  EXPECT_EQ(rw.writes, (std::vector<Address>{KVAddress(2)}));
  EXPECT_EQ(rw.write_values[0], 99);
}

TEST(KVContractTest, RejectsBadArgCounts) {
  const StateSnapshot snap = SnapshotWith({});
  Transaction tx;
  tx.payload = MakeKVCall(KVOp::kSet, {1});
  EXPECT_FALSE(SimulateTransaction(snap, tx).ok());
  tx.payload = MakeKVCall(KVOp::kMultiSet, {1, 2, 3});
  EXPECT_FALSE(SimulateTransaction(snap, tx).ok());
}

// ---------- token contract ----------

TEST(TokenContractTest, MintIncreasesBalance) {
  const StateSnapshot snap = SnapshotWith({{TokenBalanceAddress(5), 10}});
  const ReadWriteSet rw = MustRun(snap, MakeTokenCall(TokenOp::kMint, {5, 7}));
  EXPECT_TRUE(rw.ok);
  EXPECT_EQ(rw.write_values[0], 17);
}

TEST(TokenContractTest, TransferMovesFunds) {
  const StateSnapshot snap = SnapshotWith(
      {{TokenBalanceAddress(1), 100}, {TokenBalanceAddress(2), 5}});
  const ReadWriteSet rw =
      MustRun(snap, MakeTokenCall(TokenOp::kTransfer, {1, 2, 40}));
  EXPECT_TRUE(rw.ok);
  ASSERT_EQ(rw.writes.size(), 2u);
  EXPECT_EQ(rw.write_values[0], 60);  // sender
  EXPECT_EQ(rw.write_values[1], 45);  // receiver
}

TEST(TokenContractTest, InsufficientTransferReverts) {
  const StateSnapshot snap = SnapshotWith({{TokenBalanceAddress(1), 10}});
  const ReadWriteSet rw =
      MustRun(snap, MakeTokenCall(TokenOp::kTransfer, {1, 2, 40}));
  EXPECT_FALSE(rw.ok);  // reverted: commits nothing downstream
}

TEST(TokenContractTest, ExactBalanceTransferSucceeds) {
  const StateSnapshot snap = SnapshotWith({{TokenBalanceAddress(1), 40}});
  const ReadWriteSet rw =
      MustRun(snap, MakeTokenCall(TokenOp::kTransfer, {1, 2, 40}));
  EXPECT_TRUE(rw.ok);
  EXPECT_EQ(rw.write_values[0], 0);
}

TEST(TokenContractTest, TransferFromChecksAllowanceAndBalance) {
  const StateSnapshot snap = SnapshotWith(
      {{TokenBalanceAddress(1), 100}, {TokenAllowanceAddress(1, 9), 30}});
  // Within allowance: ok.
  ReadWriteSet ok_rw =
      MustRun(snap, MakeTokenCall(TokenOp::kTransferFrom, {9, 1, 2, 25}));
  EXPECT_TRUE(ok_rw.ok);
  // Over allowance: revert.
  ReadWriteSet over_allowance =
      MustRun(snap, MakeTokenCall(TokenOp::kTransferFrom, {9, 1, 2, 31}));
  EXPECT_FALSE(over_allowance.ok);
  // Allowance fine but balance short: revert.
  const StateSnapshot poor = SnapshotWith(
      {{TokenBalanceAddress(1), 10}, {TokenAllowanceAddress(1, 9), 30}});
  ReadWriteSet over_balance =
      MustRun(poor, MakeTokenCall(TokenOp::kTransferFrom, {9, 1, 2, 25}));
  EXPECT_FALSE(over_balance.ok);
}

TEST(TokenContractTest, ApproveIsBlindWrite) {
  const StateSnapshot snap = SnapshotWith({});
  const ReadWriteSet rw =
      MustRun(snap, MakeTokenCall(TokenOp::kApprove, {1, 2, 50}));
  EXPECT_TRUE(rw.reads.empty());
  EXPECT_EQ(rw.writes[0], TokenAllowanceAddress(1, 2));
}

// ---------- native vs bytecode equivalence across contracts ----------

class MixedEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(MixedEquivalenceTest, NativeAndBytecodeAgree) {
  MixedWorkloadConfig config;
  config.smallbank_accounts = 40;
  config.kv_keys = 40;
  config.token_holders = 40;
  config.skew = GetParam();
  MixedWorkload workload(config, 2025);
  StateDB db;
  MixedWorkload::InitState(db, config, 50);  // low balances: some reverts
  const StateSnapshot snap = db.MakeSnapshot(0);

  int reverts = 0;
  for (int i = 0; i < 600; ++i) {
    const Transaction tx = workload.NextTransaction();
    auto native = SimulateTransaction(snap, tx, ExecMode::kNative);
    auto bytecode = SimulateTransaction(snap, tx, ExecMode::kBytecode);
    ASSERT_TRUE(native.ok());
    ASSERT_TRUE(bytecode.ok());
    EXPECT_EQ(native->ok, bytecode->ok) << "tx " << i;
    EXPECT_EQ(native->reads, bytecode->reads) << "tx " << i;
    EXPECT_EQ(native->writes, bytecode->writes) << "tx " << i;
    EXPECT_EQ(native->write_values, bytecode->write_values) << "tx " << i;
    reverts += native->ok ? 0 : 1;
  }
  EXPECT_GT(reverts, 0);  // the revert path really got exercised
}

INSTANTIATE_TEST_SUITE_P(Skews, MixedEquivalenceTest,
                         ::testing::Values(0.0, 0.8, 1.1));

// ---------- mixed traffic through the scheduler ----------

TEST(MixedTrafficTest, NezhaSchedulesMixedContractsSerializably) {
  MixedWorkloadConfig config;
  config.smallbank_accounts = 100;
  config.kv_keys = 100;
  config.token_holders = 100;
  config.skew = 0.9;
  MixedWorkload workload(config, 31);
  StateDB db;
  MixedWorkload::InitState(db, config, 1000);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(400);
  const auto exec = ExecuteBatchSerial(snap, txs);

  NezhaScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(schedule.ok());
  const auto structural = analysis::VerifySchedule(*schedule, exec.rwsets);
  EXPECT_TRUE(structural.ok) << structural.counterexample.ToString();
  const auto replay =
      analysis::VerifyByReplay(snap, txs, *schedule, exec.rwsets);
  EXPECT_TRUE(replay.ok) << replay.counterexample.ToString();
  // The KV contract's blind writes give §IV.D something to rescue.
  EXPECT_GT(schedule->NumCommitted(), 0u);
}

TEST(MixedTrafficTest, RevertedTokenTransfersAbortAtExecution) {
  // Token holders with zero balance: every transfer reverts, and those txs
  // must come out aborted without reaching the conflict graph.
  MixedWorkloadConfig config;
  config.smallbank_weight = 0;
  config.kv_weight = 0;
  config.token_weight = 1;
  config.token_holders = 50;
  MixedWorkload workload(config, 17);
  StateDB db;  // nobody funded
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(200);
  const auto exec = ExecuteBatchSerial(snap, txs);

  std::size_t reverted = 0;
  for (const auto& rw : exec.rwsets) reverted += rw.ok ? 0 : 1;
  EXPECT_GT(reverted, 30u);

  NezhaScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(schedule.ok());
  for (TxIndex t = 0; t < exec.rwsets.size(); ++t) {
    if (!exec.rwsets[t].ok) {
      EXPECT_TRUE(schedule->aborted[t]);
    }
  }
}

TEST(MixedTrafficTest, ReorderingFiresOnChainWithKVTraffic) {
  // Pure KV traffic with blind multi-writes under contention: the §IV.D
  // path must rescue at least one transaction somewhere across seeds.
  MixedWorkloadConfig config;
  config.smallbank_weight = 0;
  config.token_weight = 0;
  config.kv_weight = 1;
  config.kv_keys = 30;
  config.skew = 1.0;
  std::size_t total_rescued = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    MixedWorkload workload(config, seed);
    StateDB db;
    const StateSnapshot snap = db.MakeSnapshot(0);
    const auto txs = workload.MakeBatch(150);
    const auto exec = ExecuteBatchSerial(snap, txs);
    NezhaScheduler scheduler;
    auto schedule = scheduler.BuildSchedule(exec.rwsets);
    ASSERT_TRUE(schedule.ok());
    const auto report = analysis::VerifySchedule(*schedule, exec.rwsets);
    ASSERT_TRUE(report.ok) << report.counterexample.ToString();
    total_rescued += scheduler.metrics().reordered_txs;
  }
  EXPECT_GT(total_rescued, 0u);
}

}  // namespace
}  // namespace nezha
