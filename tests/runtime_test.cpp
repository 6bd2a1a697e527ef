// Tests for the runtime layer: the concurrent executor, grouped commitment
// through the node's group-parallel executor, and the serializability
// oracle's structural and replay modes (including negative cases).
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/schedule_verifier.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "runtime/concurrent_executor.h"
#include "workload/smallbank_workload.h"

namespace nezha {
namespace {

// ---------- concurrent executor ----------

TEST(ConcurrentExecutorTest, MatchesSerialReference) {
  WorkloadConfig config;
  config.num_accounts = 100;
  config.skew = 0.7;
  SmallBankWorkload workload(config, 3);
  StateDB db;
  SmallBankWorkload::InitAccounts(db, 100, 500, 500);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(200);

  ThreadPool pool(4);
  const auto concurrent = ExecuteBatchConcurrent(pool, snap, txs);
  const auto serial = ExecuteBatchSerial(snap, txs);
  ASSERT_EQ(concurrent.rwsets.size(), serial.rwsets.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(concurrent.rwsets[i].writes, serial.rwsets[i].writes);
    EXPECT_EQ(concurrent.rwsets[i].write_values,
              serial.rwsets[i].write_values);
  }
}

TEST(ConcurrentExecutorTest, MalformedTxsAreFlagged) {
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  std::vector<Transaction> txs(2);
  txs[0].payload = MakeSmallBankCall(SmallBankOp::kGetBalance, {1});
  txs[1].payload.contract = 99;  // unknown contract
  ThreadPool pool(2);
  const auto result = ExecuteBatchConcurrent(pool, snap, txs);
  EXPECT_TRUE(result.rwsets[0].ok);
  EXPECT_FALSE(result.rwsets[1].ok);
  EXPECT_EQ(result.malformed, 1u);
}

TEST(ConcurrentExecutorTest, BytecodeModeWorks) {
  WorkloadConfig config;
  config.num_accounts = 20;
  SmallBankWorkload workload(config, 5);
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(50);
  ThreadPool pool(2);
  const auto native =
      ExecuteBatchConcurrent(pool, snap, txs, ExecMode::kNative);
  const auto bytecode =
      ExecuteBatchConcurrent(pool, snap, txs, ExecMode::kBytecode);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    EXPECT_EQ(native.rwsets[i].write_values, bytecode.rwsets[i].write_values);
  }
}

// ---------- grouped commitment ----------

TEST(CommitterTest, AppliesAllCommittedWrites) {
  std::vector<ReadWriteSet> rwsets(3);
  for (std::size_t i = 0; i < 3; ++i) {
    rwsets[i].writes = {Address(i)};
    rwsets[i].write_values = {static_cast<StateValue>(i * 10)};
  }
  Schedule schedule;
  schedule.sequence = {1, 1, 2};
  schedule.aborted = {false, false, false};
  schedule.RebuildGroups();

  ThreadPool pool(2);
  StateDB state;
  const ParallelExecStats stats =
      ExecuteScheduleParallel(pool, state, StateSnapshot{}, schedule, rwsets);
  EXPECT_EQ(stats.committed_txs, 3u);
  EXPECT_EQ(stats.groups, 2u);
  EXPECT_EQ(stats.max_group, 2u);
  EXPECT_EQ(stats.writes_applied, 3u);
  EXPECT_EQ(state.Get(Address(0)), 0);
  EXPECT_EQ(state.Get(Address(1)), 10);
  EXPECT_EQ(state.Get(Address(2)), 20);
}

TEST(CommitterTest, AbortedTxsWriteNothing) {
  std::vector<ReadWriteSet> rwsets(2);
  rwsets[0].writes = {Address(1)};
  rwsets[0].write_values = {111};
  rwsets[1].writes = {Address(2)};
  rwsets[1].write_values = {222};
  Schedule schedule;
  schedule.sequence = {1, kUnassignedSeq};
  schedule.aborted = {false, true};
  schedule.RebuildGroups();

  ThreadPool pool(2);
  StateDB state;
  ExecuteScheduleParallel(pool, state, StateSnapshot{}, schedule, rwsets);
  EXPECT_EQ(state.Get(Address(1)), 111);
  EXPECT_EQ(state.Get(Address(2)), 0);  // untouched
}

TEST(CommitterTest, LaterGroupsOverwriteEarlier) {
  std::vector<ReadWriteSet> rwsets(2);
  rwsets[0].writes = {Address(7)};
  rwsets[0].write_values = {1};
  rwsets[1].writes = {Address(7)};
  rwsets[1].write_values = {2};
  Schedule schedule;
  schedule.sequence = {1, 2};
  schedule.aborted = {false, false};
  schedule.RebuildGroups();

  ThreadPool pool(2);
  StateDB state;
  ExecuteScheduleParallel(pool, state, StateSnapshot{}, schedule, rwsets);
  EXPECT_EQ(state.Get(Address(7)), 2);
}

TEST(CommitterTest, LargeConcurrentGroupIsCorrect) {
  constexpr std::size_t kTxs = 2000;
  std::vector<ReadWriteSet> rwsets(kTxs);
  Schedule schedule;
  schedule.sequence.assign(kTxs, 1);
  schedule.aborted.assign(kTxs, false);
  for (std::size_t i = 0; i < kTxs; ++i) {
    rwsets[i].writes = {Address(i)};
    rwsets[i].write_values = {static_cast<StateValue>(i)};
  }
  schedule.RebuildGroups();

  ThreadPool pool(8);
  StateDB state;
  const ParallelExecStats stats =
      ExecuteScheduleParallel(pool, state, StateSnapshot{}, schedule, rwsets);
  EXPECT_EQ(stats.max_group, kTxs);
  for (std::size_t i = 0; i < kTxs; i += 311) {
    EXPECT_EQ(state.Get(Address(i)), static_cast<StateValue>(i));
  }
}

// ---------- end-to-end: execute -> schedule -> commit equals serial ----------

TEST(RuntimeEndToEndTest, NezhaCommitEqualsSerialReplayState) {
  WorkloadConfig config;
  config.num_accounts = 300;
  config.skew = 0.9;
  SmallBankWorkload workload(config, 8);
  StateDB db;
  SmallBankWorkload::InitAccounts(db, 300, 1000, 1000);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(400);

  ThreadPool pool(4);
  const auto exec = ExecuteBatchConcurrent(pool, snap, txs);
  NezhaScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(schedule.ok());

  // Commit through the group-parallel executor (the node's commit path).
  ExecuteScheduleParallel(pool, db, snap, *schedule, exec.rwsets);

  // Serial replay of committed txs into an overlay must agree with the
  // committed StateDB on every address the batch wrote.
  LoggedStateView::Overlay evolving;
  std::vector<TxIndex> order;
  for (TxIndex t = 0; t < txs.size(); ++t) {
    if (!schedule->aborted[t]) order.push_back(t);
  }
  std::sort(order.begin(), order.end(), [&](TxIndex a, TxIndex b) {
    if (schedule->sequence[a] != schedule->sequence[b]) {
      return schedule->sequence[a] < schedule->sequence[b];
    }
    return a < b;
  });
  for (TxIndex t : order) {
    LoggedStateView view(snap, &evolving);
    ASSERT_TRUE(ExecuteSmallBank(txs[t].payload, view).ok());
    ReadWriteSet rw = view.TakeRWSet();
    for (std::size_t i = 0; i < rw.writes.size(); ++i) {
      evolving[rw.writes[i].value] = rw.write_values[i];
    }
  }
  for (const auto& [addr, value] : evolving) {
    EXPECT_EQ(db.Get(Address(addr)), value) << "A" << addr;
  }
}

// ---------- validator negative cases ----------

TEST(ValidatorTest, DetectsReadAfterWrite) {
  std::vector<ReadWriteSet> rwsets(2);
  rwsets[0].writes = {Address(1)};
  rwsets[0].write_values = {5};
  rwsets[1].reads = {Address(1)};
  Schedule bad;
  bad.sequence = {1, 2};  // reader AFTER writer: invalid
  bad.aborted = {false, false};
  bad.RebuildGroups();
  EXPECT_FALSE(analysis::VerifySchedule(bad, rwsets).ok);
}

TEST(ValidatorTest, DetectsWriteWriteCollision) {
  std::vector<ReadWriteSet> rwsets(2);
  rwsets[0].writes = {Address(1)};
  rwsets[0].write_values = {5};
  rwsets[1].writes = {Address(1)};
  rwsets[1].write_values = {6};
  Schedule bad;
  bad.sequence = {3, 3};  // same group, same written address
  bad.aborted = {false, false};
  bad.RebuildGroups();
  EXPECT_FALSE(analysis::VerifySchedule(bad, rwsets).ok);
}

TEST(ValidatorTest, AcceptsValidSchedule) {
  std::vector<ReadWriteSet> rwsets(2);
  rwsets[0].reads = {Address(1)};
  rwsets[1].writes = {Address(1)};
  rwsets[1].write_values = {9};
  Schedule good;
  good.sequence = {1, 2};
  good.aborted = {false, false};
  good.RebuildGroups();
  EXPECT_TRUE(analysis::VerifySchedule(good, rwsets).ok);
}

TEST(ValidatorTest, DetectsSizeMismatch) {
  std::vector<ReadWriteSet> rwsets(2);
  Schedule bad;
  bad.sequence = {1};
  bad.aborted = {false};
  EXPECT_FALSE(analysis::VerifySchedule(bad, rwsets).ok);
}

TEST(ValidatorTest, ReplayCatchesWrongValue) {
  StateDB db;
  db.Set(CheckingAddress(1), 100);
  const StateSnapshot snap = db.MakeSnapshot(0);
  std::vector<Transaction> txs(1);
  txs[0].payload = MakeSmallBankCall(SmallBankOp::kUpdateBalance, {1, 10});
  std::vector<ReadWriteSet> rwsets(1);
  rwsets[0].reads = {CheckingAddress(1)};
  rwsets[0].writes = {CheckingAddress(1)};
  rwsets[0].write_values = {42};  // WRONG: real execution writes 110
  Schedule schedule;
  schedule.sequence = {1};
  schedule.aborted = {false};
  schedule.RebuildGroups();
  EXPECT_FALSE(analysis::VerifyByReplay(snap, txs, schedule, rwsets).ok);
}

}  // namespace
}  // namespace nezha
