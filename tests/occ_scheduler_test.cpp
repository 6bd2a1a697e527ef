// Tests for the Fabric-style OCC baseline.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/schedule_verifier.h"
#include "cc/occ/occ_scheduler.h"
#include "cc/nezha/nezha_scheduler.h"
#include "runtime/concurrent_executor.h"
#include "workload/smallbank_workload.h"

namespace nezha {
namespace {

ReadWriteSet RW(std::vector<std::uint64_t> reads,
                std::vector<std::uint64_t> writes) {
  ReadWriteSet rw;
  for (std::uint64_t a : reads) rw.reads.push_back(Address(a));
  for (std::uint64_t a : writes) {
    rw.writes.push_back(Address(a));
    rw.write_values.push_back(1);
  }
  std::sort(rw.reads.begin(), rw.reads.end());
  std::sort(rw.writes.begin(), rw.writes.end());
  return rw;
}

TEST(OccSchedulerTest, StaleReadAborts) {
  // T0 writes A1; T1 then reads A1 -> T1's snapshot read is stale.
  const std::vector<ReadWriteSet> rwsets = {RW({}, {1}), RW({1}, {})};
  OCCScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(schedule->aborted[0]);
  EXPECT_TRUE(schedule->aborted[1]);
}

TEST(OccSchedulerTest, ReadBeforeWriteOrderCommitsBoth) {
  // The reader validates first (subscript order), so both commit.
  const std::vector<ReadWriteSet> rwsets = {RW({1}, {}), RW({}, {1})};
  OCCScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->NumAborted(), 0u);
}

TEST(OccSchedulerTest, BlindWritesAllCommit) {
  const std::vector<ReadWriteSet> rwsets = {RW({}, {1}), RW({}, {1}),
                                            RW({}, {1})};
  OCCScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->NumAborted(), 0u);
  // Serial commit groups.
  EXPECT_EQ(schedule->groups.size(), 3u);
}

TEST(OccSchedulerTest, RmwChainAbortsAllButFirst) {
  const std::vector<ReadWriteSet> rwsets = {RW({1}, {1}), RW({1}, {1}),
                                            RW({1}, {1})};
  OCCScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_FALSE(schedule->aborted[0]);
  EXPECT_TRUE(schedule->aborted[1]);
  EXPECT_TRUE(schedule->aborted[2]);
}

TEST(OccSchedulerTest, SchedulesAreSerializable) {
  WorkloadConfig config;
  config.num_accounts = 50;
  config.skew = 0.9;
  SmallBankWorkload workload(config, 41);
  StateDB db;
  SmallBankWorkload::InitAccounts(db, config.num_accounts, 1000, 1000);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(150);
  const auto exec = ExecuteBatchSerial(snap, txs);

  OCCScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(schedule.ok());
  const auto structural = analysis::VerifySchedule(*schedule, exec.rwsets);
  EXPECT_TRUE(structural.ok) << structural.counterexample.ToString();
  const auto replay =
      analysis::VerifyByReplay(snap, txs, *schedule, exec.rwsets);
  EXPECT_TRUE(replay.ok) << replay.counterexample.ToString();
}

TEST(OccSchedulerTest, AbortsMoreThanNezhaUnderContention) {
  // The paper's Table II story: plain OCC over-aborts; Nezha's dependency-
  // aware ordering commits strictly more under a contended workload.
  WorkloadConfig config;
  config.num_accounts = 10'000;
  config.skew = 1.0;
  SmallBankWorkload workload(config, 43);
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(400);
  const auto exec = ExecuteBatchSerial(snap, txs);

  OCCScheduler occ;
  NezhaScheduler nezha;
  auto occ_schedule = occ.BuildSchedule(exec.rwsets);
  auto nezha_schedule = nezha.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(occ_schedule.ok());
  ASSERT_TRUE(nezha_schedule.ok());
  EXPECT_GT(occ_schedule->NumAborted(), nezha_schedule->NumAborted());
}

}  // namespace
}  // namespace nezha
