// Tests for the conflict-graph baseline (Fabric++-style): pairwise edge
// construction, Johnson-based cycle removal, serial topological commit
// order, and the budget-exhaustion path that models the paper's OOM.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/schedule_verifier.h"
#include "cc/cg/cg_scheduler.h"
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

TEST(CgSchedulerTest, NonConflictingAllCommitSerially) {
  const std::vector<ReadWriteSet> rwsets = {RW({}, {1}), RW({}, {2}),
                                            RW({}, {3})};
  CGScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->NumAborted(), 0u);
  // CG commits serially: one group per transaction.
  EXPECT_EQ(schedule->groups.size(), 3u);
  for (const auto& g : schedule->groups) EXPECT_EQ(g.size(), 1u);
}

TEST(CgSchedulerTest, AcyclicDependenciesKeptInOrder) {
  // T0 reads A1 which T1 writes: rw edge T0 -> T1; no cycle, no aborts.
  const std::vector<ReadWriteSet> rwsets = {RW({1}, {}), RW({}, {1})};
  CGScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->NumAborted(), 0u);
  EXPECT_LT(schedule->sequence[0], schedule->sequence[1]);
  EXPECT_EQ(scheduler.metrics().graph_edges, 1u);
}

TEST(CgSchedulerTest, CycleForcesAbort) {
  // T0 reads A1 / writes A2; T1 reads A2 / writes A1: classic 2-cycle.
  const std::vector<ReadWriteSet> rwsets = {RW({1}, {2}), RW({2}, {1})};
  CGScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->NumAborted(), 1u);
  EXPECT_GE(scheduler.metrics().cycles_found, 1u);
  const auto report = analysis::VerifySchedule(*schedule, rwsets);
  EXPECT_TRUE(report.ok) << report.counterexample.ToString();
}

TEST(CgSchedulerTest, VictimBreaksMostCycles) {
  // T1 participates in two cycles (with T0 and with T2); aborting it alone
  // resolves both, so the greedy victim choice must pick it.
  const std::vector<ReadWriteSet> rwsets = {
      RW({1}, {2}),      // T0: cycle with T1 via A1/A2
      RW({2, 4}, {1, 3}),// T1: hub
      RW({3}, {4}),      // T2: cycle with T1 via A3/A4
  };
  CGScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->NumAborted(), 1u);
  EXPECT_TRUE(schedule->aborted[1]);
}

TEST(CgSchedulerTest, RevertedTxsAbortImmediately) {
  std::vector<ReadWriteSet> rwsets = {RW({}, {1}), RW({}, {2})};
  rwsets[0].ok = false;
  CGScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(schedule->aborted[0]);
  EXPECT_FALSE(schedule->aborted[1]);
}

TEST(CgSchedulerTest, BudgetExhaustionDegradesGracefully) {
  // A dense all-RMW hotspot produces factorially many circuits; with a tiny
  // budget the scheduler must flag exhaustion and still emit a valid,
  // acyclic (heavily aborted) schedule.
  std::vector<ReadWriteSet> rwsets;
  for (int i = 0; i < 12; ++i) rwsets.push_back(RW({1, 2}, {1, 2}));
  CGOptions options;
  options.max_circuits = 5;
  CGScheduler scheduler(options);
  auto schedule = scheduler.BuildSchedule(rwsets);
  ASSERT_TRUE(schedule.ok());
  EXPECT_TRUE(scheduler.metrics().resource_exhausted);
  EXPECT_GE(schedule->NumAborted(), 10u);
  const auto report = analysis::VerifySchedule(*schedule, rwsets);
  EXPECT_TRUE(report.ok) << report.counterexample.ToString();
}

TEST(CgSchedulerTest, MetricsPhasesPopulated) {
  WorkloadConfig config;
  config.num_accounts = 100;
  config.skew = 0.8;
  SmallBankWorkload workload(config, 31);
  StateDB db;
  SmallBankWorkload::InitAccounts(db, config.num_accounts, 1000, 1000);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(100);
  const auto exec = ExecuteBatchSerial(snap, txs);

  CGScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(schedule.ok());
  const SchedulerMetrics& m = scheduler.metrics();
  EXPECT_GT(m.construction_us, 0);
  EXPECT_GT(m.sorting_us, 0);
  EXPECT_EQ(m.graph_vertices, 100u);
  EXPECT_GT(m.graph_edges, 0u);
}

TEST(CgSchedulerTest, ScheduleIsSerializableOnContendedWorkload) {
  WorkloadConfig config;
  config.num_accounts = 60;
  config.skew = 0.9;
  SmallBankWorkload workload(config, 33);
  StateDB db;
  SmallBankWorkload::InitAccounts(db, config.num_accounts, 1000, 1000);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(120);
  const auto exec = ExecuteBatchSerial(snap, txs);

  CGScheduler scheduler;
  auto schedule = scheduler.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(schedule.ok());
  const auto structural = analysis::VerifySchedule(*schedule, exec.rwsets);
  EXPECT_TRUE(structural.ok) << structural.counterexample.ToString();
  const auto replay =
      analysis::VerifyByReplay(snap, txs, *schedule, exec.rwsets);
  EXPECT_TRUE(replay.ok) << replay.counterexample.ToString();
}

TEST(CgSchedulerTest, DeterministicAcrossRuns) {
  WorkloadConfig config;
  config.num_accounts = 50;
  config.skew = 1.0;
  SmallBankWorkload workload(config, 35);
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(80);
  const auto exec = ExecuteBatchSerial(snap, txs);

  CGScheduler s1, s2;
  auto a = s1.BuildSchedule(exec.rwsets);
  auto b = s2.BuildSchedule(exec.rwsets);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sequence, b->sequence);
  EXPECT_EQ(a->aborted, b->aborted);
}

}  // namespace
}  // namespace nezha
