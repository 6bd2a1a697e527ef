// Integration tests: the full-node pipeline over the parallel-chain ledger,
// the simulation driver, and cross-scheme state agreement.
#include <gtest/gtest.h>

#include "analysis/det_checkpoint.h"
#include "cc/occ/occ_scheduler.h"
#include "node/deferred_executor.h"
#include "node/full_node.h"
#include "node/simulation.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace nezha {
namespace {

SimulationConfig SmallConfig(SchemeKind scheme, double skew = 0.5,
                             std::size_t omega = 3) {
  SimulationConfig config;
  config.node.scheme = scheme;
  config.node.worker_threads = 2;
  config.workload.num_accounts = 500;
  config.workload.skew = skew;
  config.block_size = 50;
  config.block_concurrency = omega;
  config.epochs = 3;
  config.seed = 1234;
  return config;
}

TEST(SimulationTest, NezhaPipelineRuns) {
  auto summary = RunSimulation(SmallConfig(SchemeKind::kNezha));
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->reports.size(), 3u);
  EXPECT_EQ(summary->TotalTxs(), 3u * 3u * 50u);
  EXPECT_GT(summary->TotalCommitted(), 0u);
  EXPECT_EQ(summary->TotalCommitted() + summary->TotalAborted(),
            summary->TotalTxs());
  for (const auto& r : summary->reports) {
    EXPECT_EQ(r.block_concurrency, 3u);
    EXPECT_FALSE(r.state_root.IsZero());
  }
}

TEST(SimulationTest, EpochRootsEvolve) {
  auto summary = RunSimulation(SmallConfig(SchemeKind::kNezha));
  ASSERT_TRUE(summary.ok());
  EXPECT_NE(summary->reports[0].state_root, summary->reports[1].state_root);
  EXPECT_NE(summary->reports[1].state_root, summary->reports[2].state_root);
}

TEST(SimulationTest, SerialCommitsEverything) {
  auto summary = RunSimulation(SmallConfig(SchemeKind::kSerial));
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->TotalAborted(), 0u);
  EXPECT_EQ(summary->TotalCommitted(), summary->TotalTxs());
}

TEST(SimulationTest, AllSchemesProduceSameRootOnConflictFreeWorkload) {
  // With skew 0 over a huge account space and few transactions, conflicts
  // are (almost surely) absent, so every scheme commits everything and all
  // schemes must agree on the final state root.
  auto config_for = [](SchemeKind scheme) {
    SimulationConfig config;
    config.node.scheme = scheme;
    config.node.worker_threads = 2;
    config.workload.num_accounts = 200'000;
    config.workload.skew = 0.0;
    config.block_size = 20;
    config.block_concurrency = 2;
    config.epochs = 2;
    config.seed = 777;
    return config;
  };
  auto serial = RunSimulation(config_for(SchemeKind::kSerial));
  auto nezha = RunSimulation(config_for(SchemeKind::kNezha));
  auto cg = RunSimulation(config_for(SchemeKind::kCg));
  auto occ = RunSimulation(config_for(SchemeKind::kOcc));
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(nezha.ok());
  ASSERT_TRUE(cg.ok());
  ASSERT_TRUE(occ.ok());
  ASSERT_EQ(nezha->TotalAborted(), 0u);  // precondition: conflict-free
  const Hash256 expected = serial->reports.back().state_root;
  EXPECT_EQ(nezha->reports.back().state_root, expected);
  EXPECT_EQ(cg->reports.back().state_root, expected);
  EXPECT_EQ(occ->reports.back().state_root, expected);
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto a = RunSimulation(SmallConfig(SchemeKind::kNezha, 0.9));
  auto b = RunSimulation(SmallConfig(SchemeKind::kNezha, 0.9));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->reports.back().state_root, b->reports.back().state_root);
  EXPECT_EQ(a->TotalAborted(), b->TotalAborted());
}

TEST(SimulationTest, NezhaCommitGroupsExploitConcurrency) {
  auto summary = RunSimulation(SmallConfig(SchemeKind::kNezha, 0.2, 4));
  ASSERT_TRUE(summary.ok());
  for (const auto& r : summary->reports) {
    EXPECT_GT(r.max_commit_group, 1u);  // parallel commitment happened
  }
}

TEST(SimulationTest, ModeledCostReportsTableIVScale) {
  SimulationConfig config = SmallConfig(SchemeKind::kSerial, 0.0, 2);
  config.node.model_execution_cost = true;
  config.block_size = 200;
  config.epochs = 1;
  auto summary = RunSimulation(config);
  ASSERT_TRUE(summary.ok());
  // 400 txs * 11.75 ms/tx ~ 4700 ms (Table IV, concurrency 2).
  EXPECT_NEAR(summary->MeanTotalMs(), 4700, 300);
}

TEST(SimulationTest, RejectsZeroConcurrency) {
  SimulationConfig config = SmallConfig(SchemeKind::kNezha);
  config.block_concurrency = 0;
  EXPECT_FALSE(RunSimulation(config).ok());
}

TEST(FullNodeTest, SchemeParsingRoundTrips) {
  for (SchemeKind kind :
       {SchemeKind::kSerial, SchemeKind::kOcc, SchemeKind::kCg,
        SchemeKind::kNezha, SchemeKind::kNezhaNoReorder}) {
    auto parsed = ParseScheme(SchemeName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseScheme("bogus").ok());
}

TEST(FullNodeTest, RejectsTamperedEpoch) {
  NodeConfig config;
  config.scheme = SchemeKind::kNezha;
  config.worker_threads = 2;
  config.max_chains = 2;
  FullNode node(config, nullptr);
  node.ledger().CommitEpochRoot(0, node.state().RootHash());

  Transaction tx;
  tx.payload = MakeSmallBankCall(SmallBankOp::kUpdateBalance, {1, 5});
  Block block = node.ledger().BuildBlock(0, 1, {tx});
  ASSERT_TRUE(node.ledger().AppendBlock(block).ok());
  auto batch = node.ledger().SealEpoch(1);
  ASSERT_TRUE(batch.ok());

  // Tamper with the sealed batch: swap in a different transaction.
  EpochBatch tampered = *batch;
  tampered.blocks[0].transactions[0].payload.args[1] = 999;
  EXPECT_FALSE(node.ProcessEpoch(tampered).ok());

  // The untampered batch processes fine.
  EXPECT_TRUE(node.ProcessEpoch(*batch).ok());
}

TEST(ObservabilityTest, RegistrySnapshotAgreesWithEpochReport) {
  // The registry is written from the reports: after a run, the published
  // series must agree with the reports for every scheme.
  for (SchemeKind kind :
       {SchemeKind::kSerial, SchemeKind::kOcc, SchemeKind::kCg,
        SchemeKind::kNezha, SchemeKind::kNezhaNoReorder}) {
    SCOPED_TRACE(SchemeName(kind));
    obs::Registry().ResetAll();
    auto summary = RunSimulation(SmallConfig(kind, 0.8));
    ASSERT_TRUE(summary.ok());
    const obs::RegistrySnapshot snapshot = obs::Registry().Snapshot();

    // Node-level totals agree with the summary.
    const std::string scheme_labels =
        std::string("{scheme=\"") + SchemeName(kind) + "\"}";
    EXPECT_DOUBLE_EQ(snapshot.Value("nezha_node_epochs_total", scheme_labels),
                     static_cast<double>(summary->reports.size()));
    EXPECT_DOUBLE_EQ(snapshot.Value("nezha_node_txs_total", scheme_labels),
                     static_cast<double>(summary->TotalTxs()));
    EXPECT_DOUBLE_EQ(
        snapshot.Value("nezha_node_committed_total", scheme_labels),
        static_cast<double>(summary->TotalCommitted()));
    EXPECT_DOUBLE_EQ(snapshot.Value("nezha_node_aborted_total", scheme_labels),
                     static_cast<double>(summary->TotalAborted()));

    if (kind == SchemeKind::kSerial) continue;  // no scheduler build

    // Scheduler-level totals: every transaction of every epoch was fed to
    // exactly one BuildSchedule, and every abort carries a reason label.
    const std::string sched_labels =
        std::string("{scheduler=\"") + SchemeName(kind) + "\"}";
    EXPECT_DOUBLE_EQ(snapshot.Value("nezha_scheduler_builds_total",
                                    sched_labels),
                     static_cast<double>(summary->reports.size()));
    EXPECT_DOUBLE_EQ(snapshot.Value("nezha_scheduler_txs_total", sched_labels),
                     static_cast<double>(summary->TotalTxs()));
    EXPECT_DOUBLE_EQ(
        snapshot.Value("nezha_scheduler_committed_total", sched_labels),
        static_cast<double>(summary->TotalCommitted()));
    EXPECT_DOUBLE_EQ(
        snapshot.SumAcrossLabels("nezha_scheduler_aborts_total"),
        static_cast<double>(summary->TotalAborted()));

    // The last-build gauges hold the last report's scheduler metrics.
    const SchedulerMetrics& expected = summary->reports.back().cc_metrics;
    EXPECT_DOUBLE_EQ(
        snapshot.Value("nezha_scheduler_graph_vertices", sched_labels),
        static_cast<double>(expected.graph_vertices));
    EXPECT_DOUBLE_EQ(
        snapshot.Value("nezha_scheduler_graph_edges", sched_labels),
        static_cast<double>(expected.graph_edges));
    EXPECT_DOUBLE_EQ(
        snapshot.Value("nezha_scheduler_last_cycles", sched_labels),
        static_cast<double>(expected.cycles_found));
    EXPECT_DOUBLE_EQ(
        snapshot.Value("nezha_scheduler_last_reordered", sched_labels),
        static_cast<double>(expected.reordered_txs));
    EXPECT_DOUBLE_EQ(
        snapshot.Value("nezha_scheduler_resource_exhausted", sched_labels),
        expected.resource_exhausted ? 1.0 : 0.0);
  }
}

// One obs::Stage per stage: the report's phase times, the scheduler's
// sub-phase times, the profile's stage walls and the Chrome trace's spans
// are the same stamp, so they agree to the nanosecond.
TEST(ObservabilityTest, EachStageIsStampedOnce) {
  obs::PhaseTracer& tracer = obs::PhaseTracer::Global();
  obs::Profiler().SetEnabled(true);
  tracer.Clear();
  tracer.SetEnabled(true);
  SimulationConfig config = SmallConfig(SchemeKind::kNezha);
  config.epochs = 1;
  auto summary = RunSimulation(config);
  tracer.SetEnabled(false);
  ASSERT_TRUE(summary.ok());
  const EpochReport& report = summary->reports[0];
  const std::vector<obs::TraceEvent> events = tracer.Events();
  const std::uint32_t driver = obs::CurrentThreadId();

  const auto profile_ms = [&report](const std::string& stage) {
    for (const obs::StageProfile& s : report.profile.stages) {
      if (s.stage == stage) return s.wall_ms;
    }
    ADD_FAILURE() << "no profile stage " << stage;
    return -1.0;
  };
  // The stage's span on the driving thread (task events share the stage
  // name but sit on depth 0, beside the epoch envelope).
  const auto trace_ms = [&](const std::string& stage) {
    const obs::TraceEvent* span = nullptr;
    for (const obs::TraceEvent& e : events) {
      if (e.name != stage || e.tid != driver || e.depth == 0) continue;
      EXPECT_EQ(span, nullptr) << "two spans for " << stage;
      span = &e;
    }
    if (span == nullptr) {
      ADD_FAILURE() << "no trace span " << stage;
      return -1.0;
    }
    return span->dur_us / 1000.0;
  };

  constexpr double kOneNsInMs = 1e-6;
  const std::pair<const char*, double> phases[] = {
      {"validate", report.validate_ms},
      {"execute", report.execute_ms},
      {"cc", report.cc_ms},
      {"commit", report.commit_ms}};
  for (const auto& [stage, ms] : phases) {
    SCOPED_TRACE(stage);
    EXPECT_NEAR(ms, profile_ms(stage), kOneNsInMs);
    EXPECT_NEAR(ms, trace_ms(stage), kOneNsInMs);
  }
  const SchedulerMetrics& cc = report.cc_metrics;
  EXPECT_NEAR(cc.construction_us / 1000.0, profile_ms("acg_build"),
              kOneNsInMs);
  EXPECT_NEAR(cc.cycle_us / 1000.0, profile_ms("rank_division"), kOneNsInMs);
  EXPECT_NEAR(cc.sorting_us / 1000.0, profile_ms("tx_sorting"), kOneNsInMs);

  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(json.find("\"name\":\"epoch 1\""), std::string::npos);
  bool on_worker = false;
  for (const auto& [tid, name] : tracer.ThreadNames()) {
    if (name.rfind("pool-worker-", 0) != 0) continue;
    for (const obs::TraceEvent& e : events) {
      on_worker = on_worker || (e.tid == tid && !e.counter);
    }
  }
  EXPECT_TRUE(on_worker) << "no task event on a pool worker's row";
  tracer.Clear();
}

// A failed epoch closes every window it opened and publishes nothing.
TEST(ObservabilityTest, FailedEpochClosesItsWindows) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.SetEnabled(true);
  recorder.Clear();
  NodeConfig config;
  config.scheme = SchemeKind::kNezha;
  config.worker_threads = 2;
  config.max_chains = 2;
  FullNode node(config, nullptr);
  node.ledger().CommitEpochRoot(0, node.state().RootHash());
  Transaction tx;
  tx.payload = MakeSmallBankCall(SmallBankOp::kUpdateBalance, {1, 5});
  ASSERT_TRUE(
      node.ledger().AppendBlock(node.ledger().BuildBlock(0, 1, {tx})).ok());
  auto batch = node.ledger().SealEpoch(1);
  ASSERT_TRUE(batch.ok());
  batch->blocks[0].header.tx_root = Hash256{};

  const obs::Labels by_scheme = {{"scheme", "nezha"}};
  const std::uint64_t epochs_before =
      obs::Registry().GetCounter("nezha_node_epochs_total", by_scheme)->Value();
  EXPECT_FALSE(node.ProcessEpoch(*batch).ok());
  EXPECT_FALSE(obs::Profiler().Sampling());
  EXPECT_FALSE(obs::Lifecycle().EpochActive());
  EXPECT_EQ(
      obs::Registry().GetCounter("nezha_node_epochs_total", by_scheme)->Value(),
      epochs_before);
  for (const obs::EpochFlightRecord& record : recorder.Records()) {
    EXPECT_NE(record.epoch, 1u) << "failed epoch left a flight record";
  }
  recorder.Clear();
}

// A schedule built after an epoch, outside any epoch, must not overwrite
// that epoch's determinism checkpoints.
TEST(ObservabilityTest, CheckpointEpochClosesWithTheEpoch) {
  analysis::DetCheckpointRecorder& det =
      analysis::DetCheckpointRecorder::Global();
  det.SetEnabled(true);
  det.Clear();
  SimulationConfig config = SmallConfig(SchemeKind::kNezha);
  config.epochs = 1;
  ASSERT_TRUE(RunSimulation(config).ok());
  const auto before = det.Find(1, "nezha");
  ASSERT_TRUE(before.has_value());
  ASSERT_TRUE(before->Has(analysis::DetStage::kSort));

  std::vector<Transaction> txs(40);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    txs[i].payload = MakeSmallBankCall(SmallBankOp::kUpdateBalance, {i, 1});
  }
  StateDB db;
  const auto rwsets = ExecuteBatchSerial(db.MakeSnapshot(0), txs).rwsets;
  ASSERT_TRUE(OCCScheduler().BuildSchedule(rwsets).ok());

  const auto after = det.Find(1, "nezha");
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->Digest(analysis::DetStage::kSort),
            before->Digest(analysis::DetStage::kSort));
  det.SetEnabled(std::nullopt);
  det.Clear();
}

// The flight record's scheduler facts come back from the build itself, not
// from the registry, so they survive a run with metrics switched off: a
// 4-worker Nezha epoch large enough to shard records the shards and
// clusters it used (0 is reserved for non-Nezha schemes).
TEST(ObservabilityTest, FlightRecordKeepsSchedulerFactsWithMetricsOff) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.SetEnabled(true);
  recorder.Clear();
  SimulationConfig config = SmallConfig(SchemeKind::kNezha);
  config.node.worker_threads = 4;
  config.epochs = 1;
  obs::SetMetricsEnabled(false);
  auto summary = RunSimulation(config);
  obs::SetMetricsEnabled(true);
  ASSERT_TRUE(summary.ok());
  const std::vector<obs::EpochFlightRecord> records = recorder.Records();
  recorder.Clear();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].scheme, "nezha");
  EXPECT_EQ(records[0].parallel_acg_shards, 4u);
  EXPECT_GE(records[0].parallel_sort_clusters, 1u);
  EXPECT_EQ(summary->reports[0].cc_metrics.acg_shards, 4u);
  EXPECT_EQ(summary->reports[0].cc_metrics.sort_clusters,
            records[0].parallel_sort_clusters);
}

TEST(DeferredPipelineTest, SerialBatchSeesEarlierWritesOfTheBatch) {
  // Serial in the deferred path executes each transaction against the
  // writes of the ones before it. Simulating both against the batch
  // snapshot and applying the recorded writes instead would leave
  // checking(0) at 100 + 5 = 105: the payment's debit lost, money created.
  DeferredExecConfig config;
  config.scheme = SchemeKind::kSerial;
  config.worker_threads = 2;
  DeferredExecutionPipeline pipeline(config);
  pipeline.state().Set(CheckingAddress(0), 100);
  pipeline.state().Set(CheckingAddress(1), 100);

  std::vector<Transaction> txs(2);
  txs[0].payload = MakeSmallBankCall(SmallBankOp::kSendPayment, {0, 1, 30});
  txs[1].payload = MakeSmallBankCall(SmallBankOp::kUpdateBalance, {0, 5});
  const auto report = pipeline.ProcessBatch(txs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->committed, 2u);
  EXPECT_EQ(report->aborted, 0u);
  EXPECT_EQ(pipeline.state().Get(CheckingAddress(0)), 75);
  EXPECT_EQ(pipeline.state().Get(CheckingAddress(1)), 130);
}

TEST(FullNodeTest, ThroughputAccountingUsesCadenceFloor) {
  SimulationSummary summary;
  EpochReport fast;
  fast.committed = 100;
  fast.commit_ms = 10;  // well under the 1 s cadence
  summary.reports = {fast};
  EXPECT_NEAR(summary.EffectiveTps(1.0), 100.0, 1e-9);

  EpochReport slow = fast;
  slow.commit_ms = 4000;  // pipeline-bound epoch
  summary.reports = {slow};
  EXPECT_NEAR(summary.EffectiveTps(1.0), 25.0, 1e-9);
}

}  // namespace
}  // namespace nezha
