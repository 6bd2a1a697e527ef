// Determinism matrix + divergence-localization tests for the stage-level
// checkpoint auditor (src/analysis/det_checkpoint.h, docs/ANALYSIS.md
// "Determinism auditor").
//
//   * Matrix: 20 seeded workloads x {1,2,4,8} execution threads x
//     {serial-build, 2-shard, 8-shard ACG} x all five schemes must produce
//     stage-identical checkpoint digests — the parallel pipeline's
//     byte-identical-output promise, now checked per stage instead of only
//     at the final state root.
//   * Localization: an injected stage-local perturbation
//     (PerturbStageForTest) and real configuration ablations (naive rank
//     policy, reordering off) must surface as a FIRST divergence at exactly
//     the stage that changed, with every upstream stage reported as
//     matched — the bisection property that turns "roots differ" into
//     "sort stage, line N".
//   * Recorder mechanics: ring shedding, epoch-slot reuse, capture-mode
//     line diffs, enable/disable, and the consensus-sim kConsensus record.
//
// This test runs in the TSan CI job as well: every Record() call under the
// group-parallel executor crosses threads, so the recorder's locking is
// exercised under the race detector.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/det_checkpoint.h"
#include "cc/cg/cg_scheduler.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "cc/occ/occ_scheduler.h"
#include "cc/serial/serial_scheduler.h"
#include "cc/scheduler.h"
#include "common/thread_pool.h"
#include "consensus/ohie_sim.h"
#include "node/simulation.h"
#include "storage/kvstore.h"
#include "storage/state_db.h"
#include "workload/kv_workload.h"

namespace nezha {
namespace {

using analysis::DetCheckpointRecorder;
using analysis::DetStage;
using analysis::DivergenceReport;
using analysis::EpochCheckpoints;

// One pool per thread count, shared across all cases (pool creation is not
// what is under test).
ThreadPool& PoolWithThreads(std::size_t threads) {
  static std::array<std::unique_ptr<ThreadPool>, 9> pools;
  if (!pools[threads]) pools[threads] = std::make_unique<ThreadPool>(threads);
  return *pools[threads];
}

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DetCheckpointRecorder& det = DetCheckpointRecorder::Global();
    det.SetEnabled(true);
    det.SetCapture(true);
    det.PerturbStageForTest(std::nullopt);
    det.Clear();
    // The serializability oracle is differential-tested elsewhere
    // (parallel_pipeline_test); keep the 500+ pipeline runs here about
    // checkpoint equality so the matrix stays fast under TSan.
    SetScheduleVerification(false);
  }
  void TearDown() override {
    DetCheckpointRecorder& det = DetCheckpointRecorder::Global();
    det.PerturbStageForTest(std::nullopt);
    det.SetCapture(false);
    det.SetEnabled(std::nullopt);
    det.Clear();
    SetScheduleVerification(std::nullopt);
  }
};

/// Builds the schedule and group-parallel-executes it against a fresh
/// StateDB with checkpointing on, returning the run's checkpoint records.
std::vector<EpochCheckpoints> RunPipelineOnce(
    Scheduler& scheduler, std::span<const ReadWriteSet> rwsets,
    const std::string& scheme, std::size_t threads) {
  DetCheckpointRecorder& det = DetCheckpointRecorder::Global();
  det.Clear();
  det.BeginEpoch(1, scheme);
  auto schedule = scheduler.BuildSchedule(rwsets);
  EXPECT_TRUE(schedule.ok()) << scheme << ": " << schedule.status().ToString();
  if (!schedule.ok()) return {};
  StateDB db;
  const StateSnapshot snapshot = db.MakeSnapshot(0);
  ExecuteScheduleParallel(PoolWithThreads(threads), db, snapshot, *schedule,
                          rwsets);
  return det.Snapshot();
}

std::vector<ReadWriteSet> MakeWorkload(std::uint64_t seed, double skew,
                                       std::size_t txs) {
  KVWorkloadConfig config;
  config.num_keys = 300;
  config.skew = skew;
  config.reads_per_tx = 2;
  config.writes_per_tx = 2;
  // Cycle the blind-write fraction so RMW aborts and the §IV.D blind-write
  // rescue paths both feed the checkpoint encodings.
  config.blind_write_fraction = 0.25 * static_cast<double>(seed % 5);
  return KVWorkload(config, 9'000 + seed).MakeBatch(txs);
}

struct SchemeCase {
  std::string name;
  bool sharded;  ///< Nezha schemes: the ACG build takes pool + shard count
};

std::unique_ptr<Scheduler> MakeCaseScheduler(const SchemeCase& scheme,
                                             ThreadPool* pool,
                                             std::size_t shards) {
  if (scheme.name == "serial") return std::make_unique<SerialScheduler>();
  if (scheme.name == "occ") return std::make_unique<OCCScheduler>();
  if (scheme.name == "cg") return std::make_unique<CGScheduler>();
  NezhaOptions options;
  options.enable_reordering = scheme.name == "nezha";
  options.pool = pool;
  options.acg_shards = shards;
  return std::make_unique<NezhaScheduler>(options);
}

// 20 seeds x {1,2,4,8} threads x {serial-build, 2-shard, 8-shard ACG} x all
// five schemes: every recorded stage digest must equal the single-threaded
// serial-build reference. Non-Nezha schemes have no sharded ACG build, so
// their matrix varies the execution pool only.
TEST_F(DeterminismTest, MatrixStageDigestsInvariantAcrossThreadsAndShards) {
  const SchemeCase kSchemes[] = {{"serial", false},
                                 {"occ", false},
                                 {"cg", false},
                                 {"nezha", true},
                                 {"nezha-noreorder", true}};
  const double kSkews[] = {0.0, 0.6, 0.9, 0.99};
  const std::size_t kThreads[] = {2, 4, 8};
  const std::size_t kShards[] = {2, 8};
  constexpr std::uint64_t kSeeds = 20;

  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const std::vector<ReadWriteSet> rwsets =
        MakeWorkload(seed, kSkews[seed % 4], 128);
    for (const SchemeCase& scheme : kSchemes) {
      // Reference: 1 execution thread, serial (unsharded, poolless) build.
      auto ref_scheduler = MakeCaseScheduler(scheme, nullptr, 0);
      const auto reference =
          RunPipelineOnce(*ref_scheduler, rwsets, scheme.name, 1);
      ASSERT_EQ(reference.size(), 1u) << scheme.name;
      EXPECT_TRUE(reference[0].Has(DetStage::kSort));
      EXPECT_TRUE(reference[0].Has(DetStage::kExecute));
      if (scheme.sharded) {
        EXPECT_TRUE(reference[0].Has(DetStage::kAcg));
        EXPECT_TRUE(reference[0].Has(DetStage::kRank));
      }

      for (const std::size_t threads : kThreads) {
        const std::size_t shard_cases = scheme.sharded ? 2 : 1;
        for (std::size_t si = 0; si < shard_cases; ++si) {
          const std::size_t shards = scheme.sharded ? kShards[si] : 0;
          auto scheduler = MakeCaseScheduler(
              scheme, scheme.sharded ? &PoolWithThreads(threads) : nullptr,
              shards);
          const auto run = RunPipelineOnce(*scheduler, rwsets, scheme.name,
                                           threads);
          const DivergenceReport report =
              analysis::DiffCheckpoints(reference, run);
          EXPECT_FALSE(report.diverged)
              << scheme.name << " seed=" << seed << " threads=" << threads
              << " shards=" << shards << ": " << report.summary;
          // Every stage recorded by the reference must also have been
          // recorded (and matched) by the variant run.
          EXPECT_EQ(report.matched_stages.size(),
                    scheme.sharded ? 4u : 2u)
              << scheme.name << " seed=" << seed;
        }
      }
    }
  }
}

// The PerturbStageForTest hook simulates a stage-local nondeterminism bug:
// the diff must report exactly the perturbed stage as the first divergence,
// with every upstream stage in matched_stages (bisection evidence that the
// break is local, not inherited).
TEST_F(DeterminismTest, InjectedPerturbationLocalizesToPerturbedStage) {
  const std::vector<ReadWriteSet> rwsets = MakeWorkload(3, 0.9, 128);
  NezhaScheduler reference_scheduler;
  const auto reference =
      RunPipelineOnce(reference_scheduler, rwsets, "nezha", 1);
  ASSERT_EQ(reference.size(), 1u);

  const struct {
    DetStage stage;
    std::size_t upstream;  ///< stages recorded before it in pipeline order
  } kCases[] = {{DetStage::kAcg, 0},
                {DetStage::kRank, 1},
                {DetStage::kSort, 2},
                {DetStage::kExecute, 3}};
  for (const auto& c : kCases) {
    DetCheckpointRecorder::Global().PerturbStageForTest(c.stage);
    NezhaScheduler scheduler;
    const auto perturbed = RunPipelineOnce(scheduler, rwsets, "nezha", 4);
    DetCheckpointRecorder::Global().PerturbStageForTest(std::nullopt);

    const DivergenceReport report =
        analysis::DiffCheckpoints(reference, perturbed);
    ASSERT_TRUE(report.diverged) << analysis::DetStageName(c.stage);
    EXPECT_EQ(report.stage, c.stage);
    EXPECT_EQ(report.epoch, 1u);
    EXPECT_EQ(report.matched_stages.size(), c.upstream)
        << analysis::DetStageName(c.stage);
    for (const DetStage matched : report.matched_stages) {
      EXPECT_LT(static_cast<int>(matched), static_cast<int>(c.stage));
    }
  }
}

// Real configuration ablation #1: the naive rank policy (Algorithm 1
// tie-break baseline) changes rank division and nothing upstream of it —
// the first divergence must land on kRank with kAcg matched.
TEST_F(DeterminismTest, RankPolicyAblationFirstDivergesAtRank) {
  bool diverged_somewhere = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::vector<ReadWriteSet> rwsets = MakeWorkload(seed, 0.99, 160);
    NezhaScheduler nezha;
    const auto reference = RunPipelineOnce(nezha, rwsets, "nezha", 2);

    NezhaOptions naive_options;
    naive_options.rank_policy = RankPolicy::kNaive;
    NezhaScheduler naive(naive_options);
    const auto ablated = RunPipelineOnce(naive, rwsets, "nezha", 2);

    const DivergenceReport report =
        analysis::DiffCheckpoints(reference, ablated);
    if (!report.diverged) continue;  // no ACG cycle this seed; tie-break moot
    diverged_somewhere = true;
    EXPECT_EQ(report.stage, DetStage::kRank) << "seed=" << seed;
    ASSERT_FALSE(report.matched_stages.empty()) << "seed=" << seed;
    EXPECT_EQ(report.matched_stages[0], DetStage::kAcg) << "seed=" << seed;
  }
  EXPECT_TRUE(diverged_somewhere)
      << "no contended seed separated the rank policies";
}

// Real configuration ablation #2: disabling §IV.D reordering changes the
// schedule (kSort) but not the ACG or the ranks — and capture mode must
// point at the exact first differing canonical line.
TEST_F(DeterminismTest, ReorderAblationFirstDivergesAtSortWithLineDiff) {
  bool diverged_somewhere = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const std::vector<ReadWriteSet> rwsets = MakeWorkload(seed, 0.99, 160);
    NezhaScheduler nezha;
    const auto reference = RunPipelineOnce(nezha, rwsets, "nezha", 2);

    NezhaOptions options;
    options.enable_reordering = false;
    NezhaScheduler noreorder(options);
    const auto ablated = RunPipelineOnce(noreorder, rwsets, "nezha", 2);

    const DivergenceReport report =
        analysis::DiffCheckpoints(reference, ablated);
    if (!report.diverged) continue;  // nothing to rescue this seed
    diverged_somewhere = true;
    EXPECT_EQ(report.stage, DetStage::kSort) << "seed=" << seed;
    ASSERT_GE(report.matched_stages.size(), 2u) << "seed=" << seed;
    EXPECT_EQ(report.matched_stages[0], DetStage::kAcg);
    EXPECT_EQ(report.matched_stages[1], DetStage::kRank);
    // Capture mode was on: the report must carry a line-level diff.
    EXPECT_GT(report.line, 0u) << "seed=" << seed;
    EXPECT_NE(report.line_a, report.line_b) << "seed=" << seed;
    EXPECT_NE(report.summary.find("sort"), std::string::npos)
        << report.summary;
  }
  EXPECT_TRUE(diverged_somewhere)
      << "no contended seed exercised the reordering enhancement";
}

// Full-node runs (speculative execution -> scheduling -> group-parallel
// commit -> durable root) across worker-thread counts: the kSort, kExecute
// and kCommit records of every epoch must match the single-threaded run.
TEST_F(DeterminismTest, FullNodeCheckpointsInvariantAcrossWorkerThreads) {
  auto run = [](std::size_t threads) {
    DetCheckpointRecorder& det = DetCheckpointRecorder::Global();
    det.Clear();
    SimulationConfig config;
    config.node.scheme = SchemeKind::kNezha;
    config.node.worker_threads = threads;
    config.workload.num_accounts = 200;
    config.workload.skew = 0.9;
    config.block_size = 50;
    config.block_concurrency = 2;
    config.epochs = 3;
    config.seed = 7;
    auto summary = RunSimulation(config);
    EXPECT_TRUE(summary.ok());
    return det.Snapshot();
  };

  const auto reference = run(1);
  ASSERT_EQ(reference.size(), 3u);
  for (const EpochCheckpoints& epoch : reference) {
    EXPECT_TRUE(epoch.Has(DetStage::kSort)) << epoch.epoch;
    EXPECT_TRUE(epoch.Has(DetStage::kExecute)) << epoch.epoch;
    EXPECT_TRUE(epoch.Has(DetStage::kCommit)) << epoch.epoch;
    EXPECT_EQ(epoch.scheme, "nezha");
  }
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto run_t = run(threads);
    const DivergenceReport report =
        analysis::DiffCheckpoints(reference, run_t);
    EXPECT_FALSE(report.diverged)
        << "threads=" << threads << ": " << report.summary;
  }

  // KV-backed input: the same seeded epochs through a node with a KVStore
  // attached. Its kCommit digest covers the serialized commit batch
  // (batch_digest), and the whole durable byte stream — journals, commit
  // batches, blocks, receipts, epoch roots — must match byte for byte.
  struct DurableRun {
    std::vector<EpochCheckpoints> checkpoints;
    std::string kv_bytes;
  };
  auto run_durable = [](std::size_t threads) {
    DetCheckpointRecorder& det = DetCheckpointRecorder::Global();
    det.Clear();
    NodeConfig node_config;
    node_config.scheme = SchemeKind::kNezha;
    node_config.worker_threads = threads;
    node_config.max_chains = 2;
    WorkloadConfig wl;
    wl.num_accounts = 200;
    wl.skew = 0.9;
    KVStore kv;
    FullNode node(node_config, &kv);
    SmallBankWorkload workload(wl, 7);
    SmallBankWorkload::InitAccounts(node.state(), wl.num_accounts, 100, 100);
    EXPECT_TRUE(node.state().Flush().ok());
    node.ledger().CommitEpochRoot(0, node.state().RootHash());
    for (EpochId epoch = 1; epoch <= 3; ++epoch) {
      for (ChainId chain = 0; chain < 2; ++chain) {
        Block block =
            node.ledger().BuildBlock(chain, epoch, workload.MakeBatch(50));
        EXPECT_TRUE(node.ledger().AppendBlock(std::move(block)).ok());
      }
      auto sealed = node.ledger().SealEpoch(epoch);
      EXPECT_TRUE(sealed.ok());
      auto report = node.ProcessEpoch(*sealed);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
    }
    return DurableRun{det.Snapshot(), kv.Checkpoint()};
  };

  const DurableRun durable_1 = run_durable(1);
  ASSERT_EQ(durable_1.checkpoints.size(), 3u);
  for (const EpochCheckpoints& epoch : durable_1.checkpoints) {
    ASSERT_TRUE(epoch.Has(DetStage::kCommit)) << epoch.epoch;
    EXPECT_NE(epoch.Canonical(DetStage::kCommit).find("batch_digest="),
              std::string::npos)
        << epoch.epoch;
  }
  const DurableRun durable_4 = run_durable(4);
  const DivergenceReport durable_report =
      analysis::DiffCheckpoints(durable_1.checkpoints, durable_4.checkpoints);
  EXPECT_FALSE(durable_report.diverged) << durable_report.summary;
  ASSERT_EQ(durable_4.checkpoints.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(durable_1.checkpoints[i].Digest(DetStage::kCommit),
              durable_4.checkpoints[i].Digest(DetStage::kCommit))
        << "epoch " << durable_1.checkpoints[i].epoch;
  }
  EXPECT_FALSE(durable_1.kv_bytes.empty());
  EXPECT_EQ(durable_1.kv_bytes, durable_4.kv_bytes)
      << "durable byte stream differs between 1 and 4 workers";
}

// The serial baseline records its own kExecute/kCommit overlay encodings;
// two identical runs must match, and serial-vs-nezha state roots agreeing
// is already covered elsewhere.
TEST_F(DeterminismTest, SerialBaselineFullNodeIsSelfConsistent) {
  auto run = [] {
    DetCheckpointRecorder& det = DetCheckpointRecorder::Global();
    det.Clear();
    SimulationConfig config;
    config.node.scheme = SchemeKind::kSerial;
    config.workload.num_accounts = 200;
    config.block_size = 40;
    config.block_concurrency = 2;
    config.epochs = 2;
    config.seed = 13;
    auto summary = RunSimulation(config);
    EXPECT_TRUE(summary.ok());
    return det.Snapshot();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), 2u);
  for (const EpochCheckpoints& epoch : a) {
    EXPECT_TRUE(epoch.Has(DetStage::kExecute)) << epoch.epoch;
    EXPECT_TRUE(epoch.Has(DetStage::kCommit)) << epoch.epoch;
  }
  const DivergenceReport report = analysis::DiffCheckpoints(a, b);
  EXPECT_FALSE(report.diverged) << report.summary;
}

// ---------- recorder mechanics ----------

TEST_F(DeterminismTest, DisabledRecorderRecordsNothing) {
  DetCheckpointRecorder recorder(8);
  recorder.SetEnabled(false);
  recorder.BeginEpoch(1, "test");
  recorder.Record(DetStage::kSort, "payload");
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST_F(DeterminismTest, RecordWithoutOpenEpochIsANoOp) {
  DetCheckpointRecorder recorder(8);
  recorder.SetEnabled(true);
  recorder.Record(DetStage::kSort, "payload");
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST_F(DeterminismTest, RingShedsOldestEpochs) {
  DetCheckpointRecorder recorder(4);
  recorder.SetEnabled(true);
  for (EpochId epoch = 1; epoch <= 6; ++epoch) {
    recorder.BeginEpoch(epoch, "test");
    recorder.Record(DetStage::kSort, "e" + std::to_string(epoch));
  }
  const auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].epoch, i + 3);
  }
  EXPECT_FALSE(recorder.Find(1, "test").has_value());
  EXPECT_TRUE(recorder.Find(6, "test").has_value());
}

TEST_F(DeterminismTest, ReopeningAnEpochReusesItsSlot) {
  DetCheckpointRecorder recorder(8);
  recorder.SetEnabled(true);
  recorder.BeginEpoch(1, "test");
  recorder.Record(DetStage::kSort, "sort-bytes");
  recorder.BeginEpoch(2, "test");
  recorder.Record(DetStage::kSort, "other");
  recorder.BeginEpoch(1, "test");  // multi-phase pipelines re-open
  recorder.Record(DetStage::kCommit, "commit-bytes");
  const auto record = recorder.Find(1, "test");
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->Has(DetStage::kSort));
  EXPECT_TRUE(record->Has(DetStage::kCommit));
  EXPECT_EQ(recorder.Snapshot().size(), 2u);
}

TEST_F(DeterminismTest, SameEpochDifferentSchemesKeepSeparateRecords) {
  DetCheckpointRecorder recorder(8);
  recorder.SetEnabled(true);
  recorder.BeginEpoch(1, "nezha");
  recorder.Record(DetStage::kSort, "nezha-schedule");
  recorder.BeginEpoch(1, "occ");
  recorder.Record(DetStage::kSort, "occ-schedule");
  const auto nezha = recorder.Find(1, "nezha");
  const auto occ = recorder.Find(1, "occ");
  ASSERT_TRUE(nezha.has_value());
  ASSERT_TRUE(occ.has_value());
  EXPECT_NE(nezha->Digest(DetStage::kSort), occ->Digest(DetStage::kSort));
}

TEST_F(DeterminismTest, CaptureModeRetainsCanonicalEncodings) {
  DetCheckpointRecorder recorder(8);
  recorder.SetEnabled(true);
  recorder.BeginEpoch(1, "test");
  recorder.Record(DetStage::kSort, "digest-only");
  recorder.SetCapture(true);
  recorder.BeginEpoch(2, "test");
  recorder.Record(DetStage::kSort, "captured-bytes");
  EXPECT_TRUE(recorder.Find(1, "test")->Canonical(DetStage::kSort).empty());
  EXPECT_EQ(recorder.Find(2, "test")->Canonical(DetStage::kSort),
            "captured-bytes");
}

TEST_F(DeterminismTest, FirstDifferingLineReportsOneBasedLine) {
  std::string la, lb;
  EXPECT_EQ(analysis::FirstDifferingLine("a\nb\nc", "a\nb\nc", &la, &lb), 0u);
  EXPECT_EQ(analysis::FirstDifferingLine("a\nb\nc", "a\nx\nc", &la, &lb), 2u);
  EXPECT_EQ(la, "b");
  EXPECT_EQ(lb, "x");
  EXPECT_EQ(analysis::FirstDifferingLine("a\nb", "a\nb\nc", &la, &lb), 3u);
  EXPECT_EQ(la, "<missing>");
  EXPECT_EQ(lb, "c");
}

TEST_F(DeterminismTest, DiffReportsEpochPresentOnOneSideOnly) {
  EpochCheckpoints only_a;
  only_a.epoch = 5;
  const DivergenceReport report = analysis::DiffCheckpoints({only_a}, {});
  EXPECT_TRUE(report.diverged);
  EXPECT_EQ(report.epoch, 5u);
  EXPECT_NE(report.summary.find("only on side A"), std::string::npos);
}

// The consensus sims record kConsensus under (epoch 0, "<sim>-sim"): two
// identical runs must digest identically; different seeds must not.
TEST_F(DeterminismTest, ConsensusSimRecordIsSeedDeterministic) {
  auto run = [](std::uint64_t seed) {
    DetCheckpointRecorder& det = DetCheckpointRecorder::Global();
    det.Clear();
    OhieSimConfig config;
    config.num_chains = 2;
    config.num_nodes = 3;
    config.mean_block_interval_ms = 200;
    config.duration_ms = 5'000;
    config.seed = seed;
    OhieSimulation sim(config);
    sim.Run();
    const auto record = det.Find(0, "ohie-sim");
    EXPECT_TRUE(record.has_value());
    return record.value_or(EpochCheckpoints{});
  };
  const EpochCheckpoints a1 = run(21);
  const EpochCheckpoints a2 = run(21);
  const EpochCheckpoints b = run(22);
  ASSERT_TRUE(a1.Has(DetStage::kConsensus));
  EXPECT_EQ(a1.Digest(DetStage::kConsensus), a2.Digest(DetStage::kConsensus));
  EXPECT_NE(a1.Digest(DetStage::kConsensus), b.Digest(DetStage::kConsensus));
}

}  // namespace
}  // namespace nezha
