// System-level integration: OHIE consensus simulation feeding the deferred
// execution pipeline. The headline property is replica consistency — every
// node, independently executing its own confirmed order in protocol-defined
// rank-window epochs, reaches the same state root no matter when or how
// often it catches up.
#include <gtest/gtest.h>

#include <optional>

#include "analysis/det_checkpoint.h"
#include "consensus/ohie_sim.h"
#include "node/ohie_bridge.h"
#include "workload/smallbank_workload.h"

namespace nezha {
namespace {

OhieSimConfig SimConfig(std::uint64_t seed) {
  OhieSimConfig config;
  config.num_chains = 3;
  config.num_nodes = 4;
  config.mean_block_interval_ms = 100;
  config.confirm_depth = 4;
  config.duration_ms = 20'000;
  config.seed = seed;
  return config;
}

/// A shared deterministic transaction source: all miners draw from one
/// global client stream (a simple stand-in for a gossiping mempool).
class SharedTxSource {
 public:
  explicit SharedTxSource(double skew)
      : workload_(MakeConfig(skew), /*seed=*/99) {}

  std::vector<Transaction> Take(std::size_t n) {
    return workload_.MakeBatch(n);
  }

 private:
  static WorkloadConfig MakeConfig(double skew) {
    WorkloadConfig config;
    config.num_accounts = 500;
    config.skew = skew;
    return config;
  }
  SmallBankWorkload workload_;
};

TEST(OhieBridgeTest, AllReplicasReachTheSameStateRoot) {
  SharedTxSource source(0.7);
  OhieSimulation sim(SimConfig(7), [&source](NodeId) {
    return source.Take(10);
  });
  sim.Run();
  ASSERT_GT(sim.node(0).ConfirmedOrder().size(), 10u);

  Hash256 reference{};
  std::size_t reference_committed = 0;
  for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
    OhieBridgeConfig bridge_config;
    bridge_config.worker_threads = 2;
    OhieDeferredExecutor executor(bridge_config);
    auto reports = executor.CatchUp(sim.node(i));
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    ASSERT_FALSE(reports->empty());
    std::size_t committed = 0;
    for (const EpochReport& r : *reports) committed += r.committed;
    const Hash256 root = reports->back().state_root;
    if (i == 0) {
      reference = root;
      reference_committed = committed;
      EXPECT_FALSE(reference.IsZero());
      EXPECT_GT(committed, 0u);
    } else {
      EXPECT_EQ(root, reference) << "node " << i;
      EXPECT_EQ(committed, reference_committed);
    }
  }
}

TEST(OhieBridgeTest, EachWindowRecordsItsOwnCheckpoints) {
  // The consensus sim's checkpoint record keeps only its kConsensus digest;
  // every executed rank window opens its own (epoch, scheme) record, as
  // every epoch through FullNode::ProcessEpoch does.
  using analysis::DetCheckpointRecorder;
  using analysis::DetStage;
  struct RecorderGuard {
    RecorderGuard() {
      DetCheckpointRecorder::Global().Clear();
      DetCheckpointRecorder::Global().SetEnabled(true);
    }
    ~RecorderGuard() {
      DetCheckpointRecorder::Global().SetEnabled(std::nullopt);
      DetCheckpointRecorder::Global().Clear();
    }
  } guard;
  const DetCheckpointRecorder& det = DetCheckpointRecorder::Global();

  SharedTxSource source(0.7);
  OhieSimulation sim(SimConfig(7), [&source](NodeId) {
    return source.Take(10);
  });
  sim.Run();
  OhieBridgeConfig bridge_config;
  bridge_config.worker_threads = 2;
  OhieDeferredExecutor executor(bridge_config);
  auto reports = executor.CatchUp(sim.node(0));
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_FALSE(reports->empty());

  const auto sim_record = det.Find(0, "ohie-sim");
  ASSERT_TRUE(sim_record.has_value());
  EXPECT_TRUE(sim_record->Has(DetStage::kConsensus));
  for (const DetStage stage : {DetStage::kAcg, DetStage::kRank,
                               DetStage::kSort, DetStage::kExecute,
                               DetStage::kCommit}) {
    EXPECT_FALSE(sim_record->Has(stage)) << analysis::DetStageName(stage);
  }
  for (const EpochReport& report : *reports) {
    const auto record = det.Find(report.epoch, "nezha");
    ASSERT_TRUE(record.has_value()) << "epoch " << report.epoch;
    for (const DetStage stage :
         {DetStage::kSort, DetStage::kExecute, DetStage::kCommit}) {
      EXPECT_TRUE(record->Has(stage)) << "epoch " << report.epoch << " "
                                      << analysis::DetStageName(stage);
    }
  }
}

TEST(OhieBridgeTest, CatchUpCadenceDoesNotChangeTheState) {
  // Replica A executes once at the end; replica B catches up after every
  // few hundred simulated milliseconds (via deterministic re-runs with
  // increasing horizons). Rank-window epochs make both walks identical.
  SharedTxSource source_a(0.5);
  OhieSimulation final_run(SimConfig(8), [&source_a](NodeId) {
    return source_a.Take(8);
  });
  final_run.Run();

  OhieBridgeConfig config;
  config.worker_threads = 2;
  OhieDeferredExecutor one_shot(config);
  auto full = one_shot.CatchUp(final_run.node(0));
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->empty());

  OhieDeferredExecutor incremental(config);
  for (double horizon : {7'000.0, 13'000.0, 20'000.0}) {
    OhieSimConfig partial_config = SimConfig(8);
    partial_config.duration_ms = horizon;
    SharedTxSource source_b(0.5);  // same stream, same seed
    OhieSimulation partial(partial_config, [&source_b](NodeId) {
      return source_b.Take(8);
    });
    partial.Run();
    ASSERT_TRUE(incremental.CatchUp(partial.node(0)).ok());
  }
  EXPECT_EQ(incremental.executed_windows(), one_shot.executed_windows());
  EXPECT_EQ(incremental.executed_blocks(), one_shot.executed_blocks());
  EXPECT_EQ(incremental.state().RootHash(), one_shot.state().RootHash());
}

TEST(OhieBridgeTest, EmptyViewExecutesNothing) {
  OhieNodeView view(0, 2, 4);
  OhieDeferredExecutor executor(OhieBridgeConfig{});
  auto reports = executor.CatchUp(view);
  ASSERT_TRUE(reports.ok());
  EXPECT_TRUE(reports->empty());
  EXPECT_EQ(executor.executed_blocks(), 0u);
}

TEST(OhieBridgeTest, WindowsOnlyExecuteOncePassedByTheBar) {
  SharedTxSource source(0.3);
  OhieSimulation sim(SimConfig(9), [&source](NodeId) {
    return source.Take(5);
  });
  sim.Run();
  const std::uint64_t bar = sim.node(0).ConfirmBar();
  ASSERT_GT(bar, 4u);

  OhieBridgeConfig config;
  config.ranks_per_epoch = 4;
  OhieDeferredExecutor executor(config);
  auto reports = executor.CatchUp(sim.node(0));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(executor.executed_windows(), bar / 4);
  // Confirmed blocks beyond the last complete window stay unexecuted.
  EXPECT_LE(executor.executed_blocks(), sim.node(0).ConfirmedOrder().size());
  // A second catch-up on the same view adds nothing.
  auto again = executor.CatchUp(sim.node(0));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->empty());
}

TEST(OhieBridgeTest, DuplicateTransactionsExecuteOnce) {
  // Miners that package the same transactions: the bridge's
  // first-appearance rule must keep duplicates from double-applying.
  SmallBankWorkload workload(WorkloadConfig{}, 1);
  const auto shared_txs = workload.MakeBatch(5);
  OhieSimConfig config = SimConfig(10);
  OhieSimulation sim(config, [&shared_txs](NodeId) { return shared_txs; });
  sim.Run();
  ASSERT_GT(sim.node(0).ConfirmedOrder().size(), 1u);

  OhieDeferredExecutor executor(OhieBridgeConfig{});
  auto reports = executor.CatchUp(sim.node(0));
  ASSERT_TRUE(reports.ok());
  std::size_t total_txs = 0;
  for (const EpochReport& r : *reports) total_txs += r.txs;
  // Every block carried the same 5 txs; only 5 unique ones execute.
  EXPECT_EQ(total_txs, 5u);
}

TEST(OhieBridgeTest, SchemesAgreeOnConflictFreeTraffic) {
  // With a huge account space the traffic is (almost surely) conflict-free;
  // nezha / cg / occ bridges must agree with the serial-scheme result.
  WorkloadConfig wl;
  wl.num_accounts = 10'000'000;
  SmallBankWorkload workload(wl, 5);
  OhieSimConfig config = SimConfig(11);
  OhieSimulation sim(config, [&workload](NodeId) {
    return workload.MakeBatch(3);
  });
  sim.Run();
  ASSERT_FALSE(sim.node(0).ConfirmedOrder().empty());

  Hash256 roots[4];
  const SchemeKind kinds[] = {SchemeKind::kSerial, SchemeKind::kOcc,
                              SchemeKind::kCg, SchemeKind::kNezha};
  for (int i = 0; i < 4; ++i) {
    OhieBridgeConfig bridge_config;
    bridge_config.scheme = kinds[i];
    OhieDeferredExecutor executor(bridge_config);
    auto reports = executor.CatchUp(sim.node(0));
    ASSERT_TRUE(reports.ok());
    ASSERT_FALSE(reports->empty());
    roots[i] = executor.state().RootHash();
  }
  EXPECT_EQ(roots[1], roots[0]);
  EXPECT_EQ(roots[2], roots[0]);
  EXPECT_EQ(roots[3], roots[0]);
}

TEST(OhieBridgeTest, ContentiousTrafficStillConvergesAcrossReplicas) {
  // High contention (skew 1.0, small account set): lots of aborts, and the
  // replicas must still agree transaction-for-transaction.
  SharedTxSource source(1.0);
  OhieSimulation sim(SimConfig(12), [&source](NodeId) {
    return source.Take(12);
  });
  sim.Run();

  Hash256 reference{};
  for (std::size_t i = 0; i < sim.num_nodes(); ++i) {
    OhieDeferredExecutor executor(OhieBridgeConfig{});
    auto reports = executor.CatchUp(sim.node(i));
    ASSERT_TRUE(reports.ok());
    const Hash256 root = executor.state().RootHash();
    if (i == 0) {
      reference = root;
      std::size_t aborted = 0;
      for (const EpochReport& r : *reports) aborted += r.aborted;
      EXPECT_GT(aborted, 0u);  // contention really happened
    } else {
      EXPECT_EQ(root, reference) << "node " << i;
    }
  }
}

}  // namespace
}  // namespace nezha
