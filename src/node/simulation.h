// Simulation driver: generates a DAG ledger workload (ω concurrent blocks
// per epoch from the SmallBank generator), runs the full-node pipeline over
// every epoch, and aggregates the per-epoch reports. All benches and most
// examples sit on top of this.
#pragma once

#include <vector>

#include "node/full_node.h"
#include "workload/smallbank_workload.h"

namespace nezha {

struct SimulationConfig {
  NodeConfig node;
  WorkloadConfig workload;
  std::size_t block_size = 200;        ///< transactions per block (paper: 200)
  std::size_t block_concurrency = 4;   ///< ω: concurrent blocks per epoch
  std::size_t epochs = 3;
  std::uint64_t seed = 42;
  StateValue initial_savings = 100'000;
  StateValue initial_checking = 100'000;
};

struct SimulationSummary {
  std::vector<EpochReport> reports;

  std::size_t TotalTxs() const;
  std::size_t TotalCommitted() const;
  std::size_t TotalAborted() const;
  double AbortRate() const;

  double MeanValidateMs() const;
  double MeanExecuteMs() const;
  double MeanCcMs() const;
  double MeanCommitMs() const;
  /// Mean concurrency-control + commitment latency (the paper's Fig. 9
  /// metric).
  double MeanCcCommitMs() const;
  /// Mean total per-epoch processing latency (Table IV metric).
  double MeanTotalMs() const;

  /// Effective throughput in committed tx/s given an expected epoch cadence
  /// (1 s in the paper's Fig. 12): the pipeline drains one epoch per
  /// max(cadence, processing latency).
  double EffectiveTps(double epoch_interval_s = 1.0) const;
};

/// Builds the ledger, funds the accounts, mines ω blocks per epoch, and
/// processes every epoch through the configured scheme.
Result<SimulationSummary> RunSimulation(const SimulationConfig& config);

}  // namespace nezha
