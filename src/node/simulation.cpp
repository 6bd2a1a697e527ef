#include "node/simulation.h"

#include <algorithm>

#include "node/mempool.h"

namespace nezha {
namespace {

double MeanOf(const std::vector<EpochReport>& reports,
              double (*get)(const EpochReport&)) {
  if (reports.empty()) return 0;
  double sum = 0;
  for (const EpochReport& r : reports) sum += get(r);
  return sum / static_cast<double>(reports.size());
}

}  // namespace

std::size_t SimulationSummary::TotalTxs() const {
  std::size_t n = 0;
  for (const auto& r : reports) n += r.txs;
  return n;
}

std::size_t SimulationSummary::TotalCommitted() const {
  std::size_t n = 0;
  for (const auto& r : reports) n += r.committed;
  return n;
}

std::size_t SimulationSummary::TotalAborted() const {
  std::size_t n = 0;
  for (const auto& r : reports) n += r.aborted;
  return n;
}

double SimulationSummary::AbortRate() const {
  const std::size_t total = TotalTxs();
  return total == 0 ? 0
                    : static_cast<double>(TotalAborted()) /
                          static_cast<double>(total);
}

double SimulationSummary::MeanValidateMs() const {
  return MeanOf(reports, [](const EpochReport& r) { return r.validate_ms; });
}
double SimulationSummary::MeanExecuteMs() const {
  return MeanOf(reports, [](const EpochReport& r) { return r.execute_ms; });
}
double SimulationSummary::MeanCcMs() const {
  return MeanOf(reports, [](const EpochReport& r) { return r.cc_ms; });
}
double SimulationSummary::MeanCommitMs() const {
  return MeanOf(reports, [](const EpochReport& r) { return r.commit_ms; });
}
double SimulationSummary::MeanCcCommitMs() const {
  return MeanOf(reports,
                [](const EpochReport& r) { return r.cc_ms + r.commit_ms; });
}
double SimulationSummary::MeanTotalMs() const {
  return MeanOf(reports, [](const EpochReport& r) { return r.TotalMs(); });
}

double SimulationSummary::EffectiveTps(double epoch_interval_s) const {
  if (reports.empty()) return 0;
  double total_time_s = 0;
  for (const auto& r : reports) {
    total_time_s += std::max(epoch_interval_s, r.TotalMs() / 1000.0);
  }
  return total_time_s == 0
             ? 0
             : static_cast<double>(TotalCommitted()) / total_time_s;
}

Result<SimulationSummary> RunSimulation(const SimulationConfig& config) {
  if (config.block_concurrency == 0 || config.block_size == 0) {
    return Status::InvalidArgument("block concurrency/size must be > 0");
  }
  NodeConfig node_config = config.node;
  node_config.max_chains = std::max<ChainId>(
      node_config.max_chains,
      static_cast<ChainId>(config.block_concurrency));

  FullNode node(node_config, nullptr);
  SmallBankWorkload workload(config.workload, config.seed);

  // Genesis: fund the accounts and record the pre-epoch-1 state root.
  SmallBankWorkload::InitAccounts(node.state(), config.workload.num_accounts,
                                  config.initial_savings,
                                  config.initial_checking);
  if (Status s = node.state().Flush(); !s.ok()) return s;
  node.ledger().CommitEpochRoot(0, node.state().RootHash());

  // Blocks draw their payloads through a Mempool rather than straight from
  // the generator, so client-observed latency includes mempool queueing and
  // the pool's depth/age gauges stay live. MakeBatch is one sequential RNG
  // stream and TakeBatch is FIFO, so splitting one big MakeBatch across the
  // epoch's blocks yields byte-identical payloads to the per-block calls.
  const std::size_t epoch_txs = config.block_size * config.block_concurrency;
  Mempool mempool(std::max<std::size_t>(100'000, epoch_txs + 1));

  SimulationSummary summary;
  summary.reports.reserve(config.epochs);
  for (EpochId epoch = 1; epoch <= config.epochs; ++epoch) {
    const std::vector<Transaction> arrivals = workload.MakeBatch(epoch_txs);
    mempool.AddAll(arrivals);
    for (ChainId chain = 0;
         chain < static_cast<ChainId>(config.block_concurrency); ++chain) {
      Block block = node.ledger().BuildBlock(
          chain, epoch, mempool.TakeBatch(config.block_size));
      if (Status s = node.ledger().AppendBlock(std::move(block)); !s.ok()) {
        return s;
      }
    }
    auto batch = node.ledger().SealEpoch(epoch);
    if (!batch.ok()) return batch.status();
    auto report = node.ProcessEpoch(batch.value());
    if (!report.ok()) return report.status();
    summary.reports.push_back(std::move(report.value()));
  }
  return summary;
}

}  // namespace nezha
