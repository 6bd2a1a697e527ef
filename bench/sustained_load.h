// Sustained-load driver: continuous multi-epoch processing under steady
// transaction arrival — the client-observed commit-latency harness behind
// the bench suite's `sustained_load` section (bench/bench_suite.cpp;
// docs/OBSERVABILITY.md, "Sustained load & the latency gate").
//
// Unlike RunSimulation's closed-loop bursts (mine ω blocks, process, repeat
// with a fresh batch), this driver models an open pipeline with explicit
// hand-off queues:
//
//   arrivals -> Mempool -> mined blocks -> confirmed-epoch queue -> FullNode
//
// Each tick admits `arrival_per_tick` transactions, "mines" every epoch the
// mempool can fill (ω blocks x block_size — consensus confirming payloads
// ahead of execution, the paper's deferred-execution model), enqueues the
// confirmed payload on the bounded confirmed queue, and processes ONE
// queued epoch — building, appending and sealing its ledger blocks against
// the then-current state root, then executing. So when arrival outpaces
// processing, queues grow and the per-transaction lifecycle tracer sees
// real queueing delay in the submitted->included and included->confirmed
// waits; when the queue bound is hit, the oldest confirmed epoch is shed
// (load-shedding backpressure, nezha_confirmed_queue_dropped_total).
// End-to-end latency percentiles are exact (computed over every committed
// transaction's lifetime, not histogram buckets).
//
// Wall time is real: schemes are compared by what the machine actually did,
// so the ratio-mode latency gate (current/serial vs baseline/serial) is the
// meaningful cross-machine comparison, not the absolute numbers.
#pragma once

#include <algorithm>
#include <deque>
#include <vector>

#include "ledger/epoch.h"
#include "node/full_node.h"
#include "node/mempool.h"
#include "obs/metrics.h"
#include "obs/tx_lifecycle.h"
#include "workload/smallbank_workload.h"

namespace nezha::bench {

struct SustainedLoadConfig {
  SchemeKind scheme = SchemeKind::kNezha;
  std::size_t block_size = 200;
  std::size_t block_concurrency = 4;  ///< ω: blocks mined per epoch
  std::size_t epochs = 6;             ///< epochs to process before draining
  /// Transactions admitted to the mempool per tick; 0 = exactly one
  /// epoch's worth (block_size x block_concurrency), the steady state.
  std::size_t arrival_per_tick = 0;
  /// Bound on the confirmed-epoch queue. When a freshly sealed epoch would
  /// exceed it, the OLDEST queued epoch is dropped (its transactions never
  /// execute — backpressure by load-shedding, counted in
  /// nezha_confirmed_queue_dropped_total and the result below). 0 disables
  /// the bound (the pre-existing unbounded behaviour).
  std::size_t max_queue_depth = 64;
  double skew = 0.6;
  std::uint64_t num_accounts = 10'000;
  std::uint64_t seed = 92'000;
  StateValue initial_balance = 100'000;
};

struct SustainedLoadResult {
  std::size_t epochs_processed = 0;
  std::size_t epochs_dropped = 0;  ///< shed by the confirmed-queue bound
  std::size_t txs_dropped = 0;     ///< transactions inside shed epochs
  std::size_t total_txs = 0;
  std::size_t total_committed = 0;
  std::size_t total_aborted = 0;
  double wall_ms = 0;           ///< arrival to last durable commit
  double throughput_tps = 0;    ///< committed / wall
  std::size_t sampled = 0;      ///< committed lifetimes measured
  double e2e_mean_ms = 0;       ///< submitted -> durably-committed
  double e2e_p50_ms = 0;
  double e2e_p95_ms = 0;
  double e2e_p99_ms = 0;
  double e2e_max_ms = 0;

  double AbortRate() const {
    return total_txs == 0 ? 0
                          : static_cast<double>(total_aborted) /
                                static_cast<double>(total_txs);
  }
};

/// Interpolated percentile over an ascending-sorted sample vector.
inline double PercentileOfSorted(const std::vector<double>& sorted,
                                 double p) {
  if (sorted.empty()) return 0;
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (sorted[hi] - sorted[lo]) * (rank - static_cast<double>(lo));
}

inline Result<SustainedLoadResult> RunSustainedLoad(
    const SustainedLoadConfig& config) {
  if (config.block_size == 0 || config.block_concurrency == 0 ||
      config.epochs == 0) {
    return Status::InvalidArgument("block size/concurrency/epochs must be > 0");
  }
  const std::size_t epoch_txs = config.block_size * config.block_concurrency;
  const std::size_t arrival =
      config.arrival_per_tick == 0 ? epoch_txs : config.arrival_per_tick;

  NodeConfig node_config;
  node_config.scheme = config.scheme;
  node_config.max_chains = std::max<ChainId>(
      12, static_cast<ChainId>(config.block_concurrency));
  FullNode node(node_config, nullptr);

  WorkloadConfig workload_config;
  workload_config.num_accounts = config.num_accounts;
  workload_config.skew = config.skew;
  SmallBankWorkload workload(workload_config, config.seed);
  SmallBankWorkload::InitAccounts(node.state(), config.num_accounts,
                                  config.initial_balance,
                                  config.initial_balance);
  if (Status s = node.state().Flush(); !s.ok()) return s;
  node.ledger().CommitEpochRoot(0, node.state().RootHash());

  Mempool mempool(std::max<std::size_t>(
      100'000, arrival * config.epochs + epoch_txs));

  // The confirmed-epoch queue: consensus-confirmed per-chain payloads
  // waiting for deferred execution (their ledger blocks are built and
  // sealed at process time, against the state root execution has actually
  // reached), with their confirmation time so the oldest-age gauge is
  // meaningful.
  struct ConfirmedEpoch {
    std::vector<std::vector<Transaction>> chains;
    double sealed_us = 0;

    std::size_t TxCount() const {
      std::size_t n = 0;
      for (const auto& chain : chains) n += chain.size();
      return n;
    }
  };
  std::deque<ConfirmedEpoch> confirmed;
  obs::Gauge* queue_depth =
      obs::Registry().GetGauge("nezha_confirmed_queue_depth");
  obs::Gauge* queue_oldest_age =
      obs::Registry().GetGauge("nezha_confirmed_queue_oldest_age_ms");
  obs::Counter* queue_dropped =
      obs::Registry().GetCounter("nezha_confirmed_queue_dropped_total");
  const auto update_queue_gauges = [&] {
    queue_depth->Set(static_cast<std::int64_t>(confirmed.size()));
    queue_oldest_age->Set(
        confirmed.empty()
            ? 0
            : static_cast<std::int64_t>((obs::TxLifecycleTracer::NowUs() -
                                         confirmed.front().sealed_us) /
                                        1000.0));
  };

  SustainedLoadResult result;
  std::vector<double> e2e_ms;
  e2e_ms.reserve(config.epochs * epoch_txs);

  obs::TxLifecycleTracer& lifecycle = obs::Lifecycle();
  std::size_t epochs_confirmed = 0;  ///< consensus-side epoch count
  EpochId next_executed = 1;         ///< execution-side (ledger) epoch id
  const double start_us = obs::TxLifecycleTracer::NowUs();

  const auto process_one = [&]() -> Status {
    if (confirmed.empty()) return Status::Ok();
    ConfirmedEpoch front = std::move(confirmed.front());
    confirmed.pop_front();
    update_queue_gauges();
    // Deferred execution reaches this epoch now: build and seal its ledger
    // blocks against the state root the pipeline has actually committed.
    const EpochId epoch = next_executed++;
    for (ChainId chain = 0;
         chain < static_cast<ChainId>(front.chains.size()); ++chain) {
      Block block = node.ledger().BuildBlock(
          chain, epoch, std::move(front.chains[chain]));
      if (Status s = node.ledger().AppendBlock(std::move(block)); !s.ok()) {
        return s;
      }
    }
    auto batch = node.ledger().SealEpoch(epoch);
    if (!batch.ok()) return batch.status();
    auto report = node.ProcessEpoch(*batch);
    if (!report.ok()) return report.status();
    ++result.epochs_processed;
    result.total_txs += report->txs;
    result.total_committed += report->committed;
    result.total_aborted += report->aborted;
    for (const obs::TxLifetime& life : lifecycle.LastEpochLifetimes()) {
      if (life.aborted || !life.HasStage(obs::TxStage::kCommitted)) continue;
      const double ms = life.EndToEndMs();
      if (ms >= 0) e2e_ms.push_back(ms);
    }
    return Status::Ok();
  };

  for (std::size_t tick = 0; tick < config.epochs; ++tick) {
    // 1. Steady arrival into the mempool.
    mempool.AddAll(workload.MakeBatch(arrival));
    // 2. Consensus confirms every epoch the mempool can fill: the payload
    //    is fixed (kIncluded stamps) and queued for deferred execution.
    while (mempool.PendingCount() >= epoch_txs &&
           epochs_confirmed < config.epochs) {
      ++epochs_confirmed;
      ConfirmedEpoch entry;
      entry.chains.reserve(config.block_concurrency);
      for (std::size_t chain = 0; chain < config.block_concurrency;
           ++chain) {
        entry.chains.push_back(mempool.TakeBatch(config.block_size));
      }
      entry.sealed_us = obs::TxLifecycleTracer::NowUs();
      if (config.max_queue_depth > 0 &&
          confirmed.size() >= config.max_queue_depth) {
        // Queue full: shed the OLDEST epoch so fresh work keeps its
        // (shorter) queueing delay. Its transactions never execute —
        // forget their ingress stamps so the tracer table cannot grow
        // without bound under overload.
        ConfirmedEpoch shed = std::move(confirmed.front());
        confirmed.pop_front();
        ++result.epochs_dropped;
        result.txs_dropped += shed.TxCount();
        queue_dropped->Inc();
        for (const auto& chain : shed.chains) {
          for (const Transaction& tx : chain) {
            lifecycle.DropIngress(LifecycleKey(tx));
          }
        }
      }
      confirmed.push_back(std::move(entry));
      update_queue_gauges();
    }
    // 3. The pipeline drains one epoch per tick.
    if (Status s = process_one(); !s.ok()) return s;
  }
  // Drain: arrivals stopped; process whatever is still queued.
  while (!confirmed.empty()) {
    if (Status s = process_one(); !s.ok()) return s;
  }

  result.wall_ms = (obs::TxLifecycleTracer::NowUs() - start_us) / 1000.0;
  result.sampled = e2e_ms.size();
  if (!e2e_ms.empty()) {
    std::sort(e2e_ms.begin(), e2e_ms.end());
    double sum = 0;
    for (const double v : e2e_ms) sum += v;
    result.e2e_mean_ms = sum / static_cast<double>(e2e_ms.size());
    result.e2e_p50_ms = PercentileOfSorted(e2e_ms, 50);
    result.e2e_p95_ms = PercentileOfSorted(e2e_ms, 95);
    result.e2e_p99_ms = PercentileOfSorted(e2e_ms, 99);
    result.e2e_max_ms = e2e_ms.back();
  }
  result.throughput_tps =
      result.wall_ms > 0
          ? static_cast<double>(result.total_committed) /
                (result.wall_ms / 1000.0)
          : 0;
  return result;
}

}  // namespace nezha::bench
