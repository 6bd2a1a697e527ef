#include "consensus/treegraph_sim.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "analysis/det_checkpoint.h"
#include "obs/metrics.h"

namespace nezha {

namespace {

/// Marker transaction a Byzantine miner stuffs into conflicting/invalid
/// bodies so they differ from (and hash differently than) the honest one.
Transaction ByzMarkerTx(std::uint64_t counter) {
  Transaction tx;
  tx.nonce = 0xB12A'0000'0000'0000ull + counter;
  tx.payload.contract = 0xB12A;
  tx.payload.op = 0;
  return tx;
}

}  // namespace

TreeGraphSimulation::TreeGraphSimulation(const TreeGraphSimConfig& config,
                                         TxSource tx_source)
    : config_(config),
      tx_source_(std::move(tx_source)),
      rng_(config.seed),
      net_(config.net_plan, "treegraph") {
  nodes_.reserve(config.num_nodes);
  for (NodeId id = 0; id < config.num_nodes; ++id) {
    nodes_.push_back(
        std::make_unique<TreeGraphView>(id, config.confirm_depth));
  }
}

void TreeGraphSimulation::ScheduleNextMiningEvent() {
  const double u = rng_.NextDouble();
  const double dt = -std::log(1.0 - u) * config_.mean_block_interval_ms;
  const double when = queue_.Now() + dt;
  if (when > config_.duration_ms) return;
  queue_.ScheduleAt(when, [this] {
    MineBlock();
    ScheduleNextMiningEvent();
  });
}

void TreeGraphSimulation::MineBlock() {
  const auto miner = static_cast<NodeId>(rng_.Below(config_.num_nodes));
  std::vector<Transaction> txs;
  if (tx_source_) txs = tx_source_(miner);

  TGBlock block = nodes_[miner]->PrepareBlock(mine_counter_++, std::move(txs));
  block.Seal();
  ++stats_.blocks_mined;
  mined_at_ms_[block.mine_counter] = queue_.Now();
  obs::Registry()
      .GetCounter("nezha_consensus_blocks_total", {{"sim", "treegraph"}})
      ->Inc();

  // The miner adopts its own (honest) block immediately; what it
  // BROADCASTS depends on its role.
  (void)nodes_[miner]->OnBlock(block);

  const fault::ByzantineConfig& byz = config_.byzantine;
  if (byz.Enabled() && byz.IsByzantine(miner)) {
    switch (byz.behavior) {
      case fault::ByzBehavior::kWithhold:
        if (byz.release_ms <= 0 || queue_.Now() < byz.release_ms) {
          ++stats_.byz_withheld;
          withheld_.push_back(std::move(block));
          if (byz.release_ms > 0 && !release_scheduled_) {
            release_scheduled_ = true;
            queue_.ScheduleAt(byz.release_ms, [this] { ReleaseWithheld(); });
          }
          return;
        }
        break;  // past the release point: behave
      case fault::ByzBehavior::kEquivocate: {
        // Two valid siblings under one pivot parent (a deliberate fork);
        // GHOST + hash tie-break resolves them identically everywhere.
        TGBlock twin = nodes_[miner]->PrepareBlock(
            block.mine_counter, {ByzMarkerTx(byz_counter_++)});
        twin.Seal();
        ++stats_.blocks_mined;
        ++stats_.byz_equivocations;
        mined_at_ms_[twin.mine_counter] = queue_.Now();
        (void)nodes_[miner]->OnBlock(twin);
        Broadcast(block, miner);
        Broadcast(twin, miner);
        return;
      }
      case fault::ByzBehavior::kInvalidBlock: {
        TGBlock invalid = MakeInvalidVariant(block);
        ++byz_counter_;
        ++stats_.byz_invalid;
        Broadcast(invalid, miner);
        return;  // the honest block stays private (gossip may share it)
      }
      case fault::ByzBehavior::kNone:
        break;
    }
  }

  Broadcast(block, miner);
}

void TreeGraphSimulation::Broadcast(const TGBlock& block, NodeId from) {
  for (NodeId peer = 0; peer < config_.num_nodes; ++peer) {
    if (peer == from) continue;
    const double delay =
        config_.base_latency_ms + rng_.NextDouble() * config_.jitter_ms;
    for (const double at : net_.Deliveries(from, peer, fault::MsgKind::kBlock,
                                           queue_.Now(), delay)) {
      queue_.ScheduleAt(at, [this, block, peer] {
        (void)nodes_[peer]->OnBlock(block);
      });
    }
  }
}

TGBlock TreeGraphSimulation::MakeInvalidVariant(const TGBlock& block) {
  TGBlock invalid = block;
  switch (byz_counter_ % 3) {
    case 0:
      // Tampered tx root: hash covers the lie, the body does not.
      invalid.tx_root.bytes[0] ^= 0xFF;
      invalid.Seal();
      break;
    case 1:
      // Duplicate transaction, root honestly recomputed over the bad body.
      invalid.txs.push_back(ByzMarkerTx(byz_counter_));
      invalid.txs.push_back(invalid.txs.back());
      invalid.tx_root = ComputeTxMerkleRoot(invalid.txs);
      invalid.Seal();
      break;
    default:
      // Forged hash: content untouched, hash corrupted after sealing.
      invalid.Seal();
      invalid.hash.bytes[0] ^= 0xFF;
      break;
  }
  return invalid;
}

void TreeGraphSimulation::GossipPull(NodeId to, NodeId from) {
  if (net_.Active() && net_.Partitioned(from, to, queue_.Now())) return;
  for (const TGBlock* block : nodes_[from]->AllBlocks()) {
    if (block->height == 0 || nodes_[to]->Knows(block->hash)) continue;
    ++stats_.gossip_transfers;
    (void)nodes_[to]->OnBlock(*block);
  }
}

void TreeGraphSimulation::ScheduleNextGossipEvent() {
  if (config_.gossip_interval_ms <= 0 || config_.num_nodes < 2) return;
  const double when = queue_.Now() + config_.gossip_interval_ms;
  if (when > config_.duration_ms) return;
  queue_.ScheduleAt(when, [this] {
    // Deterministic rotating ring: over n-1 ticks every ordered pair pulls.
    ++gossip_tick_;
    const std::uint32_t n = config_.num_nodes;
    const auto offset =
        static_cast<std::uint32_t>(1 + gossip_tick_ % (n - 1));
    for (NodeId node = 0; node < n; ++node) {
      GossipPull(node, (node + offset) % n);
    }
    ScheduleNextGossipEvent();
  });
}

void TreeGraphSimulation::ReleaseWithheld() {
  std::vector<TGBlock> pending = std::move(withheld_);
  withheld_.clear();
  for (const TGBlock& block : pending) {
    Broadcast(block, block.miner);
  }
}

void TreeGraphSimulation::Run() {
  ScheduleNextMiningEvent();
  ScheduleNextGossipEvent();
  queue_.RunUntil(config_.duration_ms);
  queue_.RunToCompletion();

  // Settlement: once mining stops, the network "heals" — the chaos plane
  // passes everything through, withheld blocks come out, and a lossless
  // anti-entropy ring sweep converges every view. Skipped entirely for the
  // honest configuration (byte-identical traces).
  if (!config_.net_plan.Empty() || config_.byzantine.Enabled()) {
    net_.Quiesce();
    ReleaseWithheld();
    queue_.RunToCompletion();
    if (config_.num_nodes > 1) {
      for (std::uint32_t round = 0; round < config_.num_nodes + 1; ++round) {
        for (NodeId node = 0; node < config_.num_nodes; ++node) {
          GossipPull(node, (node + 1) % config_.num_nodes);
        }
        queue_.RunToCompletion();
      }
    }
  }

  const auto epochs = nodes_[0]->ConfirmedEpochs();
  stats_.confirmed_epochs = epochs.size();

  // kConsensus determinism checkpoint: node 0's confirmed epochs — pivot
  // heights and per-epoch block order the execution pipeline consumes.
  if (analysis::DetCheckpointRecorder& det =
          analysis::DetCheckpointRecorder::Global();
      det.enabled()) {
    det.BeginEpoch(0, "treegraph-sim");
    std::string canonical;
    canonical.reserve(40 + epochs.size() * 96);
    char line[96];
    std::snprintf(line, sizeof(line), "consensus sim=treegraph epochs=%zu\n",
                  epochs.size());
    canonical += line;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      std::snprintf(line, sizeof(line), "E %zu pivot_h=%" PRIu64 " blocks=%zu\n",
                    i, static_cast<std::uint64_t>(epochs[i].pivot_height),
                    epochs[i].blocks.size());
      canonical += line;
      for (const TGBlock* block : epochs[i].blocks) {
        canonical += "c ";
        canonical += block->hash.ToHex();
        canonical += '\n';
      }
    }
    det.Record(analysis::DetStage::kConsensus, canonical);
    det.EndEpoch();
  }

  std::size_t total_blocks = 0;
  auto& registry = obs::Registry();
  const obs::Labels sim_label = {{"sim", "treegraph"}};
  obs::BucketHistogram* epoch_blocks = registry.GetHistogram(
      "nezha_consensus_epoch_blocks", sim_label, obs::DefaultSizeBounds());
  // Assembly lag: how long an epoch stays open — the spread between its
  // earliest and latest mined block (ms of simulated time).
  obs::BucketHistogram* assembly_lag = registry.GetHistogram(
      "nezha_consensus_epoch_assembly_lag_ms", sim_label,
      obs::DefaultLatencyBoundsMs());
  for (const TGEpoch& epoch : epochs) {
    total_blocks += epoch.blocks.size();
    stats_.max_epoch_size = std::max(
        stats_.max_epoch_size, static_cast<double>(epoch.blocks.size()));
    epoch_blocks->Observe(static_cast<double>(epoch.blocks.size()));
    double first = std::numeric_limits<double>::infinity();
    double last = -std::numeric_limits<double>::infinity();
    for (const TGBlock* block : epoch.blocks) {
      const auto it = mined_at_ms_.find(block->mine_counter);
      if (it == mined_at_ms_.end()) continue;
      first = std::min(first, it->second);
      last = std::max(last, it->second);
    }
    if (last >= first) assembly_lag->Observe(last - first);
  }
  stats_.confirmed_blocks = total_blocks;
  stats_.mean_epoch_size =
      epochs.empty() ? 0
                     : static_cast<double>(total_blocks) /
                           static_cast<double>(epochs.size());
  registry.GetGauge("nezha_consensus_confirmed_blocks", sim_label)
      ->Set(static_cast<std::int64_t>(total_blocks));
  registry.GetGauge("nezha_consensus_confirmed_epochs", sim_label)
      ->Set(static_cast<std::int64_t>(epochs.size()));
  if (stats_.gossip_transfers > 0) {
    registry.GetCounter("nezha_consensus_gossip_transfers_total", sim_label)
        ->Inc(stats_.gossip_transfers);
  }
}

}  // namespace nezha
