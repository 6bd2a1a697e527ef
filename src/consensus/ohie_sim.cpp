#include "consensus/ohie_sim.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <unordered_set>

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

OhieSimulation::OhieSimulation(const OhieSimConfig& config, TxSource tx_source)
    : config_(config),
      tx_source_(std::move(tx_source)),
      rng_(config.seed),
      net_(config.net_plan, "ohie") {
  nodes_.reserve(config.num_nodes);
  for (NodeId id = 0; id < config.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<OhieNodeView>(id, config.num_chains,
                                                    config.confirm_depth));
  }
  stats_.blocks_per_chain.assign(config.num_chains, 0);
}

void OhieSimulation::ScheduleNextMiningEvent() {
  // Exponential inter-arrival (the Poisson block-production model).
  const double u = rng_.NextDouble();
  const double dt =
      -std::log(1.0 - u) * config_.mean_block_interval_ms;
  const double when = queue_.Now() + dt;
  if (when > config_.duration_ms) return;  // mining window over
  queue_.ScheduleAt(when, [this] {
    MineBlock();
    ScheduleNextMiningEvent();
  });
}

void OhieSimulation::MineBlock() {
  const auto miner = static_cast<NodeId>(rng_.Below(config_.num_nodes));
  std::vector<Transaction> txs;
  if (tx_source_) txs = tx_source_(miner);

  OhieBlock block =
      nodes_[miner]->PrepareBlock(mine_counter_++, std::move(txs));
  block.Seal(config_.num_chains);
  ++stats_.blocks_mined;
  ++stats_.blocks_per_chain[block.chain];
  obs::Registry()
      .GetCounter("nezha_consensus_blocks_total", {{"sim", "ohie"}})
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
        // Two valid blocks for one mining success (a deliberate fork);
        // longest-chain + hash tie-break resolves them identically on
        // every replica.
        OhieBlock twin = nodes_[miner]->PrepareBlock(
            block.mine_counter, {ByzMarkerTx(byz_counter_++)});
        twin.Seal(config_.num_chains);
        ++stats_.blocks_mined;
        ++stats_.blocks_per_chain[twin.chain];
        ++stats_.byz_equivocations;
        (void)nodes_[miner]->OnBlock(twin);
        Broadcast(block, miner);
        Broadcast(twin, miner);
        return;
      }
      case fault::ByzBehavior::kInvalidBlock: {
        OhieBlock invalid = MakeInvalidVariant(block);
        ++byz_counter_;
        ++stats_.byz_invalid;
        Broadcast(invalid, miner);
        return;  // the honest block stays private (gossip shares it)
      }
      case fault::ByzBehavior::kNone:
        break;
    }
  }

  Broadcast(block, miner);
}

OhieBlock OhieSimulation::MakeInvalidVariant(const OhieBlock& block) {
  OhieBlock invalid = block;
  const std::uint64_t flavour = byz_counter_ % 4;
  switch (flavour) {
    case 0:
      // Tampered tx root: hash covers the lie, the body does not.
      invalid.tx_root.bytes[0] ^= 0xFF;
      invalid.Seal(config_.num_chains);
      break;
    case 1:
      // Duplicate transaction, root honestly recomputed over the bad body.
      invalid.txs.push_back(ByzMarkerTx(byz_counter_));
      invalid.txs.push_back(invalid.txs.back());
      invalid.tx_root = ComputeTxMerkleRoot(invalid.txs);
      invalid.Seal(config_.num_chains);
      break;
    case 2:
      // Forged hash: content untouched, hash corrupted after sealing.
      invalid.Seal(config_.num_chains);
      invalid.hash.bytes[0] ^= 0xFF;
      break;
    default:
      // Wrong parent reference count (k-1 tips instead of k).
      invalid.parent_tips.pop_back();
      invalid.Seal(config_.num_chains);
      break;
  }
  return invalid;
}

void OhieSimulation::ReleaseWithheld() {
  std::vector<OhieBlock> pending = std::move(withheld_);
  withheld_.clear();
  for (const OhieBlock& block : pending) {
    Broadcast(block, block.miner);
  }
}

void OhieSimulation::Broadcast(const OhieBlock& block, NodeId from) {
  for (NodeId peer = 0; peer < config_.num_nodes; ++peer) {
    if (peer == from) continue;
    if (config_.drop_probability > 0 &&
        rng_.Chance(config_.drop_probability)) {
      ++stats_.dropped_deliveries;
      continue;  // lost in the network; anti-entropy will recover it
    }
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

void OhieSimulation::GossipPull(NodeId to, NodeId from) {
  // Inventory exchange abstracted: `to` learns of and fetches every block
  // `from` has that it lacks, delivered parents-first after one RTT-ish
  // latency. (A real node exchanges header inventories; the effect — and
  // the block traffic — is the same.)
  if (net_.Active() && net_.Partitioned(from, to, queue_.Now())) return;
  for (const OhieBlock* block : nodes_[from]->AllBlocks()) {
    if (block->height == 0 || nodes_[to]->Knows(block->hash)) continue;
    ++stats_.gossip_transfers;
    const OhieBlock copy = *block;
    const double delay =
        config_.base_latency_ms + rng_.NextDouble() * config_.jitter_ms;
    for (const double at : net_.Deliveries(from, to, fault::MsgKind::kGossip,
                                           queue_.Now(), delay)) {
      queue_.ScheduleAt(at, [this, copy, to] {
        (void)nodes_[to]->OnBlock(copy);
      });
    }
  }
}

void OhieSimulation::ScheduleNextGossipEvent() {
  if (config_.gossip_interval_ms <= 0) return;
  const double when = queue_.Now() + config_.gossip_interval_ms;
  if (when > config_.duration_ms) return;
  queue_.ScheduleAt(when, [this] {
    for (NodeId node = 0; node < config_.num_nodes; ++node) {
      const auto peer = static_cast<NodeId>(rng_.Below(config_.num_nodes));
      if (peer != node) GossipPull(node, peer);
    }
    ScheduleNextGossipEvent();
  });
}

void OhieSimulation::Run() {
  ScheduleNextMiningEvent();
  ScheduleNextGossipEvent();
  queue_.RunUntil(config_.duration_ms);
  // Stop mining but deliver everything still in flight so views converge.
  queue_.RunToCompletion();
  // Settlement: the network "heals" — the chaos plane passes everything
  // through, withheld blocks come out, then lossless anti-entropy rounds
  // run until every view agrees (the steady-state a real gossip network
  // reaches shortly after traffic stops; bounded by the number of nodes,
  // each round fixes someone).
  if (!config_.net_plan.Empty() || config_.byzantine.Enabled()) {
    net_.Quiesce();
    ReleaseWithheld();
    queue_.RunToCompletion();
  }
  if (config_.drop_probability > 0 || !config_.net_plan.Empty() ||
      config_.byzantine.Enabled()) {
    for (std::uint32_t round = 0; round < config_.num_nodes + 1; ++round) {
      for (NodeId node = 0; node < config_.num_nodes; ++node) {
        GossipPull(node, (node + 1) % config_.num_nodes);
      }
      queue_.RunToCompletion();
    }
  }
  stats_.duration_ms = config_.duration_ms;

  // Fork accounting against node 0's final main chains.
  std::unordered_set<Hash256> on_main;
  for (ChainId chain = 0; chain < config_.num_chains; ++chain) {
    for (const OhieBlock* block : nodes_[0]->MainChain(chain)) {
      on_main.insert(block->hash);
    }
  }
  // Main chains include genesis blocks, which were not mined.
  stats_.forked_blocks =
      stats_.blocks_mined - (on_main.size() - config_.num_chains);
  stats_.confirmed_blocks = nodes_[0]->ConfirmedOrder().size();

  // kConsensus determinism checkpoint: node 0's confirmed block order — the
  // (rank, chain) total order the execution pipeline consumes.
  if (analysis::DetCheckpointRecorder& det =
          analysis::DetCheckpointRecorder::Global();
      det.enabled()) {
    det.BeginEpoch(0, "ohie-sim");
    const std::vector<const OhieBlock*> order = nodes_[0]->ConfirmedOrder();
    std::string canonical;
    canonical.reserve(32 + order.size() * 68);
    char line[96];
    std::snprintf(line, sizeof(line), "consensus sim=ohie blocks=%zu\n",
                  order.size());
    canonical += line;
    for (std::size_t i = 0; i < order.size(); ++i) {
      std::snprintf(line, sizeof(line), "c %zu ", i);
      canonical += line;
      canonical += order[i]->hash.ToHex();
      canonical += '\n';
    }
    det.Record(analysis::DetStage::kConsensus, canonical);
    det.EndEpoch();
  }

  auto& registry = obs::Registry();
  const obs::Labels sim_label = {{"sim", "ohie"}};
  registry.GetGauge("nezha_consensus_confirmed_blocks", sim_label)
      ->Set(static_cast<std::int64_t>(stats_.confirmed_blocks));
  registry.GetGauge("nezha_consensus_forked_blocks", sim_label)
      ->Set(static_cast<std::int64_t>(stats_.forked_blocks));
  registry.GetCounter("nezha_consensus_dropped_deliveries_total", sim_label)
      ->Inc(stats_.dropped_deliveries);
  registry.GetCounter("nezha_consensus_gossip_transfers_total", sim_label)
      ->Inc(stats_.gossip_transfers);
}

}  // namespace nezha
