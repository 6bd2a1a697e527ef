#include "consensus/dagrider_sim.h"

#include <cstdio>
#include <string>

#include "analysis/det_checkpoint.h"
#include "obs/metrics.h"

namespace nezha {

namespace {

/// Marker transaction a Byzantine node stuffs into conflicting/invalid
/// bodies so they differ from (and hash differently than) the honest one.
Transaction ByzMarkerTx(std::uint64_t counter) {
  Transaction tx;
  tx.nonce = 0xB12A'0000'0000'0000ull + counter;
  tx.payload.contract = 0xB12A;
  tx.payload.op = 0;
  return tx;
}

}  // namespace

DagRiderSimulation::DagRiderSimulation(const DagRiderSimConfig& config,
                                       TxSource tx_source)
    : config_(config),
      tx_source_(std::move(tx_source)),
      rng_(config.seed),
      net_(config.net_plan, "dagrider") {
  nodes_.reserve(config.num_nodes);
  for (NodeId id = 0; id < config.num_nodes; ++id) {
    nodes_.push_back(std::make_unique<DagRiderView>(id, config.num_nodes));
  }
  emit_armed_.assign(config.num_nodes, false);
}

void DagRiderSimulation::ArmEmit(NodeId node) {
  if (emit_armed_[node]) return;
  if (queue_.Now() + config_.emit_delay_ms > config_.duration_ms) return;
  emit_armed_[node] = true;
  queue_.ScheduleAfter(config_.emit_delay_ms, [this, node] { Emit(node); });
}

void DagRiderSimulation::Broadcast(const DagVertex& vertex, NodeId from) {
  for (NodeId peer = 0; peer < config_.num_nodes; ++peer) {
    if (peer == from) continue;
    const double delay =
        config_.base_latency_ms + rng_.NextDouble() * config_.jitter_ms;
    for (const double at : net_.Deliveries(from, peer, fault::MsgKind::kVertex,
                                           queue_.Now(), delay)) {
      queue_.ScheduleAt(at, [this, vertex, peer] {
        (void)nodes_[peer]->OnVertex(vertex);
        ArmEmit(peer);
      });
    }
  }
}

void DagRiderSimulation::BroadcastEquivocating(const DagVertex& original,
                                               const DagVertex& twin,
                                               NodeId from) {
  for (NodeId peer = 0; peer < config_.num_nodes; ++peer) {
    if (peer == from) continue;
    const double delay =
        config_.base_latency_ms + rng_.NextDouble() * config_.jitter_ms;
    // One delay draw for the pair: the original is scheduled first at each
    // delivery time, so the FIFO tie-break admits it and rejects the twin
    // on every replica alike.
    for (const double at : net_.Deliveries(from, peer, fault::MsgKind::kVertex,
                                           queue_.Now(), delay)) {
      queue_.ScheduleAt(at, [this, original, peer] {
        (void)nodes_[peer]->OnVertex(original);
        ArmEmit(peer);
      });
    }
    for (const double at : net_.Deliveries(from, peer, fault::MsgKind::kVertex,
                                           queue_.Now(), delay)) {
      queue_.ScheduleAt(at, [this, twin, peer] {
        (void)nodes_[peer]->OnVertex(twin);
      });
    }
  }
}

DagVertex DagRiderSimulation::MakeInvalidVariant(const DagVertex& vertex) {
  DagVertex invalid = vertex;
  std::uint64_t flavour = byz_counter_ % 4;
  if (flavour == 3 && invalid.parents.size() < 2) flavour = 0;
  switch (flavour) {
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
    case 2:
      // Forged hash: content untouched, hash corrupted after sealing.
      invalid.Seal();
      invalid.hash.bytes[0] ^= 0xFF;
      break;
    default:
      // Two strong edges to one source (duplicate parent).
      invalid.parents[1] = invalid.parents[0];
      invalid.Seal();
      break;
  }
  return invalid;
}

void DagRiderSimulation::Emit(NodeId node) {
  emit_armed_[node] = false;
  if (!nodes_[node]->CanEmit()) return;  // re-armed on the next delivery

  std::vector<Transaction> txs;
  if (tx_source_) txs = tx_source_(node);
  DagVertex vertex = nodes_[node]->PrepareVertex(std::move(txs));
  vertex.Seal();
  ++stats_.vertices_emitted;
  obs::Registry()
      .GetCounter("nezha_consensus_blocks_total", {{"sim", "dagrider"}})
      ->Inc();

  // The node always adopts its own honest vertex (its private state stays
  // coherent); what it BROADCASTS depends on its role.
  (void)nodes_[node]->OnVertex(vertex);
  ArmEmit(node);  // next round, once the quorum clock allows

  const fault::ByzantineConfig& byz = config_.byzantine;
  if (byz.Enabled() && byz.IsByzantine(node)) {
    switch (byz.behavior) {
      case fault::ByzBehavior::kWithhold:
        if (byz.release_ms <= 0 || queue_.Now() < byz.release_ms) {
          ++stats_.byz_withheld;
          withheld_.push_back(std::move(vertex));
          if (byz.release_ms > 0 && !release_scheduled_) {
            release_scheduled_ = true;
            queue_.ScheduleAt(byz.release_ms, [this] { ReleaseWithheld(); });
          }
          return;
        }
        break;  // past the release point: behave
      case fault::ByzBehavior::kEquivocate: {
        DagVertex twin = vertex;
        twin.txs.push_back(ByzMarkerTx(byz_counter_++));
        twin.tx_root = ComputeTxMerkleRoot(twin.txs);
        twin.Seal();
        ++stats_.byz_equivocations;
        BroadcastEquivocating(vertex, twin, node);
        return;
      }
      case fault::ByzBehavior::kInvalidBlock: {
        DagVertex invalid = MakeInvalidVariant(vertex);
        ++byz_counter_;
        ++stats_.byz_invalid;
        Broadcast(invalid, node);
        return;  // the honest vertex stays private (gossip may share it)
      }
      case fault::ByzBehavior::kNone:
        break;
    }
  }

  Broadcast(vertex, node);
}

void DagRiderSimulation::GossipPull(NodeId to, NodeId from) {
  if (net_.Active() && net_.Partitioned(from, to, queue_.Now())) return;
  for (const DagVertex* vertex : nodes_[from]->AllVertices()) {
    if (nodes_[to]->Knows(vertex->hash)) continue;
    ++stats_.gossip_transfers;
    (void)nodes_[to]->OnVertex(*vertex);
  }
  ArmEmit(to);
}

void DagRiderSimulation::ScheduleNextGossipEvent() {
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

void DagRiderSimulation::ReleaseWithheld() {
  std::vector<DagVertex> pending = std::move(withheld_);
  withheld_.clear();
  for (const DagVertex& vertex : pending) {
    Broadcast(vertex, vertex.source);
  }
}

void DagRiderSimulation::Run() {
  for (NodeId node = 0; node < config_.num_nodes; ++node) {
    ArmEmit(node);
  }
  ScheduleNextGossipEvent();
  queue_.RunUntil(config_.duration_ms);
  queue_.RunToCompletion();

  // Settlement: once traffic generation stops, the network "heals" — the
  // emulator passes everything through, withheld vertices come out, and a
  // lossless anti-entropy ring sweep converges every view. Skipped
  // entirely for the honest configuration (byte-identical traces).
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

  stats_.max_round = nodes_[0]->NextEmitRound();
  stats_.committed_vertices = nodes_[0]->CommittedSequence().size();
  stats_.committed_batches = nodes_[0]->NumBatches();

  // kConsensus determinism checkpoint: node 0's committed vertex sequence —
  // the total order the execution pipeline consumes. Same seed + config must
  // digest identically run to run.
  if (analysis::DetCheckpointRecorder& det =
          analysis::DetCheckpointRecorder::Global();
      det.enabled()) {
    det.BeginEpoch(0, "dagrider-sim");
    std::string canonical;
    const auto& sequence = nodes_[0]->CommittedSequence();
    canonical.reserve(48 + sequence.size() * 68);
    char line[96];
    std::snprintf(line, sizeof(line),
                  "consensus sim=dagrider vertices=%zu batches=%zu\n",
                  sequence.size(), stats_.committed_batches);
    canonical += line;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
      std::snprintf(line, sizeof(line), "c %zu ", i);
      canonical += line;
      canonical += sequence[i]->hash.ToHex();
      canonical += '\n';
    }
    det.Record(analysis::DetStage::kConsensus, canonical);
    det.EndEpoch();
  }

  auto& registry = obs::Registry();
  const obs::Labels sim_label = {{"sim", "dagrider"}};
  registry.GetGauge("nezha_consensus_confirmed_blocks", sim_label)
      ->Set(static_cast<std::int64_t>(stats_.committed_vertices));
  registry.GetGauge("nezha_consensus_confirmed_epochs", sim_label)
      ->Set(static_cast<std::int64_t>(stats_.committed_batches));
  if (stats_.gossip_transfers > 0) {
    registry.GetCounter("nezha_consensus_gossip_transfers_total", sim_label)
        ->Inc(stats_.gossip_transfers);
  }
  if (stats_.committed_batches > 0) {
    // Wave-anchored batches are DagRider's epoch analogue.
    registry
        .GetHistogram("nezha_consensus_epoch_blocks", sim_label,
                      obs::DefaultSizeBounds())
        ->Observe(static_cast<double>(stats_.committed_vertices) /
                  static_cast<double>(stats_.committed_batches));
  }
}

}  // namespace nezha
