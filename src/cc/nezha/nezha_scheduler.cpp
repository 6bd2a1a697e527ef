#include "cc/nezha/nezha_scheduler.h"

#include "analysis/det_checkpoint.h"
#include "cc/nezha/acg.h"
#include "cc/nezha/rank_division.h"
#include "obs/profiler.h"

namespace nezha {

Result<Schedule> NezhaScheduler::BuildScheduleImpl(
    std::span<const ReadWriteSet> rwsets) {
  metrics_ = SchedulerMetrics{};

  // Each step is one obs::Stage; its Stop() is the step's metrics time and
  // the same interval the profile and the Chrome trace show.
  // Step 1: address-based conflict graph (linear in read/write units).
  // With a pool configured, construction is sharded across it — same
  // vertices, subscripts and edges, just built in parallel.
  AddressConflictGraph acg;
  {
    obs::Stage stage("acg_build");
    acg = options_.pool != nullptr
              ? AddressConflictGraph::BuildSharded(rwsets, *options_.pool,
                                                   options_.acg_shards)
              : AddressConflictGraph::Build(rwsets);
    metrics_.construction_us = stage.Stop();
  }
  metrics_.graph_vertices = acg.NumAddresses();
  metrics_.graph_edges = acg.NumEdges();
  metrics_.acg_shards = acg.NumShards();

  analysis::DetCheckpointRecorder& det =
      analysis::DetCheckpointRecorder::Global();
  if (det.enabled()) {
    det.Record(analysis::DetStage::kAcg, acg.CanonicalEncoding());
  }

  // Step 2: sorting-rank division over the address-dependency graph.
  std::vector<Digraph::Vertex> ranks;
  obs::RankDecisionStats rank_stats;
  {
    obs::Stage stage("rank_division");
    ranks = ComputeSortingRanks(acg.dependencies(), options_.rank_policy,
                                &rank_stats);
    metrics_.cycle_us = stage.Stop();
  }

  if (det.enabled()) {
    det.Record(analysis::DetStage::kRank,
               CanonicalRankEncoding(ranks, &rank_stats));
  }

  // Step 3: per-address transaction sorting.
  TxSorterOptions sorter_options;
  sorter_options.enable_reordering = options_.enable_reordering;
  TxSorterResult sorted;
  {
    obs::Stage stage("tx_sorting");
    sorted = options_.pool != nullptr
                 ? SortTransactionsParallel(acg, ranks, rwsets.size(),
                                            *options_.pool, sorter_options)
                 : SortTransactions(acg, ranks, rwsets.size(), sorter_options);
    metrics_.sorting_us = stage.Stop();
  }
  metrics_.reordered_txs = sorted.reordered_txs;
  metrics_.sort_clusters = sorted.clusters;

  Schedule schedule;
  schedule.sequence = std::move(sorted.sequence);
  schedule.aborted = std::move(sorted.aborted);
  schedule.reordered = std::move(sorted.reordered);
  schedule.attribution.aborts = std::move(sorted.abort_records);
  schedule.attribution.rank = rank_stats;
  schedule.attribution.reorder_attempts = sorted.reorder_attempts;
  schedule.attribution.reorder_commits = schedule.reordered.size();

  // Hot addresses: every ACG entry's read/write population, abort counts
  // folded in from the records, trimmed to the top 8.
  {
    std::vector<obs::AddressHeat> heat;
    heat.reserve(acg.NumAddresses());
    for (const AddressRWSet& entry : acg.entries()) {
      obs::AddressHeat h;
      h.address = entry.address.value;
      h.readers = static_cast<std::uint32_t>(entry.readers.size());
      h.writers = static_cast<std::uint32_t>(entry.writers.size());
      heat.push_back(h);
    }
    for (const obs::AbortRecord& r : schedule.attribution.aborts) {
      const int idx = acg.IndexOf(Address{r.address});
      if (idx >= 0) ++heat[static_cast<std::size_t>(idx)].aborts;
    }
    obs::SelectTopK(heat, 8);
    schedule.attribution.hot_addresses = std::move(heat);
  }

  for (TxIndex t = 0; t < rwsets.size(); ++t) {
    if (!rwsets[t].ok) {
      // Application-level revert: excluded from the ACG, commits nothing.
      schedule.aborted[t] = true;
      schedule.sequence[t] = kUnassignedSeq;
    } else if (!schedule.aborted[t] && schedule.sequence[t] == kUnassignedSeq) {
      // Touched no address at all: unconstrained, join the first group.
      schedule.sequence[t] = sorter_options.initial_seq;
    }
  }
  schedule.RebuildGroups();
  PublishSchedulerObs(name(), metrics_, schedule, rwsets, "unserializable");
  return schedule;
}

}  // namespace nezha
