#include "cc/nezha/tx_sorter.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "obs/metrics.h"

namespace nezha {
namespace {

constexpr SeqNum kNoSeq = kUnassignedSeq;  // 0

/// Arrays shared by every cluster of one sorting run. Clusters partition
/// both the transactions and the ACG entries, so concurrent cluster sorters
/// write disjoint elements; the arrays are plain bytes/words (never
/// std::vector<bool>, whose bit packing would make disjoint elements share
/// a memory location and race under TSan).
struct SharedSortState {
  std::vector<SeqNum> seq;
  std::vector<std::uint8_t> aborted;         // 0/1 per TxIndex
  std::vector<std::uint8_t> address_sorted;  // 0/1 per ACG entry index

  // Per transaction: the ACG entry indices it reads / writes (built once,
  // read-only during sorting).
  std::vector<std::vector<std::uint32_t>> tx_reads;
  std::vector<std::vector<std::uint32_t>> tx_writes;

  SharedSortState(const AddressConflictGraph& g, std::size_t num_txs)
      : seq(num_txs, kNoSeq),
        aborted(num_txs, 0),
        address_sorted(g.NumAddresses(), 0),
        tx_reads(num_txs),
        tx_writes(num_txs) {
    for (std::uint32_t e = 0; e < g.NumAddresses(); ++e) {
      for (TxIndex t : g.entries()[e].readers) tx_reads[t].push_back(e);
      for (TxIndex t : g.entries()[e].writers) tx_writes[t].push_back(e);
    }
  }
};

/// Runs the per-address passes of Algorithm 2 over one conflict cluster —
/// or, in the serial path, over the whole batch as a single cluster. Reads
/// and writes only the shared-state elements owned by its cluster; all
/// outputs (abort records, reorder counters) are cluster-local and merged
/// by the caller.
struct ClusterSorter {
  ClusterSorter(const AddressConflictGraph& acg_in,
                const TxSorterOptions& options_in, SharedSortState& st_in)
      : acg(acg_in), options(options_in), st(st_in) {}

  const AddressConflictGraph& acg;
  const TxSorterOptions& options;
  SharedSortState& st;

  std::size_t reordered = 0;
  std::vector<TxIndex> reordered_txs;
  std::vector<obs::AbortRecord> abort_records;
  /// Position in rank_order of each abort decision, parallel to
  /// abort_records — lets the parallel path merge the per-cluster records
  /// back into the exact order the serial sorter emits them in.
  std::vector<std::size_t> abort_rank_pos;
  std::uint64_t reorder_attempts = 0;

  bool Alive(TxIndex t) const { return !st.aborted[t]; }

  /// Aborts t at `entry`, recording the decision for attribution. Call at
  /// the decision point, before the sequence number is surrendered.
  void Abort(TxIndex t, const AddressRWSet& entry, std::size_t rank_pos,
             obs::ConflictKind kind, bool reorder_attempted) {
    st.aborted[t] = 1;
    obs::AbortRecord record;
    record.tx = t;
    record.address = entry.address.value;
    record.kind = kind;
    record.seq_at_decision = st.seq[t];
    record.reorder_attempted = reorder_attempted;
    record.reorder_failure = reorder_attempted
                                 ? obs::ReorderFailure::kUpperBoundHit
                                 : obs::ReorderFailure::kNotAttempted;
    abort_records.push_back(record);
    abort_rank_pos.push_back(rank_pos);
  }

  /// Attempts to raise tx t's sequence number to at least `min_target`
  /// without violating any already-sorted address:
  ///  * on every sorted address t writes: the new number must exceed every
  ///    other live read number and collide with no other live write number;
  ///  * on every sorted address t reads (other than the one currently being
  ///    sorted, whose write side is enforced by the ongoing passes): the new
  ///    number must stay below every other live write number.
  /// Returns true and updates seq[t] on success. Every address it inspects
  /// belongs to t's own cluster (it is an address t touches), so the check
  /// never reads another cluster's in-flight state.
  bool TryRaise(TxIndex t, SeqNum min_target, std::uint32_t current_entry) {
    // Upper bound from the read side: raising a read past a committed write
    // on a sorted address would order that write before the read.
    SeqNum upper = std::numeric_limits<SeqNum>::max();
    for (std::uint32_t e : st.tx_reads[t]) {
      if (!st.address_sorted[e] || e == current_entry) continue;
      for (TxIndex w : acg.entries()[e].writers) {
        if (w == t || !Alive(w) || st.seq[w] == kNoSeq) continue;
        upper = std::min(upper, st.seq[w]);
      }
    }
    SeqNum s = min_target;
    if (s >= upper) return false;

    // Push s upward until it clears every write-side constraint.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::uint32_t e : st.tx_writes[t]) {
        if (!st.address_sorted[e]) continue;
        const AddressRWSet& entry = acg.entries()[e];
        for (TxIndex r : entry.readers) {
          if (r == t || !Alive(r) || st.seq[r] == kNoSeq) continue;
          if (st.seq[r] >= s) {
            s = st.seq[r] + 1;
            changed = true;
          }
        }
        for (TxIndex w : entry.writers) {
          if (w == t || !Alive(w) || st.seq[w] == kNoSeq) continue;
          if (st.seq[w] == s) {
            ++s;
            changed = true;
          }
        }
      }
      if (s >= upper) return false;
    }
    st.seq[t] = s;
    return true;
  }

  /// Sorts one address (one iteration of Algorithm 2's outer loop).
  /// `rank_pos` is the address's position in the global rank order, used
  /// only to tag abort records for deterministic merging.
  void SortEntry(Digraph::Vertex entry_idx, std::size_t rank_pos) {
    const AddressRWSet& entry = acg.entries()[entry_idx];
    // Mark sorted up front so TryRaise also validates against this address's
    // partially assigned state.
    st.address_sorted[entry_idx] = 1;

    const auto is_reader = [&](TxIndex t) {
      return std::binary_search(entry.readers.begin(), entry.readers.end(), t);
    };

    // ---- Phase A: read units (Algorithm 2 lines 3-15) ----
    SeqNum max_read = 0;
    {
      SeqNum min_assigned = std::numeric_limits<SeqNum>::max();
      SeqNum max_assigned = 0;
      for (TxIndex t : entry.readers) {
        if (!Alive(t) || st.seq[t] == kNoSeq) continue;
        min_assigned = std::min(min_assigned, st.seq[t]);
        max_assigned = std::max(max_assigned, st.seq[t]);
      }
      const bool none_assigned = max_assigned == 0;
      const SeqNum fill = none_assigned ? options.initial_seq : min_assigned;
      bool any_reader = false;
      for (TxIndex t : entry.readers) {
        if (!Alive(t)) continue;
        any_reader = true;
        if (st.seq[t] == kNoSeq) st.seq[t] = fill;
      }
      if (any_reader) {
        max_read = none_assigned ? options.initial_seq : max_assigned;
      }
    }

    // Write numbers already in use on this address (live, assigned writers);
    // fresh writers must skip them (Algorithm 2 lines 30-35).
    std::unordered_set<SeqNum> used_write_seqs;

    // ---- Phase B: writers that also read this address (lines 16-19) ----
    // Such a unit is both a read and a write: its number counts toward
    // max_read, and the write side requires it to exceed all other reads,
    // so a number at or below max_read is re-seated above it.
    //
    // Two read-modify-write transactions on one address are inherently
    // unserializable under snapshot reads (each would have to both precede
    // and follow the other), so at most one survives: the first in
    // subscript order that can be seated, the rest abort.
    bool read_writer_kept = false;
    for (TxIndex t : entry.writers) {
      if (!Alive(t) || st.seq[t] == kNoSeq || !is_reader(t)) continue;
      if (read_writer_kept) {
        Abort(t, entry, rank_pos, obs::ConflictKind::kReadWrite,
              /*reorder_attempted=*/false);
        continue;
      }
      if (st.seq[t] <= max_read) {
        if (!TryRaise(t, max_read + 1, entry_idx)) {
          Abort(t, entry, rank_pos, obs::ConflictKind::kReadWrite,
                /*reorder_attempted=*/true);
          continue;
        }
      }
      read_writer_kept = true;
      max_read = std::max(max_read, st.seq[t]);
      used_write_seqs.insert(st.seq[t]);
    }

    // ---- Phase C: already-numbered writers (lines 20-24) ----
    // A write at or below the maximum read number is the paper's
    // unserializability signature. The §IV.D enhancement re-seats such
    // transactions above everything they touch instead of aborting, when
    // provably safe. Duplicate write numbers (two transactions numbered
    // equal on different addresses earlier, both writing here) are resolved
    // the same way.
    for (TxIndex t : entry.writers) {
      if (!Alive(t) || st.seq[t] == kNoSeq || is_reader(t)) continue;
      const bool below_reads = st.seq[t] <= max_read;
      const bool collides = used_write_seqs.contains(st.seq[t]);
      if (below_reads || collides) {
        if (options.enable_reordering) ++reorder_attempts;
        if (options.enable_reordering &&
            TryRaise(t, max_read + 1, entry_idx)) {
          ++reordered;
          reordered_txs.push_back(t);
        } else {
          // A number at or below the reads is the rank-cycle signature; a
          // pure write-number collision is a write-write conflict §IV.D
          // failed to (or was not allowed to) re-seat.
          Abort(t, entry, rank_pos,
                below_reads ? obs::ConflictKind::kRankCycle
                            : obs::ConflictKind::kWriteWriteUnreorderable,
                /*reorder_attempted=*/options.enable_reordering);
          continue;
        }
      }
      used_write_seqs.insert(st.seq[t]);
    }

    // ---- Phase D: fresh writers (lines 25-35) ----
    SeqNum write_seq = max_read == 0 ? options.initial_seq : max_read + 1;
    for (TxIndex t : entry.writers) {
      if (!Alive(t) || st.seq[t] != kNoSeq) continue;
      while (used_write_seqs.contains(write_seq)) ++write_seq;
      st.seq[t] = write_seq;
      used_write_seqs.insert(write_seq);
      ++write_seq;
    }
  }
};

/// Assembles the public result from the shared arrays and the (already
/// merged, rank-ordered) per-cluster outputs.
TxSorterResult AssembleResult(SharedSortState&& st, std::size_t reordered,
                              std::vector<TxIndex>&& reordered_txs,
                              std::vector<obs::AbortRecord>&& abort_records,
                              std::uint64_t reorder_attempts) {
  TxSorterResult result;
  result.sequence = std::move(st.seq);
  result.aborted.assign(st.aborted.begin(), st.aborted.end());
  result.reordered_txs = reordered;
  // Aborted transactions surrender their numbers.
  for (TxIndex t = 0; t < result.sequence.size(); ++t) {
    if (result.aborted[t]) result.sequence[t] = kNoSeq;
  }
  // Only surviving rescues count as reordered commits (a raise on one
  // address does not shield the transaction on later addresses).
  std::sort(reordered_txs.begin(), reordered_txs.end());
  reordered_txs.erase(std::unique(reordered_txs.begin(), reordered_txs.end()),
                      reordered_txs.end());
  for (const TxIndex t : reordered_txs) {
    if (!result.aborted[t]) result.reordered.push_back(t);
  }
  result.abort_records = std::move(abort_records);
  result.reorder_attempts = reorder_attempts;
  return result;
}

/// Union-find over ACG entry indices, used to carve the batch into conflict
/// clusters: two addresses land in one cluster iff some transaction touches
/// both (directly or transitively).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  std::uint32_t Find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];  // path halving
      x = parent_[x];
    }
    return x;
  }

  void Union(std::uint32_t a, std::uint32_t b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::uint32_t> parent_;
};

/// Below this many ACG entries the cluster machinery costs more than the
/// serial sort it replaces.
constexpr std::size_t kParallelSortMinEntries = 64;

}  // namespace

TxSorterResult SortTransactions(const AddressConflictGraph& acg,
                                std::span<const Digraph::Vertex> rank_order,
                                std::size_t num_txs,
                                const TxSorterOptions& options) {
  SharedSortState st(acg, num_txs);
  ClusterSorter sorter(acg, options, st);
  for (std::size_t pos = 0; pos < rank_order.size(); ++pos) {
    sorter.SortEntry(rank_order[pos], pos);
  }
  return AssembleResult(std::move(st), sorter.reordered,
                        std::move(sorter.reordered_txs),
                        std::move(sorter.abort_records),
                        sorter.reorder_attempts);
}

TxSorterResult SortTransactionsParallel(
    const AddressConflictGraph& acg,
    std::span<const Digraph::Vertex> rank_order, std::size_t num_txs,
    ThreadPool& pool, const TxSorterOptions& options) {
  if (pool.size() <= 1 || rank_order.size() < kParallelSortMinEntries) {
    // Serial fallback is one cluster; keep the gauge honest for this build.
    if (obs::MetricsEnabled()) {
      obs::Registry().GetGauge("nezha_parallel_sort_clusters")->Set(1);
    }
    return SortTransactions(acg, rank_order, num_txs, options);
  }
  SharedSortState st(acg, num_txs);

  // ---- Cluster the ACG: union every entry a transaction touches. ----
  UnionFind uf(acg.NumAddresses());
  for (TxIndex t = 0; t < num_txs; ++t) {
    std::uint32_t first = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t e : st.tx_reads[t]) {
      if (first == std::numeric_limits<std::uint32_t>::max()) {
        first = e;
      } else {
        uf.Union(first, e);
      }
    }
    for (std::uint32_t e : st.tx_writes[t]) {
      if (first == std::numeric_limits<std::uint32_t>::max()) {
        first = e;
      } else {
        uf.Union(first, e);
      }
    }
  }

  // Partition rank_order by cluster, preserving each cluster's subsequence
  // of the global rank order (the order Algorithm 2 must visit it in).
  // Positions are carried alongside so abort records can be merged back
  // into the serial emission order.
  std::unordered_map<std::uint32_t, std::uint32_t> cluster_ids;
  std::vector<std::vector<std::uint32_t>> cluster_positions;
  for (std::uint32_t pos = 0; pos < rank_order.size(); ++pos) {
    const std::uint32_t root = uf.Find(rank_order[pos]);
    const auto [it, inserted] = cluster_ids.emplace(
        root, static_cast<std::uint32_t>(cluster_positions.size()));
    if (inserted) cluster_positions.emplace_back();
    cluster_positions[it->second].push_back(pos);
  }

  // ---- Sort each cluster independently on the pool. ----
  std::vector<ClusterSorter> sorters;
  sorters.reserve(cluster_positions.size());
  for (std::size_t c = 0; c < cluster_positions.size(); ++c) {
    sorters.emplace_back(acg, options, st);
  }
  pool.ParallelFor(0, cluster_positions.size(), [&](std::size_t c) {
    ClusterSorter& sorter = sorters[c];
    for (const std::uint32_t pos : cluster_positions[c]) {
      sorter.SortEntry(rank_order[pos], pos);
    }
  });

  // ---- Merge: counters sum; abort records re-sort into rank order (each
  // record is tagged with its decision position; within one address all
  // records come from one cluster in emission order, so the stable sort
  // reproduces the serial sequence exactly). ----
  std::size_t reordered = 0;
  std::uint64_t reorder_attempts = 0;
  std::vector<TxIndex> reordered_txs;
  std::vector<std::pair<std::size_t, obs::AbortRecord>> tagged;
  for (ClusterSorter& sorter : sorters) {
    reordered += sorter.reordered;
    reorder_attempts += sorter.reorder_attempts;
    reordered_txs.insert(reordered_txs.end(), sorter.reordered_txs.begin(),
                         sorter.reordered_txs.end());
    for (std::size_t i = 0; i < sorter.abort_records.size(); ++i) {
      tagged.emplace_back(sorter.abort_rank_pos[i], sorter.abort_records[i]);
    }
  }
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<obs::AbortRecord> abort_records;
  abort_records.reserve(tagged.size());
  for (auto& tr : tagged) abort_records.push_back(tr.second);

  if (obs::MetricsEnabled()) {
    obs::Registry()
        .GetGauge("nezha_parallel_sort_clusters")
        ->Set(static_cast<std::int64_t>(cluster_positions.size()));
  }
  TxSorterResult result =
      AssembleResult(std::move(st), reordered, std::move(reordered_txs),
                     std::move(abort_records), reorder_attempts);
  result.clusters = cluster_positions.size();
  return result;
}

std::string CanonicalAbortRecordsEncoding(
    std::span<const obs::AbortRecord> records) {
  std::string out = "aborts n=" + std::to_string(records.size()) + "\n";
  char buf[96];
  for (const obs::AbortRecord& r : records) {
    std::snprintf(buf, sizeof(buf), "x %u a=%llu k=%s s=%llu ra=%d rf=%s\n",
                  r.tx, static_cast<unsigned long long>(r.address),
                  obs::ConflictKindName(r.kind),
                  static_cast<unsigned long long>(r.seq_at_decision),
                  r.reorder_attempted ? 1 : 0,
                  obs::ReorderFailureName(r.reorder_failure));
    out += buf;
  }
  return out;
}

}  // namespace nezha
