// Hierarchical sorting, step 2: per-address transaction sorting — the
// paper's Algorithm 2, plus the §IV.D reordering enhancement.
//
// Addresses are visited in sorting-rank order. On each address the sorter
// assigns Lamport-style sequence numbers to the read/write units under the
// paper's three rules:
//   1. every read unit gets a smaller number than every write unit;
//   2. write units are ordered deterministically by transaction subscript;
//   3. read units may share one number (reads never conflict).
// Because transactions are atomic, a number is assigned to the whole
// transaction; units of a transaction on other addresses inherit it.
//
// Unserializable transactions show up as a write unit whose (previously
// assigned) number does not exceed the address's maximum read number —
// detected with one comparison instead of cycle enumeration (the paper's
// replacement for Johnson's algorithm). Such transactions abort, unless the
// reordering enhancement can legally re-seat them: a transaction whose
// conflict stems from write-write ordering can move to a fresh number above
// everything it touches, provided the move provably keeps every
// already-sorted address consistent (the implementation verifies
// read-below-write and write-uniqueness on all affected addresses; the
// paper's §IV.D states the multi-write condition, we enforce the full
// soundness check).
#pragma once

#include <span>
#include <vector>

#include "cc/nezha/acg.h"
#include "cc/scheduler.h"
#include "obs/abort_attribution.h"

namespace nezha {

struct TxSorterOptions {
  /// Enable the §IV.D reordering enhancement (on by default, as in Nezha;
  /// turning it off gives the ablation baseline).
  bool enable_reordering = true;
  /// First sequence number handed out (the paper's initialSeq).
  SeqNum initial_seq = 1;
};

struct TxSorterResult {
  std::vector<SeqNum> sequence;  ///< per TxIndex; kUnassignedSeq = untouched
  std::vector<bool> aborted;     ///< per TxIndex
  std::size_t reordered_txs = 0; ///< §IV.D rescues (raises performed)
  /// Reordered transactions that survived to commit, ascending TxIndex (a
  /// raised transaction can still abort on a later-sorted address, so this
  /// can be shorter than reordered_txs).
  std::vector<TxIndex> reordered;
  /// One record per abort decision, emitted at the address where it fell
  /// (docs/OBSERVABILITY.md abort-cause taxonomy). A transaction aborts at
  /// most once, so records are unique per TxIndex.
  std::vector<obs::AbortRecord> abort_records;
  /// §IV.D raises attempted (successful or not); reordered_txs counts the
  /// successes.
  std::uint64_t reorder_attempts = 0;
  /// Conflict clusters sorted independently: 1 for SortTransactions and for
  /// SortTransactionsParallel's small-batch serial fallback.
  std::size_t clusters = 1;
};

/// Sorts all transactions of a batch given its ACG and the address rank
/// order (output of ComputeSortingRanks). `num_txs` sizes the result;
/// transactions whose rwset.ok was false never appear in the ACG and keep
/// sequence 0 / aborted=true (they commit nothing).
TxSorterResult SortTransactions(const AddressConflictGraph& acg,
                                std::span<const Digraph::Vertex> rank_order,
                                std::size_t num_txs,
                                const TxSorterOptions& options = {});

/// Parallel Algorithm 2: partitions the ACG into conflict clusters (entries
/// connected through a shared transaction) with a union-find, then sorts
/// each cluster on the pool. Clusters share no transactions and no
/// addresses, so every per-address decision — fills, re-seats, aborts,
/// used-write-number skips — is confined to its cluster and the merged
/// result is byte-identical to SortTransactions (docs/PARALLELISM.md walks
/// the argument; abort records are merged back into address-rank order).
/// The §IV.D reorder pass stays deterministic because rank_order already
/// carries the fixed address-id tie-break and each cluster preserves its
/// subsequence of that order. Small batches fall back to the serial sorter.
TxSorterResult SortTransactionsParallel(
    const AddressConflictGraph& acg,
    std::span<const Digraph::Vertex> rank_order, std::size_t num_txs,
    ThreadPool& pool, const TxSorterOptions& options = {});

/// Canonical text encoding of the sorter's abort decisions (one line per
/// AbortRecord in emission order: tx, conflict kind, address, seq at
/// decision, reorder outcome). Folded into the kSort determinism checkpoint
/// (src/analysis/det_checkpoint.h) so a divergent abort *decision* — not
/// just a divergent final sequence — is localized to the sort stage.
std::string CanonicalAbortRecordsEncoding(
    std::span<const obs::AbortRecord> records);

}  // namespace nezha
