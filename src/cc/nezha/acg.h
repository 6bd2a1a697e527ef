// Address-based Conflict Graph (ACG) — the paper's Definition 4.
//
// Instead of capturing a dependency edge per pair of conflicting
// transactions (quadratic), each accessed address A_j keeps a read/write set
// RW_j: the transactions that read it and the transactions that write it.
// Read units are conceptually placed before write units on every address
// (the read-before-write ordering rule), and both lists are kept in
// transaction-subscript order (the deterministic write-write rule).
//
// A directed edge RW_i -> RW_j exists iff some transaction writes A_i and
// reads A_j (Definition 3, address dependency): that transaction's write
// unit sits late in RW_i while its read unit sits early in RW_j, so
// transactions on A_i generally precede those on A_j in the total order.
//
// Construction is O(u * N) for N transactions with u read/write units each —
// the linear-time property the paper claims for step 1 of Nezha.
#pragma once

#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "common/types.h"
#include "graph/digraph.h"
#include "vm/rwset.h"

namespace nezha {

/// RW_j of one address: the transactions reading and writing it.
struct AddressRWSet {
  Address address;
  std::vector<TxIndex> readers;  ///< ascending TxIndex (subscript order)
  std::vector<TxIndex> writers;  ///< ascending TxIndex (subscript order)
};

class AddressConflictGraph {
 public:
  /// Builds the ACG over one batch of read/write sets. Transactions flagged
  /// rwset.ok == false (application-level reverts) contribute no units.
  static AddressConflictGraph Build(std::span<const ReadWriteSet> rwsets);

  /// Sharded parallel construction: addresses are partitioned across
  /// `num_shards` shards by hash (0 = one per pool worker), transactions are
  /// chunked across the pool to scatter their units per shard, and each
  /// shard then merges its own RW-sets and address-dependency edges
  /// independently (docs/PARALLELISM.md). Produces the exact vertex set,
  /// subscript assignment, readers/writers lists, and edge multiset of
  /// Build() — only the Digraph's internal adjacency ordering differs
  /// (sorted instead of insertion-ordered), which no consumer observes.
  /// Batches too small to amortize dispatch fall back to Build().
  static AddressConflictGraph BuildSharded(std::span<const ReadWriteSet> rwsets,
                                           ThreadPool& pool,
                                           std::size_t num_shards = 0);

  /// Accessed addresses in ascending address order; the position of an entry
  /// is its dense "address subscript" used for deterministic tie-breaking.
  const std::vector<AddressRWSet>& entries() const { return entries_; }

  /// Address-dependency graph: vertex i is entries()[i]; edges deduplicated.
  const Digraph& dependencies() const { return *dependencies_; }

  /// Dense index of an address, or -1 if the batch never accessed it.
  int IndexOf(Address a) const {
    const auto it = index_.find(a.value);
    return it == index_.end() ? -1 : static_cast<int>(it->second);
  }

  std::size_t NumAddresses() const { return entries_.size(); }
  std::size_t NumEdges() const { return dependencies_->NumEdges(); }
  /// Address shards the graph was built with: 1 for Build() and for
  /// BuildSharded's small-batch serial fallback.
  std::size_t NumShards() const { return shards_; }

  /// Canonical text encoding of the graph — vertex set with subscripts,
  /// per-address readers/writers, and the edge multiset with neighbors
  /// sorted (so Build and BuildSharded, which differ only in internal
  /// adjacency ordering, encode identically). Feeds the kAcg determinism
  /// checkpoint (src/analysis/det_checkpoint.h).
  std::string CanonicalEncoding() const;

 private:
  std::vector<AddressRWSet> entries_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::unique_ptr<Digraph> dependencies_;
  std::size_t shards_ = 1;
};

}  // namespace nezha
