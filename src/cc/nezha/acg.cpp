#include "cc/nezha/acg.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "common/canonical_text.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"

namespace nezha {

AddressConflictGraph AddressConflictGraph::Build(
    std::span<const ReadWriteSet> rwsets) {
  AddressConflictGraph acg;

  // Pass 1: collect the accessed addresses, deterministically ordered by
  // address value (their "subscripts").
  std::vector<std::uint64_t> addresses;
  for (const ReadWriteSet& rw : rwsets) {
    if (!rw.ok) continue;
    for (Address a : rw.reads) addresses.push_back(a.value);
    for (Address a : rw.writes) addresses.push_back(a.value);
  }
  std::sort(addresses.begin(), addresses.end());
  addresses.erase(std::unique(addresses.begin(), addresses.end()),
                  addresses.end());

  acg.entries_.reserve(addresses.size());
  acg.index_.reserve(addresses.size());
  for (std::uint64_t a : addresses) {
    acg.index_.emplace(a, acg.entries_.size());
    acg.entries_.push_back(AddressRWSet{Address(a), {}, {}});
  }

  // Pass 2: map each transaction's read/write units onto its addresses.
  // Iterating transactions in subscript order keeps every readers/writers
  // list sorted by TxIndex with no extra sort.
  for (TxIndex t = 0; t < rwsets.size(); ++t) {
    const ReadWriteSet& rw = rwsets[t];
    if (!rw.ok) continue;
    for (Address a : rw.reads) {
      acg.entries_[acg.index_[a.value]].readers.push_back(t);
    }
    for (Address a : rw.writes) {
      acg.entries_[acg.index_[a.value]].writers.push_back(t);
    }
  }

  // Pass 3: address-dependency edges — one edge RW_i -> RW_j per transaction
  // that writes A_i and reads A_j (i != j), deduplicated.
  acg.dependencies_ = std::make_unique<Digraph>(acg.entries_.size());
  for (const ReadWriteSet& rw : rwsets) {
    if (!rw.ok) continue;
    for (Address w : rw.writes) {
      const auto wi = static_cast<Digraph::Vertex>(acg.index_[w.value]);
      for (Address r : rw.reads) {
        if (r == w) continue;
        const auto ri = static_cast<Digraph::Vertex>(acg.index_[r.value]);
        acg.dependencies_->AddEdge(wi, ri, /*deduplicate=*/true);
      }
    }
  }
  return acg;
}

namespace {

/// Below this many transactions the scatter/merge machinery costs more than
/// the serial pass it replaces.
constexpr std::size_t kShardedBuildMinTxs = 32;

/// splitmix64 finisher: libstdc++'s std::hash<uint64_t> is the identity, so
/// raw `address % shards` would let dense workload addresses stripe
/// pathologically. One mix round spreads any address pattern evenly.
std::uint64_t MixAddress(std::uint64_t a) {
  a += 0x9e3779b97f4a7c15ULL;
  a = (a ^ (a >> 30)) * 0xbf58476d1ce4e5b9ULL;
  a = (a ^ (a >> 27)) * 0x94d049bb133111ebULL;
  return a ^ (a >> 31);
}

/// One scattered unit: which address, which transaction touched it. Chunks
/// emit these in ascending TxIndex order, so concatenating a shard's chunk
/// vectors in chunk order keeps every readers/writers list sorted.
struct Unit {
  std::uint64_t address;
  TxIndex tx;
};

/// Cross-shard totals the merge workers fold their results into; purely
/// observability (the per-shard gauges below), but genuinely shared across
/// the pool, hence the lock.
struct ShardMergeState {
  Mutex mutex;
  std::size_t addresses GUARDED_BY(mutex) = 0;
  std::size_t max_shard_addresses GUARDED_BY(mutex) = 0;
  std::size_t edges GUARDED_BY(mutex) = 0;
};

}  // namespace

AddressConflictGraph AddressConflictGraph::BuildSharded(
    std::span<const ReadWriteSet> rwsets, ThreadPool& pool,
    std::size_t num_shards) {
  if (num_shards == 0) num_shards = pool.size();
  if (num_shards <= 1 || pool.size() <= 1 ||
      rwsets.size() < kShardedBuildMinTxs) {
    // Serial fallback is one shard; keep the gauge honest for this build.
    if (obs::MetricsEnabled()) {
      obs::Registry().GetGauge("nezha_parallel_acg_shards")->Set(1);
    }
    return Build(rwsets);
  }
  const std::size_t shards = num_shards;
  const std::size_t max_chunks = pool.size();
  const auto shard_of = [shards](std::uint64_t a) {
    return static_cast<std::size_t>(MixAddress(a) % shards);
  };

  // ---- Scatter: chunk the batch across workers; each chunk splits its
  // read/write units per target shard, in transaction order.
  std::vector<std::vector<std::vector<Unit>>> read_parts(max_chunks);
  std::vector<std::vector<std::vector<Unit>>> write_parts(max_chunks);
  for (std::size_t c = 0; c < max_chunks; ++c) {
    read_parts[c].resize(shards);
    write_parts[c].resize(shards);
  }
  pool.ParallelForChunked(
      0, rwsets.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t slot) {
        for (TxIndex t = static_cast<TxIndex>(lo); t < hi; ++t) {
          const ReadWriteSet& rw = rwsets[t];
          if (!rw.ok) continue;
          for (Address a : rw.reads) {
            read_parts[slot][shard_of(a.value)].push_back({a.value, t});
          }
          for (Address a : rw.writes) {
            write_parts[slot][shard_of(a.value)].push_back({a.value, t});
          }
        }
      });

  // ---- Per-shard merge: each shard dedups its own address set. A shard
  // owns every entry of its addresses, so the workers never share a write
  // target; only the observability totals are shared (locked).
  ShardMergeState merge;
  std::vector<std::vector<std::uint64_t>> shard_addrs(shards);
  pool.ParallelFor(0, shards, [&](std::size_t s) {
    std::vector<std::uint64_t>& addrs = shard_addrs[s];
    for (std::size_t c = 0; c < max_chunks; ++c) {
      for (const Unit& u : read_parts[c][s]) addrs.push_back(u.address);
      for (const Unit& u : write_parts[c][s]) addrs.push_back(u.address);
    }
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    MutexLock lock(merge.mutex);
    merge.addresses += addrs.size();
    merge.max_shard_addresses = std::max(merge.max_shard_addresses,
                                         addrs.size());
  });

  // ---- Global subscripts: k-way merge of the per-shard sorted address
  // lists into ascending address order — identical to Build()'s sort.
  AddressConflictGraph acg;
  acg.shards_ = shards;
  {
    std::size_t total = 0;
    for (const auto& addrs : shard_addrs) total += addrs.size();
    acg.entries_.reserve(total);
    acg.index_.reserve(total);
    std::vector<std::size_t> heads(shards, 0);
    for (;;) {
      std::size_t best = shards;
      for (std::size_t s = 0; s < shards; ++s) {
        if (heads[s] == shard_addrs[s].size()) continue;
        if (best == shards ||
            shard_addrs[s][heads[s]] < shard_addrs[best][heads[best]]) {
          best = s;
        }
      }
      if (best == shards) break;
      const std::uint64_t a = shard_addrs[best][heads[best]++];
      acg.index_.emplace(a, acg.entries_.size());
      acg.entries_.push_back(AddressRWSet{Address(a), {}, {}});
    }
  }

  // ---- Per-shard RW-set fill: chunk order == ascending TxIndex order, so
  // the lists come out sorted exactly as Build()'s pass 2 leaves them.
  pool.ParallelFor(0, shards, [&](std::size_t s) {
    for (std::size_t c = 0; c < max_chunks; ++c) {
      for (const Unit& u : read_parts[c][s]) {
        acg.entries_[acg.index_.find(u.address)->second].readers.push_back(
            u.tx);
      }
      for (const Unit& u : write_parts[c][s]) {
        acg.entries_[acg.index_.find(u.address)->second].writers.push_back(
            u.tx);
      }
    }
  });

  // ---- Edges, scattered by source-vertex shard then deduplicated per
  // shard: every (write-address -> read-address) pair of every transaction,
  // packed as (wi << 32) | ri like Digraph's own dedup keys.
  std::vector<std::vector<std::vector<std::uint64_t>>> edge_parts(max_chunks);
  for (std::size_t c = 0; c < max_chunks; ++c) edge_parts[c].resize(shards);
  pool.ParallelForChunked(
      0, rwsets.size(),
      [&](std::size_t lo, std::size_t hi, std::size_t slot) {
        for (TxIndex t = static_cast<TxIndex>(lo); t < hi; ++t) {
          const ReadWriteSet& rw = rwsets[t];
          if (!rw.ok) continue;
          for (Address w : rw.writes) {
            const auto wi = static_cast<std::uint64_t>(
                acg.index_.find(w.value)->second);
            const std::size_t s = shard_of(w.value);
            for (Address r : rw.reads) {
              if (r == w) continue;
              const auto ri = static_cast<std::uint64_t>(
                  acg.index_.find(r.value)->second);
              edge_parts[slot][s].push_back((wi << 32) | ri);
            }
          }
        }
      });
  std::vector<std::vector<std::uint64_t>> shard_edges(shards);
  pool.ParallelFor(0, shards, [&](std::size_t s) {
    std::vector<std::uint64_t>& edges = shard_edges[s];
    for (std::size_t c = 0; c < max_chunks; ++c) {
      edges.insert(edges.end(), edge_parts[c][s].begin(),
                   edge_parts[c][s].end());
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    MutexLock lock(merge.mutex);
    merge.edges += edges.size();
  });

  // ---- Assembly: per-shard edge lists are already unique, and a source
  // vertex lives in exactly one shard, so plain AddEdge reproduces the
  // deduplicated edge set without re-probing a hash set.
  acg.dependencies_ = std::make_unique<Digraph>(acg.entries_.size());
  for (const auto& edges : shard_edges) {
    for (const std::uint64_t key : edges) {
      acg.dependencies_->AddEdge(static_cast<Digraph::Vertex>(key >> 32),
                                 static_cast<Digraph::Vertex>(key & 0xffffffff));
    }
  }

  if (obs::MetricsEnabled()) {
    auto& registry = obs::Registry();
    registry.GetCounter("nezha_parallel_acg_builds_total")->Inc();
    MutexLock lock(merge.mutex);
    registry.GetGauge("nezha_parallel_acg_shards")
        ->Set(static_cast<std::int64_t>(shards));
    registry.GetGauge("nezha_parallel_acg_max_shard_addresses")
        ->Set(static_cast<std::int64_t>(merge.max_shard_addresses));
  }
  return acg;
}

std::string AddressConflictGraph::CanonicalEncoding() const {
  std::string out;
  out.reserve(48 * entries_.size() + 16 * NumEdges() + 32);
  out += "acg v=";
  AppendU64(out, entries_.size());
  out += " e=";
  AppendU64(out, NumEdges());
  out += "\n";
  const auto append_list = [&out](const std::vector<TxIndex>& txs) {
    for (std::size_t i = 0; i < txs.size(); ++i) {
      if (i != 0) out += ',';
      AppendU64(out, txs[i]);
    }
  };
  for (std::size_t v = 0; v < entries_.size(); ++v) {
    const AddressRWSet& entry = entries_[v];
    out += "v ";
    AppendU64(out, v);
    out += " a=";
    AppendU64(out, entry.address.value);
    out += " r=";
    append_list(entry.readers);
    out += " w=";
    append_list(entry.writers);
    out += "\n";
  }
  // Edges with neighbors sorted per source: Build (insertion-ordered
  // adjacency) and BuildSharded (sorted adjacency) carry the same edge set
  // in different internal orders; the canonical form must not see that.
  std::vector<Digraph::Vertex> neighbors;
  for (std::size_t u = 0; u < entries_.size(); ++u) {
    const auto out_edges =
        dependencies_->OutNeighbors(static_cast<Digraph::Vertex>(u));
    neighbors.assign(out_edges.begin(), out_edges.end());
    std::sort(neighbors.begin(), neighbors.end());
    for (const Digraph::Vertex v : neighbors) {
      out += "e ";
      AppendU64(out, u);
      out += '>';
      AppendU64(out, v);
      out += "\n";
    }
  }
  return out;
}

}  // namespace nezha
