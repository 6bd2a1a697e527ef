#include "analysis/schedule_verifier.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "graph/digraph.h"
#include "graph/tarjan.h"
#include "vm/logged_state.h"

namespace nezha::analysis {
namespace {

/// Readers/writers of one address, committed transactions only.
struct AddressAccess {
  std::vector<TxIndex> readers;
  std::vector<TxIndex> writers;
};

std::string TxName(TxIndex t) { return "T" + std::to_string(t); }

Counterexample Pair(ViolationKind kind, TxIndex a, TxIndex b, Address addr,
                    std::string detail) {
  Counterexample c;
  c.kind = kind;
  c.txs = {a, b};
  c.addresses = {addr};
  c.detail = std::move(detail);
  return c;
}

Counterexample Malformed(std::string detail) {
  Counterexample c;
  c.kind = ViolationKind::kMalformedSchedule;
  c.detail = std::move(detail);
  return c;
}

Counterexample ReplayDivergence(std::vector<TxIndex> txs,
                                std::vector<Address> addresses,
                                std::string detail) {
  Counterexample c;
  c.kind = ViolationKind::kReplayDivergence;
  c.txs = std::move(txs);
  c.addresses = std::move(addresses);
  c.detail = std::move(detail);
  return c;
}

/// Walks one size>1 SCC and returns an explicit directed cycle inside it
/// (vertices in edge order; the edge from back() to front() closes it).
std::vector<Digraph::Vertex> ExtractCycle(
    const Digraph& g, const std::vector<Digraph::Vertex>& scc) {
  std::vector<bool> in_scc(g.NumVertices(), false);
  for (Digraph::Vertex v : scc) in_scc[v] = true;

  // Follow arbitrary in-SCC successors until a vertex repeats; every vertex
  // of a strongly connected subgraph has such a successor, so the walk
  // closes in at most |scc| steps.
  std::vector<int> pos_on_path(g.NumVertices(), -1);
  std::vector<Digraph::Vertex> path;
  Digraph::Vertex v = scc[0];
  for (;;) {
    if (pos_on_path[v] >= 0) {
      return {path.begin() + pos_on_path[v], path.end()};
    }
    pos_on_path[v] = static_cast<int>(path.size());
    path.push_back(v);
    for (Digraph::Vertex w : g.OutNeighbors(v)) {
      if (in_scc[w]) {
        v = w;
        break;
      }
    }
  }
}

}  // namespace

const char* ViolationKindName(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kNone:
      return "none";
    case ViolationKind::kMalformedSchedule:
      return "malformed-schedule";
    case ViolationKind::kAbortedInOrder:
      return "aborted-in-order";
    case ViolationKind::kPrecedenceCycle:
      return "precedence-cycle";
    case ViolationKind::kReadAfterWrite:
      return "read-after-write";
    case ViolationKind::kWriterSeqCollision:
      return "writer-seq-collision";
    case ViolationKind::kReorderViolation:
      return "reorder-violation";
    case ViolationKind::kWitnessBroken:
      return "witness-broken";
    case ViolationKind::kReplayDivergence:
      return "replay-divergence";
  }
  return "?";
}

std::string Counterexample::ToString() const {
  std::string out = ViolationKindName(kind);
  if (kind == ViolationKind::kPrecedenceCycle && !txs.empty()) {
    out += ": ";
    for (std::size_t i = 0; i < txs.size(); ++i) {
      const Address via =
          i < addresses.size() ? addresses[i] : Address(0);
      out += TxName(txs[i]) + " -[" + nezha::ToString(via) + "]-> ";
    }
    out += TxName(txs[0]);
  }
  if (!detail.empty()) {
    out += out.empty() ? detail : (": " + detail);
  }
  return out;
}

VerifyReport VerifySchedule(const Schedule& schedule,
                            std::span<const ReadWriteSet> rwsets,
                            const VerifierOptions& options) {
  const std::size_t n = rwsets.size();

  // ---- Shape: sequence/aborted/groups must agree with each other and with
  // the rwsets that produced them. ----
  if (schedule.sequence.size() != n || schedule.aborted.size() != n) {
    return VerifyReport::Failure(Malformed(
        "schedule covers " + std::to_string(schedule.sequence.size()) + "/" +
        std::to_string(schedule.aborted.size()) + " txs, batch has " +
        std::to_string(n)));
  }
  for (TxIndex t = 0; t < n; ++t) {
    if (schedule.aborted[t]) {
      if (schedule.sequence[t] != kUnassignedSeq) {
        Counterexample c;
        c.kind = ViolationKind::kAbortedInOrder;
        c.txs = {t};
        c.detail = TxName(t) + " is aborted but carries sequence number " +
                   std::to_string(schedule.sequence[t]);
        return VerifyReport::Failure(std::move(c));
      }
    } else {
      if (!rwsets[t].ok) {
        Counterexample c;
        c.kind = ViolationKind::kAbortedInOrder;
        c.txs = {t};
        c.detail = TxName(t) + " reverted at the application level but is "
                              "not marked aborted";
        return VerifyReport::Failure(std::move(c));
      }
      if (schedule.sequence[t] == kUnassignedSeq) {
        return VerifyReport::Failure(Malformed(
            TxName(t) + " is committed but has no sequence number"));
      }
    }
  }

  // Groups must be exactly the committed txs bucketed by sequence number,
  // ascending, with ascending member indices.
  {
    std::size_t grouped = 0;
    SeqNum prev_seq = 0;
    std::vector<bool> seen(n, false);
    for (const auto& group : schedule.groups) {
      if (group.empty()) {
        return VerifyReport::Failure(Malformed("empty commit group"));
      }
      const SeqNum seq = schedule.sequence[group[0]];
      if (seq <= prev_seq) {
        return VerifyReport::Failure(Malformed(
            "commit groups out of ascending sequence order at seq " +
            std::to_string(seq)));
      }
      prev_seq = seq;
      TxIndex prev_tx = 0;
      bool first = true;
      for (TxIndex t : group) {
        if (t >= n || seen[t]) {
          return VerifyReport::Failure(
              Malformed(TxName(t) + " out of range or in two groups"));
        }
        seen[t] = true;
        ++grouped;
        if (schedule.aborted[t]) {
          Counterexample c;
          c.kind = ViolationKind::kAbortedInOrder;
          c.txs = {t};
          c.detail = TxName(t) + " is aborted but appears in a commit group";
          return VerifyReport::Failure(std::move(c));
        }
        if (schedule.sequence[t] != seq) {
          return VerifyReport::Failure(Malformed(
              TxName(t) + " has seq " + std::to_string(schedule.sequence[t]) +
              " inside the seq-" + std::to_string(seq) + " group"));
        }
        if (!first && t <= prev_tx) {
          return VerifyReport::Failure(Malformed(
              "group members out of ascending index order at " + TxName(t)));
        }
        prev_tx = t;
        first = false;
      }
    }
    std::size_t committed = 0;
    for (TxIndex t = 0; t < n; ++t) committed += schedule.aborted[t] ? 0 : 1;
    if (grouped != committed) {
      return VerifyReport::Failure(Malformed(
          std::to_string(committed) + " committed txs but " +
          std::to_string(grouped) + " grouped"));
    }
  }

  // ---- Per-address access lists over committed transactions (our own
  // derivation straight from the rwsets — deliberately NOT the ACG's). ----
  std::unordered_map<Address, AddressAccess> accesses;
  for (TxIndex t = 0; t < n; ++t) {
    if (schedule.aborted[t]) continue;
    for (const Address a : rwsets[t].reads) accesses[a].readers.push_back(t);
    for (const Address a : rwsets[t].writes) accesses[a].writers.push_back(t);
  }
  // Iterate the map in ascending address order everywhere below. The map
  // itself is unordered, and which address we visit first decides (a) edge
  // insertion order in the precedence graph — and with it which explicit
  // cycle ExtractCycle walks — and (b) which pairwise violation becomes THE
  // counterexample. Verifier output must not depend on hash-table layout.
  std::vector<Address> sorted_addresses;
  sorted_addresses.reserve(accesses.size());
  for (const auto& [addr, access] : accesses) sorted_addresses.push_back(addr);
  std::sort(sorted_addresses.begin(), sorted_addresses.end());

  if (!options.snapshot_semantics) {
    // Evolving-state execution: each transaction sees all earlier effects,
    // so any total order IS a serial execution. Distinct sequence numbers
    // for conflicting transactions are still required (equal numbers commit
    // concurrently).
    for (const Address addr : sorted_addresses) {
      AddressAccess& access = accesses[addr];
      auto& writers = access.writers;
      std::sort(writers.begin(), writers.end(),
                [&](TxIndex x, TxIndex y) {
                  return schedule.sequence[x] < schedule.sequence[y];
                });
      for (std::size_t i = 1; i < writers.size(); ++i) {
        if (schedule.sequence[writers[i - 1]] ==
            schedule.sequence[writers[i]]) {
          return VerifyReport::Failure(Pair(
              ViolationKind::kWriterSeqCollision, writers[i - 1], writers[i],
              addr,
              TxName(writers[i - 1]) + " and " + TxName(writers[i]) +
                  " both write " + nezha::ToString(addr) +
                  " at sequence number " +
                  std::to_string(schedule.sequence[writers[i]])));
        }
      }
    }
    VerifyReport report;
    report.graph_vertices = schedule.NumCommitted();
    for (const auto& group : schedule.groups) {
      for (TxIndex t : group) report.witness.push_back(t);
    }
    return report;
  }

  // ---- Precedence graph over committed transactions, checked FIRST: an
  // inherent cycle (no serial order exists at all) is the strongest
  // counterexample, so it takes precedence over the pairwise sequence-number
  // invariants below. Note the r->w edges do not depend on the sequence
  // numbers at all — only the w->w chains do. ----
  std::vector<Digraph::Vertex> to_dense(n, 0);
  std::vector<TxIndex> to_tx;
  for (TxIndex t = 0; t < n; ++t) {
    if (schedule.aborted[t]) continue;
    to_dense[t] = static_cast<Digraph::Vertex>(to_tx.size());
    to_tx.push_back(t);
  }
  Digraph graph(to_tx.size());
  for (const Address addr : sorted_addresses) {
    AddressAccess& access = accesses[addr];
    std::sort(access.writers.begin(), access.writers.end(),
              [&](TxIndex x, TxIndex y) {
                return schedule.sequence[x] != schedule.sequence[y]
                           ? schedule.sequence[x] < schedule.sequence[y]
                           : x < y;
              });
    for (const TxIndex r : access.readers) {
      for (const TxIndex w : access.writers) {
        if (r == w) continue;
        graph.AddEdge(to_dense[r], to_dense[w], /*deduplicate=*/true);
      }
    }
    // Chain the writers in ascending (sequence, index) order.
    for (std::size_t i = 1; i < access.writers.size(); ++i) {
      graph.AddEdge(to_dense[access.writers[i - 1]],
                    to_dense[access.writers[i]], /*deduplicate=*/true);
    }
  }

  // Tarjan SCC proves acyclicity; any component of size > 1 contains an
  // explicit cycle we hand back as the counterexample.
  for (const auto& scc : TarjanSCC(graph)) {
    if (scc.size() <= 1) continue;
    const std::vector<Digraph::Vertex> cycle = ExtractCycle(graph, scc);
    Counterexample c;
    c.kind = ViolationKind::kPrecedenceCycle;
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const TxIndex u = to_tx[cycle[i]];
      const TxIndex v = to_tx[cycle[(i + 1) % cycle.size()]];
      c.txs.push_back(u);
      // Find one address inducing u -> v: u reads/writes something v writes.
      Address via(0);
      for (const Address a : rwsets[v].writes) {
        if (rwsets[u].ReadsAddress(a) || rwsets[u].WritesAddress(a)) {
          via = a;
          break;
        }
      }
      c.addresses.push_back(via);
    }
    c.detail = "cycle through " + std::to_string(cycle.size()) +
               " transactions; no serial order can satisfy all edges";
    return VerifyReport::Failure(std::move(c));
  }

  // ---- Pairwise sequence-number invariants, per address. ----
  for (const Address addr : sorted_addresses) {
    const AddressAccess& access = accesses[addr];
    // Reads-before-writes: every committed reader strictly precedes every
    // committed writer (a read sequenced later would have observed the
    // write, but it read the pre-epoch snapshot). A read-modify-write
    // transaction is exempt from comparing against itself.
    for (const TxIndex w : access.writers) {
      for (const TxIndex r : access.readers) {
        if (r == w) continue;
        if (schedule.sequence[w] <= schedule.sequence[r]) {
          return VerifyReport::Failure(Pair(
              ViolationKind::kReadAfterWrite, r, w, addr,
              TxName(r) + " reads " + nezha::ToString(addr) +
                  " at seq " + std::to_string(schedule.sequence[r]) +
                  " but " + TxName(w) + " writes it at seq " +
                  std::to_string(schedule.sequence[w])));
        }
      }
    }

    // Writer uniqueness: equal sequence numbers commit concurrently, so two
    // writers of one address sharing a number is a write/write race. The
    // writers are already in (sequence, index) order.
    for (std::size_t i = 1; i < access.writers.size(); ++i) {
      if (schedule.sequence[access.writers[i - 1]] ==
          schedule.sequence[access.writers[i]]) {
        return VerifyReport::Failure(Pair(
            ViolationKind::kWriterSeqCollision, access.writers[i - 1],
            access.writers[i], addr,
            TxName(access.writers[i - 1]) + " and " +
                TxName(access.writers[i]) + " both write " +
                nezha::ToString(addr) + " at sequence number " +
                std::to_string(schedule.sequence[access.writers[i]])));
      }
    }
  }

  // ---- §IV.D reorder landing rule: a re-seated transaction must be
  // committed and sit strictly above every other committed reader of each
  // address it writes (the post-hoc form of "max(seq)+1 at raise time";
  // later writers may legally land even higher). ----
  for (const TxIndex t : options.reordered) {
    if (t >= n) {
      return VerifyReport::Failure(
          Malformed("reordered tx " + TxName(t) + " out of range"));
    }
    if (schedule.aborted[t]) {
      Counterexample c;
      c.kind = ViolationKind::kReorderViolation;
      c.txs = {t};
      c.detail = TxName(t) + " was reordered and then aborted";
      return VerifyReport::Failure(std::move(c));
    }
    for (const Address a : rwsets[t].writes) {
      const auto it = accesses.find(a);
      if (it == accesses.end()) continue;
      for (const TxIndex r : it->second.readers) {
        if (r == t) continue;
        if (schedule.sequence[t] <= schedule.sequence[r]) {
          return VerifyReport::Failure(Pair(
              ViolationKind::kReorderViolation, t, r, a,
              "reordered " + TxName(t) + " landed at seq " +
                  std::to_string(schedule.sequence[t]) +
                  ", not above reader " + TxName(r) + " (seq " +
                  std::to_string(schedule.sequence[r]) + ") of " +
                  nezha::ToString(a)));
        }
      }
    }
  }

  // ---- Witness: committed transactions in (sequence, index) order, with a
  // direct proof that every precedence edge goes forward in it. ----
  VerifyReport report;
  report.graph_vertices = graph.NumVertices();
  report.graph_edges = graph.NumEdges();
  report.witness.reserve(to_tx.size());
  for (const auto& group : schedule.groups) {
    for (TxIndex t : group) report.witness.push_back(t);
  }
  std::vector<std::size_t> witness_pos(n, 0);
  for (std::size_t i = 0; i < report.witness.size(); ++i) {
    witness_pos[report.witness[i]] = i;
  }
  for (Digraph::Vertex u = 0; u < graph.NumVertices(); ++u) {
    for (const Digraph::Vertex v : graph.OutNeighbors(u)) {
      if (witness_pos[to_tx[u]] >= witness_pos[to_tx[v]]) {
        return VerifyReport::Failure(Pair(
            ViolationKind::kWitnessBroken, to_tx[u], to_tx[v], Address(0),
            "edge " + TxName(to_tx[u]) + " -> " + TxName(to_tx[v]) +
                " goes backward in the (sequence, index) witness order"));
      }
    }
  }
  return report;
}

VerifyReport VerifyByReplay(const StateSnapshot& snapshot,
                            std::span<const Transaction> txs,
                            const Schedule& schedule,
                            std::span<const ReadWriteSet> rwsets,
                            ExecMode mode) {
  const std::size_t n = txs.size();
  if (rwsets.size() != n || schedule.sequence.size() != n ||
      schedule.aborted.size() != n) {
    return VerifyReport::Failure(Malformed(
        std::to_string(n) + " txs, " + std::to_string(rwsets.size()) +
        " rwsets, schedule covers " +
        std::to_string(schedule.sequence.size()) + "/" +
        std::to_string(schedule.aborted.size())));
  }

  // Serial order: committed transactions in ascending (sequence, index).
  VerifyReport report;
  for (TxIndex t = 0; t < n; ++t) {
    if (!schedule.aborted[t]) report.witness.push_back(t);
  }
  std::sort(report.witness.begin(), report.witness.end(),
            [&](TxIndex a, TxIndex b) {
              return schedule.sequence[a] != schedule.sequence[b]
                         ? schedule.sequence[a] < schedule.sequence[b]
                         : a < b;
            });
  report.graph_vertices = report.witness.size();

  // What the schedule commits: the recorded snapshot-based writes applied
  // in serial order (a later sequence overwrites an earlier one), keyed in
  // ascending address order so the first divergence reported is the
  // lowest address.
  std::map<std::uint64_t, StateValue> expected;
  for (const TxIndex t : report.witness) {
    const ReadWriteSet& rw = rwsets[t];
    for (std::size_t i = 0; i < rw.writes.size(); ++i) {
      expected[rw.writes[i].value] = rw.write_values[i];
    }
  }

  // Replay: each transaction re-executes against the evolving state.
  LoggedStateView::Overlay replayed;
  for (const TxIndex t : report.witness) {
    LoggedStateView view(snapshot, &replayed);
    if (Status s = ExecuteTransaction(txs[t], view, mode); !s.ok()) {
      return VerifyReport::Failure(ReplayDivergence(
          {t}, {}, TxName(t) + " failed in serial replay: " + s.ToString()));
    }
    ReadWriteSet rw = view.TakeRWSet();
    if (!rw.ok) {
      // A committed transaction must not revert when replayed serially:
      // the schedule guarantees its reads see the very snapshot values it
      // was simulated against.
      return VerifyReport::Failure(ReplayDivergence(
          {t}, {},
          "committed " + TxName(t) + " (seq " +
              std::to_string(schedule.sequence[t]) +
              ") reverted in serial replay"));
    }
    for (std::size_t i = 0; i < rw.writes.size(); ++i) {
      replayed[rw.writes[i].value] = rw.write_values[i];
    }
  }

  if (replayed.size() != expected.size()) {
    return VerifyReport::Failure(ReplayDivergence(
        {}, {},
        "serial replay wrote " + std::to_string(replayed.size()) +
            " addresses, the schedule " + std::to_string(expected.size())));
  }
  for (const auto& [addr, value] : expected) {
    const auto it = replayed.find(addr);
    if (it == replayed.end()) {
      return VerifyReport::Failure(ReplayDivergence(
          {}, {Address(addr)},
          "serial replay never wrote " + nezha::ToString(Address(addr))));
    }
    if (it->second != value) {
      return VerifyReport::Failure(ReplayDivergence(
          {}, {Address(addr)},
          "replay divergence at " + nezha::ToString(Address(addr)) +
              ": serial " + std::to_string(it->second) + " vs scheduled " +
              std::to_string(value)));
    }
  }
  return report;
}

}  // namespace nezha::analysis
