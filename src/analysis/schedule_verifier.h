// Serializability oracle — an independent checker for any Schedule
// (docs/ANALYSIS.md).
//
// The schedulers under src/cc each argue their own way that the commit order
// they emit is conflict-serializable: Nezha by hierarchical sorting
// (PAPER.md Algorithms 1-2), CG by cycle removal, OCC by validation. This
// verifier trusts none of those arguments. Given only the schedule and the
// transactions' read/write sets, it rebuilds the transaction-level
// precedence graph from first principles — NOT the paper's address-based
// ACG; the edges here are derived per conflicting transaction pair:
//   * r->w: a committed reader of an address precedes every committed
//     writer of it (the reader observed the pre-epoch snapshot);
//   * w->w: committed writers of an address, in ascending sequence order
//     (the commit phase applies writes in that order, so any equivalent
//     serial execution must too).
// Acyclicity is proven with Tarjan SCC from src/graph, and the verifier
// exhibits an explicit equivalent serial order (the witness) plus a direct
// proof that every precedence edge goes forward in it. On violation it
// reports a minimal counterexample: the offending cycle and the
// transactions/addresses on it, or the invariant-breaking pair.
//
// Nezha-specific schedule invariants are checked on top of the graph:
//   * reads-before-writes per address (strictly smaller sequence numbers);
//   * per-address writer sequence uniqueness (equal numbers commit
//     concurrently — a write/write race);
//   * §IV.D reordered transactions committed and landing strictly above
//     every committed reader of each address they write;
//   * aborted transactions absent from the commit order;
//   * groups exactly mirroring (sequence, aborted).
//
// VerifyByReplay is the end-to-end mode: it re-executes the committed
// transactions' code one by one, in (sequence, index) order, against an
// evolving state, and checks that the result is exactly the state the
// schedule's recorded write sets produce.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "cc/scheduler.h"
#include "common/types.h"
#include "ledger/transaction.h"
#include "storage/state_db.h"
#include "vm/executor.h"
#include "vm/rwset.h"

namespace nezha::analysis {

enum class ViolationKind {
  kNone = 0,
  kMalformedSchedule,   ///< sequence/aborted/groups shape inconsistency
  kAbortedInOrder,      ///< aborted tx carries a sequence number / sits in a group
  kPrecedenceCycle,     ///< precedence graph has a directed cycle
  kReadAfterWrite,      ///< committed reader sequenced at/after a writer
  kWriterSeqCollision,  ///< two committed writers of one address share a seq
  kReorderViolation,    ///< §IV.D reordered tx broke the landing rule
  kWitnessBroken,       ///< an edge goes backward in the witness order
  kReplayDivergence,    ///< serial re-execution disagrees with the schedule
};

const char* ViolationKindName(ViolationKind kind);

/// The minimal evidence of a violation: for a cycle, the transactions along
/// it (in edge order, txs.front() == txs.back() conceptually closed) and one
/// address per edge inducing it; for pairwise violations, the two
/// transactions and the address they clash on.
struct Counterexample {
  ViolationKind kind = ViolationKind::kNone;
  std::vector<TxIndex> txs;
  std::vector<Address> addresses;
  std::string detail;  ///< one-line human-readable diagnosis

  std::string ToString() const;
};

struct VerifierOptions {
  /// True for snapshot-speculation schedulers (nezha/occ/cg): every read
  /// observed the pre-epoch snapshot, so the full precedence-graph oracle
  /// applies. False for evolving-state execution (serial): any total order
  /// with distinct sequence numbers IS a serial execution, so only the
  /// shape invariants are checked.
  bool snapshot_semantics = true;
  /// Transactions the scheduler re-seated via the §IV.D reordering
  /// enhancement (Schedule::reordered); checked against the landing rule.
  std::span<const TxIndex> reordered = {};
};

struct VerifyReport {
  bool ok = true;
  Counterexample counterexample;  ///< kind == kNone when ok
  /// The equivalent serial order over committed transactions — the witness
  /// that the schedule is serializable. Every precedence edge has been
  /// checked to go forward in it.
  std::vector<TxIndex> witness;
  std::size_t graph_vertices = 0;  ///< committed transactions
  std::size_t graph_edges = 0;     ///< derived precedence edges

  static VerifyReport Failure(Counterexample c) {
    VerifyReport r;
    r.ok = false;
    r.counterexample = std::move(c);
    return r;
  }
};

/// Verifies one schedule against the read/write sets that produced it.
/// Runs in O(V + E + sum of rwset sizes) after the per-address bucketing.
VerifyReport VerifySchedule(const Schedule& schedule,
                            std::span<const ReadWriteSet> rwsets,
                            const VerifierOptions& options = {});

/// Replay mode: executes the committed transactions serially, in
/// (sequence, index) order, against `snapshot` plus an overlay of every
/// earlier replayed write, and compares the final overlay with the state
/// the recorded write sets produce — same addresses, same values, compared
/// in ascending address order. A replay that fails, reverts, or lands
/// anywhere else is kReplayDivergence; the witness is the replay order.
VerifyReport VerifyByReplay(const StateSnapshot& snapshot,
                            std::span<const Transaction> txs,
                            const Schedule& schedule,
                            std::span<const ReadWriteSet> rwsets,
                            ExecMode mode = ExecMode::kNative);

}  // namespace nezha::analysis
