// Closed-loop epoch benchmark over FullNode (scheme nezha, KVStore attached).
//
// One client — the confirmed-epoch feed — hands epoch e+1 to the node only
// after ProcessEpoch(e) has returned, so the rate the loop reaches is the
// node's drain rate and each epoch's latency is its service time. An epoch's
// clock starts when the payload is handed to ledger().BuildBlock and stops
// when ProcessEpoch returns: block build, append, seal, execution,
// concurrency control, state root and the durable commit all count.
//
// The traced pass replays the same epochs through the layers' public
// functions, in FullNode::PrepareEpoch / CommitPrepared order, and times each
// call from here; nothing under src/ is instrumented for it. README.md maps
// each span to the end-to-end metric it should move.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha256.h"
#include "common/status.h"
#include "ledger/transaction.h"
#include "node/receipts.h"
#include "storage/state_db.h"

namespace epoch_bench {

using nezha::Hash256;
using nezha::Transaction;

inline constexpr std::size_t kBlocksPerEpoch = 8;   ///< ω
inline constexpr std::size_t kTxsPerBlock = 200;    ///< paper block size

struct WorkloadSpec {
  std::string name;
  bool mixed = false;           ///< MixedWorkload (KV + token) vs SmallBank
  std::uint64_t entities = 0;   ///< accounts, or KV keys = token holders
  double skew = 0;              ///< Zipf coefficient
  nezha::StateValue initial_balance = 0;
  std::size_t epochs = 0;       ///< epochs per pass (fixed: state grows)
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Confirmed payload of one epoch: kBlocksPerEpoch chains of transactions.
using EpochPayload = std::vector<std::vector<Transaction>>;

/// Every epoch's payload for a pass, a pure function of (spec, seed).
std::vector<EpochPayload> GenerateEpochs(const WorkloadSpec& spec,
                                         std::uint64_t seed);

/// Genesis funding: the same cells in the node and in the replay reference.
void FundGenesis(const WorkloadSpec& spec, nezha::StateDB& state);

/// What one epoch committed to, as the node reported it.
struct EpochOutcome {
  Hash256 state_root{};
  Hash256 receipt_root{};
  std::size_t txs = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;

  friend bool operator==(const EpochOutcome&, const EpochOutcome&) = default;
};

/// One untraced pass of the closed loop through FullNode.
struct PassResult {
  double setup_s = 0;                  ///< generation + node + genesis
  std::vector<double> epoch_ms;        ///< per-epoch service time
  double loop_s = 0;                   ///< wall time of the timed loop
  std::vector<EpochOutcome> outcomes;
  /// Batch-order transactions and their receipts as read back from
  /// node.receipts() after the loop (kept only when requested).
  std::vector<std::vector<Transaction>> txs;
  std::vector<std::vector<nezha::Receipt>> receipts;
};

/// Times one set-up alone (seconds): epoch generation, node construction,
/// funding, genesis flush and root.
nezha::Result<double> MeasureSetup(const WorkloadSpec& spec,
                                   std::uint64_t seed);

/// Runs set-up plus `epochs` epochs (0 = spec.epochs) through a fresh
/// FullNode. `keep_receipts` reads every receipt back for ReplayVerify.
nezha::Result<PassResult> RunPass(const WorkloadSpec& spec, std::uint64_t seed,
                                  std::size_t epochs, bool keep_receipts);

/// Re-executes every transaction whose receipt is kCommitted, in
/// (seq, batch index) order, through the vm contract entry points against
/// an independent StateDB seeded with the genesis state, and requires each
/// epoch's root to equal the node's. Returns a description of the first
/// mismatch, or an empty string.
std::string ReplayVerify(const WorkloadSpec& spec, const PassResult& pass);

/// One timed call inside a traced epoch.
struct Span {
  std::uint32_t epoch = 0;
  std::string_view name;  ///< static string: the metric it feeds
  double start_us = 0;
  double end_us = 0;
  double Ms() const { return (end_us - start_us) / 1000.0; }
};

/// Per-epoch facts of the traced pass (counts come from return values).
struct TracedEpoch {
  EpochOutcome outcome;
  double start_us = 0;
  double end_us = 0;
  double cpu_ms = 0;            ///< process CPU inside the epoch (getrusage)
  double spans_ms = 0;          ///< Σ this epoch's layer spans
  /// Duration per span name: the layer spans, plus the cc.acg / cc.rank /
  /// cc.sort stage calls re-run on the same rwsets outside the epoch wall.
  std::map<std::string_view, double> span_ms;
  double WallMs() const { return (end_us - start_us) / 1000.0; }
  double UnattributedMs() const { return WallMs() - spans_ms; }

  std::size_t dirty_cells = 0;
  std::size_t commit_bytes = 0;  ///< commit batch + journal bytes
  std::size_t rw_units = 0;
  std::size_t reverted = 0;
  std::size_t cc_aborted = 0;    ///< schedule aborts that were not reverts
  std::size_t acg_vertices = 0, acg_edges = 0;
  std::uint64_t rank_cycle_breaks = 0;
  std::uint64_t reorder_attempts = 0, reorder_commits = 0;
  std::size_t groups = 0, max_group = 0;
};

struct TracedPass {
  std::vector<TracedEpoch> epochs;
  std::vector<Span> spans;  ///< layer spans, then stage-replay spans
  std::size_t pool_workers = 0;
};

/// Replays the epochs of (spec, seed) through the layers' public functions
/// in FullNode's order, one span per call.
nezha::Result<TracedPass> RunTracedPass(const WorkloadSpec& spec,
                                        std::uint64_t seed,
                                        std::size_t epochs);

/// Per-epoch service time of the same epochs through FullNode with the
/// Serial scheme (the Nezha/Serial denominator).
nezha::Result<std::vector<double>> RunSerialReference(const WorkloadSpec& spec,
                                                      std::uint64_t seed,
                                                      std::size_t epochs);

/// Names of the spans that make up a traced epoch's wall, in call order.
const std::vector<std::string_view>& LayerSpanNames();

/// Writes the spans as Chrome trace JSON (chrome://tracing, Perfetto).
nezha::Status WriteChromeTrace(const std::string& path,
                               const TracedPass& pass);

}  // namespace epoch_bench
