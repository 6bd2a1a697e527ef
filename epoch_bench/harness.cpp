#include "epoch_bench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>

#include "cc/nezha/acg.h"
#include "cc/nezha/parallel_executor.h"
#include "cc/nezha/rank_division.h"
#include "cc/nezha/tx_sorter.h"
#include "common/thread_pool.h"
#include "ledger/ledger.h"
#include "node/commit_journal.h"
#include "node/full_node.h"
#include "runtime/concurrent_executor.h"
#include "storage/kvstore.h"
#include "vm/contract.h"
#include "vm/logged_state.h"
#include "workload/mixed_workload.h"
#include "workload/smallbank_workload.h"

namespace epoch_bench {

using namespace nezha;

namespace {

double NowUs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double ProcessCpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

MixedWorkloadConfig MixedConfig(const WorkloadSpec& spec) {
  MixedWorkloadConfig config;
  config.smallbank_accounts = 0;
  config.kv_keys = spec.entities;
  config.token_holders = spec.entities;
  config.skew = spec.skew;
  config.smallbank_weight = 0;
  config.kv_weight = 3;
  config.token_weight = 1;
  return config;
}

/// Hands one epoch's payload to the ledger: build, append and seal.
Result<EpochBatch> Ingest(ParallelChainLedger& ledger, EpochId epoch,
                          EpochPayload payload) {
  for (ChainId chain = 0; chain < static_cast<ChainId>(payload.size());
       ++chain) {
    Block block = ledger.BuildBlock(chain, epoch, std::move(payload[chain]));
    if (Status s = ledger.AppendBlock(std::move(block)); !s.ok()) return s;
  }
  return ledger.SealEpoch(epoch);
}

/// A node of the given scheme over its own KVStore, funded at genesis.
struct FundedNode {
  KVStore kv;
  FullNode node;

  FundedNode(const WorkloadSpec& spec, SchemeKind scheme)
      : node(
            [scheme] {
              NodeConfig config;
              config.scheme = scheme;
              return config;
            }(),
            &kv) {
    FundGenesis(spec, node.state());
  }

  Status Genesis() {
    if (Status s = node.state().Flush(); !s.ok()) return s;
    node.ledger().CommitEpochRoot(0, node.state().RootHash());
    return Status::Ok();
  }
};

/// What set-up builds, and how long it took: the epochs to run and a node
/// funded, flushed and rooted at genesis.
struct SetUp {
  std::vector<EpochPayload> payloads;
  std::unique_ptr<FundedNode> funded;
  double seconds = 0;
};

Result<SetUp> MakeSetUp(const WorkloadSpec& spec, std::uint64_t seed,
                        std::size_t epochs, SchemeKind scheme) {
  WorkloadSpec sized = spec;
  if (epochs != 0) sized.epochs = epochs;
  const double start = NowUs();
  SetUp setup;
  setup.payloads = GenerateEpochs(sized, seed);
  setup.funded = std::make_unique<FundedNode>(sized, scheme);
  if (Status s = setup.funded->Genesis(); !s.ok()) return s;
  setup.seconds = (NowUs() - start) / 1e6;
  return setup;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"smallbank_contended", false, 10'000, 0.9, 100'000, 100},
      {"smallbank_large_state", false, 200'000, 0.0, 100'000, 40},
      {"kv_blindwrite", true, 10'000, 0.9, 200, 100},
  };
  return specs;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<EpochPayload> GenerateEpochs(const WorkloadSpec& spec,
                                         std::uint64_t seed) {
  std::vector<EpochPayload> epochs(spec.epochs);
  const auto fill = [&](auto& workload) {
    for (EpochPayload& payload : epochs) {
      payload.reserve(kBlocksPerEpoch);
      for (std::size_t b = 0; b < kBlocksPerEpoch; ++b) {
        payload.push_back(workload.MakeBatch(kTxsPerBlock));
      }
    }
  };
  if (spec.mixed) {
    MixedWorkload workload(MixedConfig(spec), seed);
    fill(workload);
  } else {
    WorkloadConfig config;
    config.num_accounts = spec.entities;
    config.skew = spec.skew;
    SmallBankWorkload workload(config, seed);
    fill(workload);
  }
  return epochs;
}

void FundGenesis(const WorkloadSpec& spec, StateDB& state) {
  if (spec.mixed) {
    MixedWorkload::InitState(state, MixedConfig(spec), spec.initial_balance);
  } else {
    SmallBankWorkload::InitAccounts(state, spec.entities, spec.initial_balance,
                                    spec.initial_balance);
  }
}

Result<double> MeasureSetup(const WorkloadSpec& spec, std::uint64_t seed) {
  Result<SetUp> setup = MakeSetUp(spec, seed, 0, SchemeKind::kNezha);
  if (!setup.ok()) return setup.status();
  return setup->seconds;
}

Result<PassResult> RunPass(const WorkloadSpec& spec, std::uint64_t seed,
                           std::size_t epochs, bool keep_receipts) {
  Result<SetUp> setup = MakeSetUp(spec, seed, epochs, SchemeKind::kNezha);
  if (!setup.ok()) return setup.status();
  FullNode& node = setup->funded->node;
  PassResult pass;
  pass.setup_s = setup->seconds;

  std::vector<EpochBatch> batches;
  batches.reserve(setup->payloads.size());
  const double loop_start = NowUs();
  for (std::size_t i = 0; i < setup->payloads.size(); ++i) {
    const EpochId epoch = i + 1;
    const double start = NowUs();
    Result<EpochBatch> batch =
        Ingest(node.ledger(), epoch, std::move(setup->payloads[i]));
    if (!batch.ok()) return batch.status();
    Result<EpochReport> report = node.ProcessEpoch(*batch);
    if (!report.ok()) return report.status();
    pass.epoch_ms.push_back((NowUs() - start) / 1000.0);
    pass.outcomes.push_back({report->state_root, report->receipt_root,
                             report->txs, report->committed, report->aborted});
    if (keep_receipts) batches.push_back(std::move(batch.value()));
  }
  pass.loop_s = (NowUs() - loop_start) / 1e6;

  for (EpochBatch& batch : batches) {
    std::vector<Receipt> receipts;
    receipts.reserve(batch.txs.size());
    for (const Transaction& tx : batch.txs) {
      Result<Receipt> receipt = node.receipts().Get(tx.Id());
      if (!receipt.ok()) return receipt.status();
      receipts.push_back(*receipt);
    }
    pass.receipts.push_back(std::move(receipts));
    pass.txs.push_back(std::move(batch.txs));
  }
  return pass;
}

std::string ReplayVerify(const WorkloadSpec& spec, const PassResult& pass) {
  if (pass.txs.size() != pass.outcomes.size()) {
    return "pass kept no receipts to replay";
  }
  StateDB reference;
  FundGenesis(spec, reference);
  // The replay's read view aliases this map, which the loop below updates
  // after every transaction — serial execution against the evolving state.
  auto live = std::make_shared<StateSnapshot::Map>(
      reference.MakeSnapshot(0).items());
  const StateSnapshot view_base(live, Hash256{}, 0);
  // RootHash re-hashes every dirty cell, so each epoch starts clean.
  reference.ClearDirty();

  for (std::size_t e = 0; e < pass.outcomes.size(); ++e) {
    const std::vector<Transaction>& txs = pass.txs[e];
    const std::vector<Receipt>& receipts = pass.receipts[e];
    std::vector<std::pair<SeqNum, std::size_t>> order;
    for (std::size_t t = 0; t < txs.size(); ++t) {
      if (receipts[t].tx_id != txs[t].Id() || receipts[t].epoch != e + 1) {
        return "epoch " + std::to_string(e + 1) + ": receipt " +
               std::to_string(t) + " does not belong to its transaction";
      }
      if (receipts[t].outcome == TxOutcome::kCommitted) {
        order.emplace_back(receipts[t].seq, t);
      }
    }
    if (order.size() != pass.outcomes[e].committed) {
      return "epoch " + std::to_string(e + 1) + ": " +
             std::to_string(order.size()) + " committed receipts, report says " +
             std::to_string(pass.outcomes[e].committed);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [seq, t] : order) {
      LoggedStateView view(view_base);
      if (Status s = ExecuteContract(txs[t].payload, view);
          !s.ok() || view.reverted()) {
        return "epoch " + std::to_string(e + 1) + ": committed tx " +
               std::to_string(t) + " fails on replay";
      }
      const ReadWriteSet rw = view.TakeRWSet();
      if (rw.writes.size() != receipts[t].writes) {
        return "epoch " + std::to_string(e + 1) + ": tx " + std::to_string(t) +
               " writes " + std::to_string(rw.writes.size()) +
               " cells on replay, receipt says " +
               std::to_string(receipts[t].writes);
      }
      for (std::size_t w = 0; w < rw.writes.size(); ++w) {
        (*live)[rw.writes[w].value] = rw.write_values[w];
        reference.Set(rw.writes[w], rw.write_values[w]);
      }
    }
    if (reference.RootHash() != pass.outcomes[e].state_root) {
      return "epoch " + std::to_string(e + 1) +
             ": replayed state root differs from the node's";
    }
    reference.ClearDirty();
  }
  return "";
}

const std::vector<std::string_view>& LayerSpanNames() {
  static const std::vector<std::string_view> names = {
      "ledger.ingest",     "ledger.validate",  "storage.snapshot",
      "runtime.spec_exec", "cc.schedule",      "node.receipts",
      "exec.group",        "storage.root",     "storage.assemble",
      "storage.kv_write",  "storage.snapshot_release"};
  return names;
}

Result<TracedPass> RunTracedPass(const WorkloadSpec& spec, std::uint64_t seed,
                                 std::size_t epochs) {
  WorkloadSpec sized = spec;
  if (epochs != 0) sized.epochs = epochs;
  std::vector<EpochPayload> payloads = GenerateEpochs(sized, seed);

  // The layers FullNode owns, assembled by hand with the node's defaults.
  KVStore kv;
  ParallelChainLedger ledger(NodeConfig{}.max_chains, &kv);
  StateDB state(&kv);
  ThreadPool pool(NodeConfig{}.worker_threads);
  std::unique_ptr<Scheduler> scheduler =
      MakeScheduler(SchemeKind::kNezha, &pool);
  FundGenesis(sized, state);
  if (Status s = state.Flush(); !s.ok()) return s;
  ledger.CommitEpochRoot(0, state.RootHash());

  TracedPass pass;
  pass.pool_workers = pool.size();
  pass.spans.reserve(sized.epochs * 16);
  std::vector<std::vector<ReadWriteSet>> rwsets(sized.epochs);

  for (std::size_t i = 0; i < sized.epochs; ++i) {
    const EpochId epoch = i + 1;
    TracedEpoch te;
    const auto e32 = static_cast<std::uint32_t>(epoch);
    double mark = 0;
    const auto begin_span = [&] { mark = NowUs(); };
    const auto end_span = [&](std::string_view name) {
      const double now = NowUs();
      pass.spans.push_back({e32, name, mark, now});
      te.span_ms[name] = (now - mark) / 1000.0;
      te.spans_ms += (now - mark) / 1000.0;
    };

    const double cpu_start = ProcessCpuMs();
    te.start_us = NowUs();

    begin_span();
    Result<EpochBatch> sealed = Ingest(ledger, epoch, std::move(payloads[i]));
    end_span("ledger.ingest");
    if (!sealed.ok()) return sealed.status();
    const EpochBatch& batch = *sealed;

    begin_span();
    bool valid = true;
    for (const Block& block : batch.blocks) {
      valid = valid &&
              block.header.prev_state_root == ledger.StateRootBefore(epoch) &&
              block.header.tx_root == ComputeTxMerkleRoot(block.transactions);
    }
    end_span("ledger.validate");
    if (!valid) return Status::Internal("traced epoch failed validation");

    begin_span();
    StateSnapshot snapshot = state.MakeSnapshot(epoch);
    end_span("storage.snapshot");

    begin_span();
    BatchExecutionResult exec =
        ExecuteBatchConcurrent(pool, snapshot, batch.txs, ExecMode::kNative);
    end_span("runtime.spec_exec");

    begin_span();
    Result<Schedule> built = scheduler->BuildSchedule(exec.rwsets);
    end_span("cc.schedule");
    if (!built.ok()) return built.status();
    const Schedule& schedule = *built;

    begin_span();
    const std::vector<Receipt> receipts =
        BuildReceipts(epoch, batch.txs, exec.rwsets, schedule);
    te.outcome.receipt_root = ComputeReceiptRoot(receipts);
    end_span("node.receipts");

    begin_span();
    const ParallelExecStats group_stats = ExecuteScheduleParallel(
        pool, state, snapshot, schedule, exec.rwsets);
    end_span("exec.group");

    begin_span();
    te.outcome.state_root = state.RootHash();
    end_span("storage.root");

    begin_span();
    WriteBatch commit;
    state.AppendDirtyTo(commit);
    te.dirty_cells = commit.Count();
    ReceiptStore::AppendTo(commit, receipts);
    const auto [root_key, root_value] =
        ParallelChainLedger::EpochRootRecord(epoch, te.outcome.state_root);
    commit.Put(root_key, root_value);
    CommitJournal journal;
    journal.epoch = epoch;
    journal.state_root = te.outcome.state_root;
    journal.receipt_root = te.outcome.receipt_root;
    for (const Block& block : batch.blocks) {
      journal.block_ids.push_back(block.Hash());
    }
    for (ChainId chain = 0; chain < ledger.num_chains(); ++chain) {
      journal.chain_tips.emplace_back(chain, ledger.ChainTip(chain));
    }
    commit.Put(kLastJournalKey, journal.Header().Serialize());
    commit.Delete(kPendingJournalKey);
    journal.redo = commit.Serialize();
    const std::string journal_bytes = journal.Serialize();
    ledger.CommitEpochRootLocal(epoch, te.outcome.state_root);
    end_span("storage.assemble");

    begin_span();
    Status written = kv.Put(kPendingJournalKey, journal_bytes);
    if (written.ok()) written = kv.Write(commit);
    if (written.ok()) state.ClearDirty();
    end_span("storage.kv_write");
    if (!written.ok()) return written;

    begin_span();
    snapshot = StateSnapshot();
    end_span("storage.snapshot_release");

    te.end_us = NowUs();
    te.cpu_ms = ProcessCpuMs() - cpu_start;

    te.outcome.txs = batch.txs.size();
    te.outcome.committed = group_stats.committed_txs;
    te.outcome.aborted = schedule.NumAborted();
    te.commit_bytes = commit.ByteSize() + journal_bytes.size();
    for (const ReadWriteSet& rw : exec.rwsets) {
      te.rw_units += rw.reads.size() + rw.writes.size();
      te.reverted += rw.ok ? 0 : 1;
    }
    te.cc_aborted = te.outcome.aborted - te.reverted;
    te.acg_vertices = scheduler->metrics().graph_vertices;
    te.acg_edges = scheduler->metrics().graph_edges;
    te.rank_cycle_breaks = schedule.attribution.rank.cycle_breaks;
    te.reorder_attempts = schedule.attribution.reorder_attempts;
    te.reorder_commits = schedule.attribution.reorder_commits;
    te.groups = group_stats.groups;
    te.max_group = group_stats.max_group;
    rwsets[i] = std::move(exec.rwsets);
    pass.epochs.push_back(std::move(te));
  }

  // BuildSchedule's stages, called again on each epoch's rwsets after the
  // pass (so the epochs above run back to back, as in the node): the part
  // of cc.schedule each stage accounts for.
  for (std::size_t i = 0; i < sized.epochs; ++i) {
    TracedEpoch& te = pass.epochs[i];
    const auto stage = [&](std::string_view name, const auto& call) {
      const double start = NowUs();
      call();
      const double end = NowUs();
      pass.spans.push_back({static_cast<std::uint32_t>(i + 1), name, start,
                            end});
      te.span_ms[name] = (end - start) / 1000.0;
    };
    AddressConflictGraph acg;
    std::vector<Digraph::Vertex> ranks;
    TxSorterResult sorted;
    stage("cc.acg",
          [&] { acg = AddressConflictGraph::BuildSharded(rwsets[i], pool); });
    stage("cc.rank", [&] {
      ranks = ComputeSortingRanks(acg.dependencies(), RankPolicy::kNezha);
    });
    stage("cc.sort", [&] {
      sorted = SortTransactionsParallel(acg, ranks, rwsets[i].size(), pool,
                                        TxSorterOptions{});
    });
    if (sorted.aborted.size() != rwsets[i].size()) {
      return Status::Internal("stage replay sorted a different batch");
    }
  }
  return pass;
}

Result<std::vector<double>> RunSerialReference(const WorkloadSpec& spec,
                                               std::uint64_t seed,
                                               std::size_t epochs) {
  Result<SetUp> setup = MakeSetUp(spec, seed, epochs, SchemeKind::kSerial);
  if (!setup.ok()) return setup.status();
  FullNode& node = setup->funded->node;
  std::vector<double> epoch_ms;
  for (std::size_t i = 0; i < setup->payloads.size(); ++i) {
    const double start = NowUs();
    Result<EpochBatch> batch =
        Ingest(node.ledger(), i + 1, std::move(setup->payloads[i]));
    if (!batch.ok()) return batch.status();
    Result<EpochReport> report = node.ProcessEpoch(*batch);
    if (!report.ok()) return report.status();
    epoch_ms.push_back((NowUs() - start) / 1000.0);
  }
  return epoch_ms;
}

Status WriteChromeTrace(const std::string& path, const TracedPass& pass) {
  std::ofstream out(path);
  if (!out) return Status::Unavailable("cannot open " + path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto event = [&](std::string_view name, std::uint32_t epoch,
                         double start_us, double end_us, int tid) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%u}}",
                  first ? "" : ",\n", static_cast<int>(name.size()),
                  name.data(), tid, start_us, end_us - start_us, epoch);
    out << line;
    first = false;
  };
  for (std::size_t i = 0; i < pass.epochs.size(); ++i) {
    const TracedEpoch& te = pass.epochs[i];
    event("epoch", static_cast<std::uint32_t>(i + 1), te.start_us, te.end_us,
          1);
  }
  for (const Span& span : pass.spans) {
    const bool stage = span.name == "cc.acg" || span.name == "cc.rank" ||
                       span.name == "cc.sort";
    event(span.name, span.epoch, span.start_us, span.end_us, stage ? 2 : 1);
  }
  out << "\n]}\n";
  return out ? Status::Ok() : Status::Unavailable("short write to " + path);
}

}  // namespace epoch_bench
