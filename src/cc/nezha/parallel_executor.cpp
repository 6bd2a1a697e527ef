#include "cc/nezha/parallel_executor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/det_checkpoint.h"
#include "common/canonical_text.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/tx_lifecycle.h"

namespace nezha {
namespace {

using WriteBuffer = std::unordered_map<std::uint64_t, StateValue>;

/// Canonical text encoding of the post-execution write buffer: header with
/// the group/write counters, then one line per address in ascending address
/// order (`writes` is SortedWrites of the buffer, so the kExecute checkpoint
/// does not depend on hash-table iteration order).
std::string CanonicalWriteBufferEncoding(const ParallelExecStats& stats,
                                         std::span<const StateWrite> writes) {
  std::string out;
  out.reserve(64 + writes.size() * 24);
  out += "exec txs=";
  AppendU64(out, stats.committed_txs);
  out += " groups=";
  AppendU64(out, stats.groups);
  out += " max_group=";
  AppendU64(out, stats.max_group);
  out += " writes=";
  AppendU64(out, stats.writes_applied);
  out += " addrs=";
  AppendU64(out, writes.size());
  out += '\n';
  for (const StateWrite& w : writes) {
    out += "w ";
    AppendU64(out, w.address.value);
    out += '=';
    AppendI64(out, static_cast<std::int64_t>(w.value));
    out += '\n';
  }
  return out;
}

/// Applies the merged buffer to the StateDB in parallel. Every address has
/// exactly one final value, so the apply is order-independent; the sorted
/// order keeps the chunk partition (and the sharded-lock access pattern)
/// deterministic for a given pool size.
void ApplyBuffer(ThreadPool& pool, StateDB& state,
                 std::span<const StateWrite> writes) {
  obs::Stage stage("state_apply");
  pool.ParallelForChunked(
      0, writes.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        state.ApplyWrites(writes.subspan(lo, hi - lo));
      });
}

void PublishExecObs(const ParallelExecStats& stats) {
  if (!obs::MetricsEnabled()) return;
  auto& registry = obs::Registry();
  registry.GetCounter("nezha_parallel_exec_txs_total")
      ->Inc(stats.committed_txs);
  registry.GetCounter("nezha_parallel_exec_writes_total")
      ->Inc(stats.writes_applied);
  registry.GetGauge("nezha_parallel_exec_groups")
      ->Set(static_cast<std::int64_t>(stats.groups));
  registry.GetGauge("nezha_parallel_exec_max_group")
      ->Set(static_cast<std::int64_t>(stats.max_group));
}

}  // namespace

ParallelExecStats ExecuteScheduleParallel(ThreadPool& pool, StateDB& state,
                                          const StateSnapshot& snapshot,
                                          const Schedule& schedule,
                                          std::span<const ReadWriteSet> rwsets,
                                          ParallelExecMode mode,
                                          const TxExecFn& exec) {
  // Stage label for every pool task this executor submits (group items,
  // buffer apply chunks); nests inside the node's "commit" envelope.
  obs::Stage stage("exec_groups");
  ParallelExecStats stats;
  stats.groups = schedule.groups.size();
  WriteBuffer buffer;

  // Lifecycle: stamp kExecuted only when this run belongs to the active
  // epoch (microbenches execute schedules outside any epoch). In
  // kApplyRecorded mode the whole merge is one pass, so one batch stamp
  // after the sweep keeps the tracer out of the hot loop; re-execution
  // stamps per group as each barrier completes.
  obs::TxLifecycleTracer& lifecycle = obs::Lifecycle();
  const bool stamp_lifecycle = lifecycle.enabled() &&
                               lifecycle.EpochActive() &&
                               lifecycle.CurrentEpochSize() == rwsets.size();

  if (mode == ParallelExecMode::kApplyRecorded) {
    // The group's effects are already known (the speculative rwsets), so
    // "execution" reduces to the deterministic merge: sweep groups in
    // ascending sequence order, transactions in ascending TxIndex, and let
    // the buffer keep each address's last write. The sweep is linear in
    // write units; the heavy part — pushing the buffer into the sharded
    // StateDB — is what runs on the pool.
    for (const auto& group : schedule.groups) {
      stats.committed_txs += group.size();
      stats.max_group = std::max(stats.max_group, group.size());
      for (const TxIndex t : group) {
        const ReadWriteSet& rw = rwsets[t];
        for (std::size_t i = 0; i < rw.writes.size(); ++i) {
          buffer[rw.writes[i].value] = rw.write_values[i];
        }
        stats.writes_applied += rw.writes.size();
      }
    }
    if (stamp_lifecycle) lifecycle.StampAll(obs::TxStage::kExecuted);
  } else {
    // Re-execution: each group's transactions run concurrently against the
    // snapshot plus the overlay of all earlier groups. LoggedStateView only
    // buffers writes locally, and the overlay is read-only while a group is
    // in flight, so in-group execution shares no mutable state; the group
    // barrier then merges write sets in ascending TxIndex order.
    LoggedStateView::Overlay overlay;
    std::vector<ReadWriteSet> fresh(rwsets.size());
    for (const auto& group : schedule.groups) {
      stats.committed_txs += group.size();
      stats.max_group = std::max(stats.max_group, group.size());
      const auto run_one = [&](std::size_t i) {
        const TxIndex t = group[i];
        LoggedStateView view(snapshot, &overlay);
        const Status executed = exec(t, view);
        fresh[t] = view.TakeRWSet();
        if (!executed.ok()) fresh[t].ok = false;
      };
      if (group.size() == 1) {
        run_one(0);  // serial fast path: no dispatch overhead
      } else {
        pool.ParallelFor(0, group.size(), run_one);
      }
      stats.reexecuted_txs += group.size();
      for (const TxIndex t : group) {
        const ReadWriteSet& rw = fresh[t];
        if (!rw.ok) continue;  // re-execution revert: commits nothing
        for (std::size_t i = 0; i < rw.writes.size(); ++i) {
          overlay[rw.writes[i].value] = rw.write_values[i];
          buffer[rw.writes[i].value] = rw.write_values[i];
        }
        stats.writes_applied += rw.writes.size();
      }
      if (stamp_lifecycle) {
        lifecycle.StampTxs(group, obs::TxStage::kExecuted);
      }
    }
  }

  stats.buffered_addresses = buffer.size();
  const std::vector<StateWrite> writes = SortedWrites(buffer);

  analysis::DetCheckpointRecorder& det =
      analysis::DetCheckpointRecorder::Global();
  if (det.enabled()) {
    det.Record(analysis::DetStage::kExecute,
               CanonicalWriteBufferEncoding(stats, writes));
  }

  ApplyBuffer(pool, state, writes);
  PublishExecObs(stats);
  return stats;
}

}  // namespace nezha
