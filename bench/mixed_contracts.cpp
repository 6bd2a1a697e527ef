// Extension bench: heterogeneous contract traffic through the schedulers.
//
// The paper evaluates pure SmallBank; a production chain carries a mix.
// This bench runs SmallBank + raw-KV (blind writes) + token (reverts)
// traffic through every scheme and reports latency, abort composition, and
// the §IV.D rescue count — blind writes are where the enhancement finally
// earns its keep on-chain.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "common/stopwatch.h"
#include "node/full_node.h"
#include "runtime/concurrent_executor.h"
#include "workload/mixed_workload.h"

using namespace nezha;
using namespace nezha::bench;

int main() {
  const std::size_t txs_count = EnvSize("NEZHA_BENCH_TXS", 1600);
  const std::size_t reps = EnvSize("NEZHA_BENCH_REPS", 5);

  Header("Mixed-contract traffic — SmallBank + KV (blind writes) + token",
         "equal thirds, 1k entities per contract, skew 0.9, 1600 txs");

  MixedWorkloadConfig config;
  config.smallbank_accounts = 1000;
  config.kv_keys = 1000;
  config.token_holders = 1000;
  config.skew = 0.9;

  Row({"scheme", "cc(ms)", "reverted", "cc-aborted", "committed",
       "rescued", "max group"},
      13);
  for (SchemeKind kind : {SchemeKind::kOcc, SchemeKind::kCg,
                          SchemeKind::kNezha, SchemeKind::kNezhaNoReorder}) {
    double cc_ms = 0, reverted = 0, aborted = 0, committed = 0, rescued = 0;
    std::size_t max_group = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      MixedWorkload workload(config, 800 + rep);
      StateDB db;
      MixedWorkload::InitState(db, config, 200);  // modest funds: reverts
      const StateSnapshot snap = db.MakeSnapshot(0);
      const auto txs = workload.MakeBatch(txs_count);
      const auto exec = ExecuteBatchSerial(snap, txs);
      std::size_t execution_reverts = 0;
      for (const auto& rw : exec.rwsets) execution_reverts += rw.ok ? 0 : 1;

      auto scheduler = MakeScheduler(kind);
      Stopwatch watch;
      auto schedule = scheduler->BuildSchedule(exec.rwsets);
      cc_ms += watch.ElapsedMillis();
      if (!schedule.ok()) return 1;
      reverted += static_cast<double>(execution_reverts);
      aborted +=
          static_cast<double>(schedule->NumAborted() - execution_reverts);
      committed += static_cast<double>(schedule->NumCommitted());
      rescued += static_cast<double>(scheduler->metrics().reordered_txs);

      ThreadPool pool(0);
      StateDB state;
      const ParallelExecStats stats =
          ExecuteScheduleParallel(pool, state, snap, *schedule, exec.rwsets);
      max_group = std::max(max_group, stats.max_group);
    }
    const double r = static_cast<double>(reps);
    Row({SchemeName(kind), Fmt(cc_ms / r, 2), Fmt(reverted / r, 0),
         Fmt(aborted / r, 0), Fmt(committed / r, 0), Fmt(rescued / r, 1),
         FmtInt(max_group)},
        13);
  }

  std::printf(
      "\nReverted = failed at execution (token overdrafts) — identical for "
      "every\nscheme. CC-aborted = serializability victims. Nezha rescues "
      "blind\nmulti-writes (KV kMultiSet) via §IV.D — visible as a lower "
      "cc-aborted\ncount than nezha-noreorder — while keeping cc two orders "
      "below CG.\n");
  return 0;
}
