// Table II, quantified: the paper's qualitative scheme comparison rendered
// as measured properties on one contended workload — does the scheme
// execute concurrently, does it COMMIT concurrently (max commit-group
// size), does it need special hardware (all: no), and does it stay
// efficient under considerable conflicts (cc latency + abort rate at skew
// 0.8, concurrency 8).
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "cc/nezha/parallel_executor.h"
#include "common/stopwatch.h"
#include "node/full_node.h"
#include "runtime/concurrent_executor.h"
#include "workload/smallbank_workload.h"

using namespace nezha;
using namespace nezha::bench;

int main(int argc, char** argv) {
  const std::string json_path = JsonPathFromArgs(argc, argv);
  const std::size_t txs_count = EnvSize("NEZHA_BENCH_TXS", 1600);
  const double skew = 0.8;
  JsonReport report("table2_schemes");

  Header("Table II (quantified) — scheme properties under high contention",
         "SmallBank, skew 0.8, 1600 txs (block concurrency 8)");

  WorkloadConfig config;
  config.num_accounts = 10'000;
  config.skew = skew;
  SmallBankWorkload workload(config, 22);
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(txs_count);
  const auto exec = ExecuteBatchSerial(snap, txs);

  ThreadPool pool(0);
  Row({"scheme", "cc(ms)", "aborts", "groups", "max group", "commit conc."},
      13);
  for (SchemeKind kind : {SchemeKind::kOcc, SchemeKind::kCg,
                          SchemeKind::kNezha}) {
    auto scheduler = MakeScheduler(kind);
    Stopwatch watch;
    auto schedule = scheduler->BuildSchedule(exec.rwsets);
    const double cc_ms = watch.ElapsedMillis();
    if (!schedule.ok()) return 1;
    StateDB state;
    const ParallelExecStats stats =
        ExecuteScheduleParallel(pool, state, snap, *schedule, exec.rwsets);
    Row({std::string(scheduler->name()), Fmt(cc_ms, 2),
         FmtPct(schedule->AbortRate()), FmtInt(stats.groups),
         FmtInt(stats.max_group),
         stats.max_group > 1 ? "yes" : "no (serial)"},
        13);

    JsonResult result;
    result.bench = "scheme_properties";
    result.scheme = std::string(scheduler->name());
    result.params.Set("workload", "smallbank");
    result.params.Set("skew", skew);
    result.params.Set("txs", txs_count);
    result.latency_ms = cc_ms;
    result.abort_rate = schedule->AbortRate();
    result.rollup = obs::BuildRollup(schedule->attribution);
    result.extra.Set("commit_groups", stats.groups);
    result.extra.Set("max_commit_group", stats.max_group);
    report.Add(result);
  }
  if (!json_path.empty() && !report.WriteTo(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }

  std::printf(
      "\nTable II's qualitative claims, measured: OCC is cheap but aborts "
      "the\nmost and commits serially; CG reduces aborts but pays heavy "
      "cycle\nhandling and still commits serially; Nezha keeps cc cheap, "
      "aborts least,\nand is the only scheme with concurrent commitment "
      "(max group > 1).\nNo scheme here assumes special software/hardware "
      "(no STM/HTM).\n");
  return 0;
}
