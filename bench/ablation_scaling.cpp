// Ablation: worker-thread scaling of the two parallel phases — speculative
// execution and grouped commitment — plus the end-to-end epoch latency.
// (The paper's full node uses 16 vCPUs; this shows how the implementation
// scales on whatever this machine has.)
#include <cstdio>

#include "bench/bench_util.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "common/stopwatch.h"
#include "runtime/concurrent_executor.h"
#include "workload/smallbank_workload.h"

using namespace nezha;
using namespace nezha::bench;

int main() {
  const std::size_t txs_count = EnvSize("NEZHA_BENCH_TXS", 20'000);
  const std::size_t reps = EnvSize("NEZHA_BENCH_REPS", 5);

  Header("Ablation — thread scaling of execution & grouped commitment",
         "SmallBank, skew 0.2, 2400 txs (block concurrency 12), MiniVM "
         "bytecode execution");

  WorkloadConfig config;
  config.num_accounts = 10'000;
  config.skew = 0.2;
  SmallBankWorkload workload(config, 77);
  StateDB db;
  SmallBankWorkload::InitAccounts(db, config.num_accounts, 1000, 1000);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(txs_count);

  Row({"threads", "execute(ms)", "commit(ms)", "speedup(exec)"});
  double exec_base = 0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    double exec_ms = 0, commit_ms = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      Stopwatch watch;
      const auto exec =
          ExecuteBatchConcurrent(pool, snap, txs, ExecMode::kBytecode);
      exec_ms += watch.ElapsedMillis();

      NezhaScheduler scheduler;
      auto schedule = scheduler.BuildSchedule(exec.rwsets);
      watch.Restart();
      StateDB state;
      ExecuteScheduleParallel(pool, state, snap, *schedule, exec.rwsets);
      commit_ms += watch.ElapsedMillis();
    }
    exec_ms /= static_cast<double>(reps);
    commit_ms /= static_cast<double>(reps);
    if (threads == 1) exec_base = exec_ms;
    Row({FmtInt(threads), Fmt(exec_ms, 2), Fmt(commit_ms, 2),
         Fmt(exec_base / exec_ms, 2) + "x"});
  }
  std::printf(
      "\nExecution is embarrassingly parallel (each tx simulates against "
      "one\nimmutable snapshot); scaling tracks physical cores. Commitment\n"
      "parallelism is bounded by commit-group sizes.\n");
  return 0;
}
