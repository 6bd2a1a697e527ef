// Fig. 10 reproduction: latency of each concurrency-control sub-phase at
// block concurrency 4, skew 0.5 and 0.6.
//
// CG phases:    graph construction / cycle detection+removal / topo sorting
// Nezha phases: ACG construction  / sorting-rank division    / tx sorting
// plus the measured commitment latency for both.
#include <cstdio>

#include "bench/bench_util.h"
#include "cc/cg/cg_scheduler.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "common/stopwatch.h"
#include "runtime/concurrent_executor.h"
#include "workload/smallbank_workload.h"

using namespace nezha;
using namespace nezha::bench;

int main() {
  const std::size_t block_size = EnvSize("NEZHA_BENCH_BLOCK_SIZE", 200);
  const std::size_t omega = EnvSize("NEZHA_BENCH_CONCURRENCY", 4);
  const std::size_t reps = EnvSize("NEZHA_BENCH_REPS", 5);

  Header("Fig. 10 — per-sub-phase concurrency-control latency (measured)",
         "block concurrency 4 (800 txs), skew 0.5 / 0.6");

  ThreadPool pool(0);
  for (double skew : {0.5, 0.6}) {
    std::printf("\n--- skew = %.1f ---\n", skew);
    Row({"scheme", "construct(ms)", "cycle/rank(ms)", "sort(ms)",
         "commit(ms)", "cycles", "aborts"});

    for (const char* scheme : {"nezha", "cg"}) {
      double construct = 0, cycle = 0, sort = 0, commit = 0;
      std::uint64_t cycles = 0, aborts = 0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        WorkloadConfig config;
        config.num_accounts = 10'000;
        config.skew = skew;
        SmallBankWorkload workload(config, 500 + rep);
        StateDB db;
        const StateSnapshot snap = db.MakeSnapshot(0);
        const auto txs = workload.MakeBatch(omega * block_size);
        const auto exec = ExecuteBatchSerial(snap, txs);

        std::unique_ptr<Scheduler> scheduler;
        if (std::string(scheme) == "nezha") {
          scheduler = std::make_unique<NezhaScheduler>();
        } else {
          scheduler = std::make_unique<CGScheduler>();
        }
        auto schedule = scheduler->BuildSchedule(exec.rwsets);
        if (!schedule.ok()) return 1;
        const SchedulerMetrics& m = scheduler->metrics();
        construct += m.construction_us / 1000.0;
        cycle += m.cycle_us / 1000.0;
        sort += m.sorting_us / 1000.0;
        cycles += m.cycles_found;
        aborts += schedule->NumAborted();

        Stopwatch watch;
        StateDB state;
        ExecuteScheduleParallel(pool, state, snap, *schedule, exec.rwsets);
        commit += watch.ElapsedMillis();
      }
      const double r = static_cast<double>(reps);
      Row({scheme, Fmt(construct / r, 3), Fmt(cycle / r, 3), Fmt(sort / r, 3),
           Fmt(commit / r, 3), FmtInt(cycles / reps), FmtInt(aborts / reps)});
    }
  }
  std::printf(
      "\nShape check: CG's construction dominates at skew 0.5 and its cycle\n"
      "detection+removal explodes at 0.6 (Johnson enumeration); Nezha's "
      "graph\nconstruction is negligible and its sorting stays stable — "
      "Fig. 10's story.\n");
  return 0;
}
