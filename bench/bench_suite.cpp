// The machine-readable benchmark suite behind the `bench_suite` CMake
// target and the CI perf-regression gate (docs/OBSERVABILITY.md).
//
// Runs every scheme over fixed-seed SmallBank workloads at low and high
// skew through the full node pipeline, with the calibrated execution cost
// model (machine-independent latencies; cc + commit measured), and writes
// one BENCH_nezha.json: per-scheme throughput, latency, abort rate, and the
// abort-attribution rollup read back from the epoch flight recorder.
// bench/check_bench_regression compares two such files.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "bench/sustained_load.h"
#include "cc/cg/cg_scheduler.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "cc/occ/occ_scheduler.h"
#include "common/thread_pool.h"
#include "node/simulation.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "runtime/concurrent_executor.h"
#include "vm/cost_model.h"

using namespace nezha;
using namespace nezha::bench;

namespace {

/// Merges the attribution of every record the flight recorder currently
/// holds (one per processed epoch).
obs::AttributionRollup DrainRollup() {
  obs::AttributionRollup rollup;
  for (const obs::EpochFlightRecord& record :
       obs::FlightRecorder::Global().Records()) {
    rollup.Merge(obs::BuildRollup(record.attribution));
  }
  return rollup;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The threads dimension: BuildSchedule + group-parallel execute of one
/// 4096-tx epoch through the parallel pipeline at 1/2/4/8 pool threads.
/// Scheduling and buffer-merge time is measured; the execution phase uses
/// the calibrated cost model's group latency (sum of ceil(|g|/threads)
/// serial tx slots — docs/PARALLELISM.md), which is exact in the schedule's
/// group structure and machine-independent, so the 8-thread speedup gate
/// holds on single-core CI runners too. Emits one serial sibling per
/// threads value with identical params so check_bench_regression's ratio
/// mode pairs them. Returns the measured 1->8 thread speedup.
double RunParallelPipelineBench(bench::JsonReport& report) {
  const std::size_t num_txs = bench::EnvSize("NEZHA_BENCH_PARALLEL_TXS", 4096);
  const double skew = 0.6;
  const std::uint64_t seed = 91'000;
  const CostModel cost;

  WorkloadConfig workload_config;
  workload_config.num_accounts = 10'000;
  workload_config.skew = skew;
  SmallBankWorkload workload(workload_config, seed);
  StateDB workload_db;
  const StateSnapshot snap = workload_db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(num_txs);
  const auto rwsets = ExecuteBatchSerial(snap, txs).rwsets;

  const double serial_latency_ms = cost.SerialLatencyMs(num_txs);

  bench::Row({"threads", "scheme", "tps", "latency(ms)", "cc+merge(ms)",
              "exec(ms)"});
  double latency_at_1 = 0, latency_at_8 = 0;
  for (const std::size_t threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    NezhaOptions options;
    options.pool = &pool;
    NezhaScheduler scheduler(options);

    // Three repetitions, mean of the measured portion; the schedule itself
    // is deterministic so one copy serves the modelled phase.
    double measured_ms = 0;
    Result<Schedule> schedule = scheduler.BuildSchedule(rwsets);
    if (!schedule.ok()) {
      std::fprintf(stderr, "bench_suite: parallel pipeline failed: %s\n",
                   schedule.status().message().c_str());
      return 0;
    }
    constexpr int kReps = 3;
    for (int rep = 0; rep < kReps; ++rep) {
      const double t0 = NowMs();
      Result<Schedule> rebuilt = scheduler.BuildSchedule(rwsets);
      StateDB db;
      const StateSnapshot epoch_snap = db.MakeSnapshot(0);
      ExecuteScheduleParallel(pool, db, epoch_snap, *rebuilt, rwsets);
      measured_ms += NowMs() - t0;
    }
    measured_ms /= kReps;

    std::vector<std::size_t> group_sizes;
    group_sizes.reserve(schedule->groups.size());
    for (const auto& group : schedule->groups) {
      group_sizes.push_back(group.size());
    }
    const double exec_ms = cost.GroupExecuteLatencyMs(group_sizes, threads);
    const double latency_ms = measured_ms + exec_ms;
    const double abort_rate =
        static_cast<double>(schedule->NumAborted()) /
        static_cast<double>(num_txs);
    if (threads == 1) latency_at_1 = latency_ms;
    if (threads == 8) latency_at_8 = latency_ms;

    JsonResult result;
    result.bench = "parallel_pipeline";
    result.scheme = "nezha";
    result.params.Set("workload", "smallbank");
    result.params.Set("skew", skew);
    result.params.Set("txs", num_txs);
    result.params.Set("threads", threads);
    result.params.Set("seed", seed);
    result.throughput_tps =
        static_cast<double>(schedule->NumCommitted()) / latency_ms * 1000.0;
    result.latency_ms = latency_ms;
    result.abort_rate = abort_rate;
    result.extra.Set("measured_cc_merge_ms", measured_ms);
    result.extra.Set("modelled_exec_ms", exec_ms);
    result.extra.Set("groups", schedule->groups.size());
    report.Add(result);

    // Serial sibling with identical params: the ratio-mode denominator.
    JsonResult serial;
    serial.bench = "parallel_pipeline";
    serial.scheme = "serial";
    serial.params = result.params;
    serial.throughput_tps =
        static_cast<double>(num_txs) / serial_latency_ms * 1000.0;
    serial.latency_ms = serial_latency_ms;
    serial.abort_rate = 0;
    report.Add(serial);

    bench::Row({bench::FmtInt(threads), "nezha",
                bench::Fmt(result.throughput_tps, 1),
                bench::Fmt(latency_ms, 2), bench::Fmt(measured_ms, 2),
                bench::Fmt(exec_ms, 2)});
    bench::Row({bench::FmtInt(threads), "serial",
                bench::Fmt(serial.throughput_tps, 1),
                bench::Fmt(serial_latency_ms, 2), "-", "-"});
  }
  return latency_at_8 > 0 ? latency_at_1 / latency_at_8 : 0;
}

/// The parallel-efficiency dimension: every concurrent scheme's measured
/// pool utilisation — busy / (workers x span), from the pipeline profiler
/// (src/obs/profiler.h) — over one real (not modelled) BuildSchedule +
/// group-parallel execute of the same fixed 4096-tx epoch the threads
/// dimension uses. Efficiency is a ratio of wall times, so machine speed
/// cancels and the committed value is comparable across runners; the best
/// of three profiled reps is reported because scheduler noise can only
/// LOWER the structure-limited efficiency, never raise it.
/// check_bench_regression gates the parallel_efficiency_pct member with
/// --efficiency-tolerance; throughput is deliberately 0 so the throughput
/// gate is inert for these rows.
bool RunParallelEfficiencySection(bench::JsonReport& report) {
  const std::size_t num_txs = bench::EnvSize("NEZHA_BENCH_PARALLEL_TXS", 4096);
  const double skew = 0.6;
  const std::uint64_t seed = 91'000;

  WorkloadConfig workload_config;
  workload_config.num_accounts = 10'000;
  workload_config.skew = skew;
  SmallBankWorkload workload(workload_config, seed);
  StateDB workload_db;
  const StateSnapshot snap = workload_db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(num_txs);
  const auto rwsets = ExecuteBatchSerial(snap, txs).rwsets;

  obs::Profiler().SetEnabled(true);
  bench::Row({"scheme", "threads", "eff(%)", "busy(ms)", "span(ms)", "tasks",
              "idle-gap(ms)", "dominant"});

  const char* kSchemes[] = {"occ", "cg", "nezha", "nezha-noreorder"};
  std::uint64_t window = 0;
  for (const char* scheme : kSchemes) {
    for (const std::size_t threads : {2, 4, 8}) {
      ThreadPool pool(threads);
      std::unique_ptr<Scheduler> scheduler;
      if (std::string_view(scheme) == "occ") {
        scheduler = std::make_unique<OCCScheduler>();
      } else if (std::string_view(scheme) == "cg") {
        scheduler = std::make_unique<CGScheduler>();
      } else {
        NezhaOptions options;
        options.pool = &pool;
        options.enable_reordering =
            std::string_view(scheme) != "nezha-noreorder";
        scheduler = std::make_unique<NezhaScheduler>(options);
      }

      // Warm-up rep outside any profiling window (pool spin-up, allocator
      // warm-up), then three profiled reps; keep the best efficiency.
      double abort_rate = 0;
      obs::EpochProfile best;
      for (int rep = -1; rep < 3; ++rep) {
        if (rep >= 0) {
          obs::Profiler().BeginEpoch(++window, scheme, pool.size());
        }
        Result<Schedule> schedule = scheduler->BuildSchedule(rwsets);
        if (!schedule.ok()) {
          std::fprintf(stderr, "bench_suite: efficiency %s failed: %s\n",
                       scheme, schedule.status().message().c_str());
          return false;
        }
        StateDB db;
        const StateSnapshot epoch_snap = db.MakeSnapshot(0);
        ExecuteScheduleParallel(pool, db, epoch_snap, *schedule, rwsets);
        if (rep >= 0) {
          obs::EpochProfile profile = obs::Profiler().FinishEpoch();
          if (profile.efficiency_pct > best.efficiency_pct) {
            best = std::move(profile);
          }
        }
        abort_rate = static_cast<double>(schedule->NumAborted()) /
                     static_cast<double>(num_txs);
      }

      JsonResult result;
      result.bench = "parallel_efficiency";
      result.scheme = scheme;
      result.params.Set("workload", "smallbank");
      result.params.Set("skew", skew);
      result.params.Set("txs", num_txs);
      result.params.Set("threads", threads);
      result.params.Set("seed", seed);
      result.throughput_tps = 0;  // efficiency row: throughput gate inert
      result.latency_ms = best.span_ms;
      result.abort_rate = abort_rate;
      result.extra.Set("parallel_efficiency_pct", best.efficiency_pct);
      result.extra.Set("busy_ms", best.busy_ms);
      result.extra.Set("cpu_ms", best.cpu_ms);
      result.extra.Set("span_ms", best.span_ms);
      result.extra.Set("profile_tasks", best.tasks);
      result.extra.Set("inline_tasks", best.inline_tasks);
      result.extra.Set("largest_idle_gap_ms", best.largest_idle_gap_ms);
      result.extra.Set("dominant_stage", best.DominantStage());
      report.Add(result);

      bench::Row({scheme, bench::FmtInt(threads),
                  bench::Fmt(best.efficiency_pct, 1),
                  bench::Fmt(best.busy_ms, 2), bench::Fmt(best.span_ms, 2),
                  bench::FmtInt(best.tasks),
                  bench::Fmt(best.largest_idle_gap_ms, 2),
                  best.DominantStage()});
    }
  }
  return true;
}

/// The sustained-load dimension: every scheme under steady arrival through
/// mempool -> mining -> confirmed queue -> pipeline, with exact
/// per-transaction end-to-end commit-latency percentiles
/// (bench/sustained_load.h). The serial row is the ratio-mode denominator
/// for check_bench_regression's latency gate.
bool RunSustainedSection(bench::JsonReport& report) {
  SustainedLoadConfig base;
  base.block_size = bench::EnvSize("NEZHA_BENCH_BLOCK_SIZE", 200);
  base.block_concurrency =
      bench::EnvSize("NEZHA_BENCH_SUSTAINED_CONCURRENCY", 4);
  base.epochs = bench::EnvSize("NEZHA_BENCH_SUSTAINED_EPOCHS", 6);
  base.skew = 0.6;
  base.seed = 92'000;

  bench::Row({"scheme", "tps", "p50(ms)", "p95(ms)", "p99(ms)", "aborts"});
  const SchemeKind kSchemes[] = {SchemeKind::kSerial, SchemeKind::kOcc,
                                 SchemeKind::kCg, SchemeKind::kNezha,
                                 SchemeKind::kNezhaNoReorder};
  for (const SchemeKind kind : kSchemes) {
    SustainedLoadConfig config = base;
    config.scheme = kind;
    const auto run = RunSustainedLoad(config);
    if (!run.ok()) {
      std::fprintf(stderr, "bench_suite: sustained %s failed: %s\n",
                   SchemeName(kind), run.status().message().c_str());
      return false;
    }
    JsonResult result;
    result.bench = "sustained_load";
    result.scheme = SchemeName(kind);
    result.params.Set("workload", "smallbank");
    result.params.Set("skew", config.skew);
    result.params.Set("block_size", config.block_size);
    result.params.Set("block_concurrency", config.block_concurrency);
    result.params.Set("epochs", config.epochs);
    result.params.Set("seed", config.seed);
    result.throughput_tps = run->throughput_tps;
    result.latency_ms = run->e2e_mean_ms;
    result.abort_rate = run->AbortRate();
    result.extra.Set("e2e_p50_ms", run->e2e_p50_ms);
    result.extra.Set("e2e_p95_ms", run->e2e_p95_ms);
    result.extra.Set("e2e_p99_ms", run->e2e_p99_ms);
    result.extra.Set("e2e_max_ms", run->e2e_max_ms);
    result.extra.Set("e2e_samples", run->sampled);
    result.extra.Set("wall_ms", run->wall_ms);
    report.Add(result);

    bench::Row({SchemeName(kind), bench::Fmt(run->throughput_tps, 1),
                bench::Fmt(run->e2e_p50_ms, 2),
                bench::Fmt(run->e2e_p95_ms, 2),
                bench::Fmt(run->e2e_p99_ms, 2),
                bench::FmtPct(run->AbortRate())});
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = JsonPathFromArgs(argc, argv);
  if (json_path.empty()) json_path = "BENCH_nezha.json";

  const std::size_t block_size = EnvSize("NEZHA_BENCH_BLOCK_SIZE", 200);
  const std::size_t concurrency = EnvSize("NEZHA_BENCH_CONCURRENCY", 8);
  const std::size_t epochs = EnvSize("NEZHA_BENCH_EPOCHS", 3);

  Header("Benchmark suite — machine-readable perf snapshot",
         "SmallBank, fixed seeds, modelled execution cost; cc+commit "
         "measured");

  JsonReport report("bench_suite");
  Row({"skew", "scheme", "tps", "latency(ms)", "aborts", "conflicts"});

  const SchemeKind kSchemes[] = {SchemeKind::kSerial, SchemeKind::kOcc,
                                 SchemeKind::kCg, SchemeKind::kNezha,
                                 SchemeKind::kNezhaNoReorder};
  for (double skew : {0.2, 0.8}) {
    for (SchemeKind kind : kSchemes) {
      SimulationConfig config;
      config.workload.num_accounts = 10'000;
      config.workload.skew = skew;
      config.block_size = block_size;
      config.block_concurrency = concurrency;
      config.epochs = epochs;
      config.seed = 90'000 + static_cast<std::uint64_t>(skew * 10);
      config.node.scheme = kind;
      config.node.model_execution_cost = true;

      obs::FlightRecorder::Global().Clear();
      const auto summary = RunSimulation(config);
      if (!summary.ok()) {
        std::fprintf(stderr, "bench_suite: %s failed: %s\n", SchemeName(kind),
                     summary.status().message().c_str());
        return 1;
      }

      JsonResult result;
      result.bench = "suite";
      result.scheme = SchemeName(kind);
      result.params.Set("workload", "smallbank");
      result.params.Set("skew", skew);
      result.params.Set("block_size", block_size);
      result.params.Set("block_concurrency", concurrency);
      result.params.Set("epochs", epochs);
      result.params.Set("seed", config.seed);
      result.throughput_tps = summary->EffectiveTps();
      result.latency_ms = summary->MeanTotalMs();
      result.abort_rate = summary->AbortRate();
      result.rollup = DrainRollup();
      report.Add(result);

      Row({Fmt(skew, 1), SchemeName(kind), Fmt(result.throughput_tps, 1),
           Fmt(result.latency_ms, 2), FmtPct(result.abort_rate),
           FmtInt(result.rollup.ConflictAborts())});
    }
  }

  Header("Parallel pipeline — threads dimension",
         "4096-tx epoch; cc+merge measured, execution modelled per group "
         "(docs/PARALLELISM.md)");
  const double speedup = RunParallelPipelineBench(report);
  std::printf("\nBuildSchedule+Execute speedup, 1 -> 8 threads: %.2fx\n",
              speedup);
  // Acceptance gate (ISSUE: >= 2x at 4096 txs / 8 threads). The committed
  // baseline then locks the achieved ratio via check_bench_regression.
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "bench_suite: parallel pipeline speedup %.2fx < 2x gate\n",
                 speedup);
    return 1;
  }

  Header("Parallel efficiency — measured pool utilisation",
         "pipeline profiler busy/(workers x span) per scheme x threads; "
         "best of 3 reps (docs/OBSERVABILITY.md, \"Pipeline profiler\")");
  if (!RunParallelEfficiencySection(report)) return 1;

  Header("Sustained load — client-observed commit latency",
         "steady arrival, open pipeline; exact per-tx e2e percentiles "
         "(submitted -> durably committed)");
  if (!RunSustainedSection(report)) return 1;

  if (!report.WriteTo(json_path)) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
