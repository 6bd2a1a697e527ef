// Google-benchmark microbenchmarks for the core primitives: ACG
// construction, rank division, transaction sorting, the full Nezha/CG
// pipelines, Johnson enumeration, MPT updates, SHA-256 and the Zipfian
// sampler.
#include <benchmark/benchmark.h>

#include "analysis/det_checkpoint.h"
#include "analysis/schedule_verifier.h"
#include "cc/cg/cg_scheduler.h"
#include "cc/nezha/acg.h"
#include "cc/nezha/nezha_scheduler.h"
#include "cc/nezha/parallel_executor.h"
#include "cc/nezha/rank_division.h"
#include "cc/nezha/tx_sorter.h"
#include "common/sha256.h"
#include "common/zipfian.h"
#include "fault/fault.h"
#include "graph/johnson.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/tx_lifecycle.h"
#include "runtime/concurrent_executor.h"
#include "storage/mpt.h"
#include "workload/smallbank_workload.h"

namespace nezha {
namespace {

std::vector<ReadWriteSet> MakeRWSets(std::size_t n, double skew,
                                     std::uint64_t seed = 42) {
  WorkloadConfig config;
  config.num_accounts = 10'000;
  config.skew = skew;
  SmallBankWorkload workload(config, seed);
  StateDB db;
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(n);
  return ExecuteBatchSerial(snap, txs).rwsets;
}

void BM_AcgConstruction(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AddressConflictGraph::Build(rwsets));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AcgConstruction)
    ->Args({400, 0})
    ->Args({2400, 0})
    ->Args({400, 8})
    ->Args({2400, 8});

// Sharded parallel ACG construction (docs/PARALLELISM.md) at 1/2/4/8 pool
// threads on the epoch-sized 4096-tx batch. On a single-core runner the
// interesting signal is the dispatch overhead vs BM_AcgConstruction; on
// real multi-core hardware the 8-thread point shows the shard scaling.
void BM_ParallelAcgBuild(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  ThreadPool pool(static_cast<std::size_t>(state.range(2)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(AddressConflictGraph::BuildSharded(rwsets, pool));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParallelAcgBuild)
    ->Args({4096, 8, 1})
    ->Args({4096, 8, 2})
    ->Args({4096, 8, 4})
    ->Args({4096, 8, 8});

// Group-parallel schedule execution (apply-recorded mode): per-iteration
// cost of draining one 4096-tx Nezha schedule's commit groups into a fresh
// StateDB through the write buffer.
void BM_GroupParallelExecute(benchmark::State& state) {
  const auto rwsets = MakeRWSets(4096, state.range(0) / 10.0);
  NezhaScheduler scheduler;
  const auto schedule = scheduler.BuildSchedule(rwsets);
  ThreadPool pool(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    StateDB db;
    const StateSnapshot snap = db.MakeSnapshot(0);
    benchmark::DoNotOptimize(
        ExecuteScheduleParallel(pool, db, snap, *schedule, rwsets));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(schedule->NumCommitted()));
}
BENCHMARK(BM_GroupParallelExecute)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 8});

void BM_RankDivision(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  const auto acg = AddressConflictGraph::Build(rwsets);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSortingRanks(acg.dependencies()));
  }
}
BENCHMARK(BM_RankDivision)->Args({2400, 0})->Args({2400, 8});

void BM_TxSorting(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  const auto acg = AddressConflictGraph::Build(rwsets);
  const auto ranks = ComputeSortingRanks(acg.dependencies());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SortTransactions(acg, ranks, rwsets.size(), {}));
  }
}
BENCHMARK(BM_TxSorting)->Args({2400, 0})->Args({2400, 8});

void BM_NezhaFullSchedule(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  NezhaScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.BuildSchedule(rwsets));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NezhaFullSchedule)
    ->Args({400, 2})
    ->Args({2400, 2})
    ->Args({400, 8})
    ->Args({2400, 8})
    ->Args({4096, 2})
    ->Args({4096, 8});

// Same schedule build with the metrics registry kill-switched off: the
// delta between this and BM_NezhaFullSchedule is the observability
// overhead (acceptance bar: < 3%).
void BM_NezhaFullScheduleMetricsOff(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  NezhaScheduler scheduler;
  obs::SetMetricsEnabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.BuildSchedule(rwsets));
  }
  obs::SetMetricsEnabled(true);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NezhaFullScheduleMetricsOff)
    ->Args({400, 2})
    ->Args({2400, 2})
    ->Args({400, 8})
    ->Args({2400, 8});

// Full schedule build with determinism checkpointing on (kAcg/kRank/kSort
// recorded per build): the delta against BM_NezhaFullSchedule at the same
// Args is the auditor's end-to-end overhead (acceptance bar: < 2% on the
// 4096-tx points; docs/ANALYSIS.md "Determinism auditor").
void BM_DetCheckpoint(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  NezhaScheduler scheduler;
  analysis::DetCheckpointRecorder& det =
      analysis::DetCheckpointRecorder::Global();
  det.SetEnabled(true);
  det.Clear();
  EpochId epoch = 0;
  for (auto _ : state) {
    det.BeginEpoch(++epoch, "bench");
    benchmark::DoNotOptimize(scheduler.BuildSchedule(rwsets));
  }
  det.SetEnabled(std::nullopt);
  det.Clear();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DetCheckpoint)
    ->Args({2400, 8})
    ->Args({4096, 2})
    ->Args({4096, 8});

// Isolates one Record() call — SHA-256 over the canonical encoding of a
// 4096-tx schedule plus the ring update — the unit the pipeline pays at
// each stage boundary. Like BM_FlightRecorderRecord, the isolated cost
// resolves overhead ratios that subtracting two end-to-end timings cannot.
void BM_DetCheckpointRecord(benchmark::State& state) {
  const auto rwsets = MakeRWSets(4096, state.range(0) / 10.0);
  NezhaScheduler scheduler;
  const auto schedule = scheduler.BuildSchedule(rwsets);
  const std::string canonical = CanonicalScheduleEncoding(*schedule);
  analysis::DetCheckpointRecorder& det =
      analysis::DetCheckpointRecorder::Global();
  det.SetEnabled(true);
  det.Clear();
  det.BeginEpoch(1, "bench");
  for (auto _ : state) {
    det.Record(analysis::DetStage::kSort, canonical);
  }
  det.SetEnabled(std::nullopt);
  det.Clear();
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(canonical.size()));
}
BENCHMARK(BM_DetCheckpointRecord)->Arg(2)->Arg(8);

// Full schedule build PLUS one epoch flight record (what FullNode adds per
// epoch): the delta against BM_NezhaFullSchedule at the same Args is the
// flight-recorder overhead (acceptance bar: < 2% on the 4096-tx points).
void BM_NezhaFullScheduleFlightRecorded(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  NezhaScheduler scheduler;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Clear();
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    auto schedule = scheduler.BuildSchedule(rwsets);
    obs::EpochFlightRecord record;
    record.epoch = ++epoch;
    record.scheme = "nezha";
    record.txs = static_cast<std::uint32_t>(rwsets.size());
    record.aborted =
        static_cast<std::uint32_t>(schedule->attribution.aborts.size());
    record.committed = record.txs - record.aborted;
    record.attribution = std::move(schedule->attribution);
    recorder.Record(std::move(record));
    benchmark::DoNotOptimize(recorder.TotalRecorded());
  }
  recorder.Clear();
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NezhaFullScheduleFlightRecorded)
    ->Args({2400, 8})
    ->Args({4096, 2})
    ->Args({4096, 8});

// Isolates the per-epoch cost the recorder adds on top of a 4096-tx
// BuildSchedule: build one schedule up front, then time only the record
// construction + Record (copying the attribution, an upper bound — the node
// moves it). Overhead = this time / BM_NezhaFullSchedule/4096/N time; the
// ratio resolves well below 1% where subtracting two ~7 ms end-to-end
// timings cannot on a shared machine.
void BM_FlightRecorderRecord(benchmark::State& state) {
  const auto rwsets = MakeRWSets(4096, state.range(0) / 10.0);
  NezhaScheduler scheduler;
  const auto schedule = scheduler.BuildSchedule(rwsets);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  recorder.Clear();
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    obs::EpochFlightRecord record;
    record.epoch = ++epoch;
    record.scheme = "nezha";
    record.txs = static_cast<std::uint32_t>(rwsets.size());
    record.aborted =
        static_cast<std::uint32_t>(schedule->attribution.aborts.size());
    record.committed = record.txs - record.aborted;
    record.attribution = schedule->attribution;
    recorder.Record(std::move(record));
    benchmark::DoNotOptimize(recorder.TotalRecorded());
  }
  recorder.Clear();
}
BENCHMARK(BM_FlightRecorderRecord)->Arg(2)->Arg(8);

// Isolates the per-epoch lifecycle-tracer cost on one 4096-tx epoch: every
// stamp FullNode's pipeline issues — BeginEpoch (keying + ingress claim),
// the kConfirmed / kScheduled / kExecuted / kCommitted batch stamps, and
// one MarkAborted per scheduler abort. Overhead = this time /
// BM_NezhaFullSchedule/4096/N time (acceptance bar: < 2%); like
// BM_FlightRecorderRecord, the isolated ratio resolves where subtracting
// two end-to-end timings cannot.
void BM_TxLifecycleStamp(benchmark::State& state) {
  const std::size_t n = 4096;
  const auto rwsets = MakeRWSets(n, state.range(0) / 10.0);
  NezhaScheduler scheduler;
  const auto schedule = scheduler.BuildSchedule(rwsets);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t t = 0; t < n; ++t) keys[t] = t * 0x9E3779B9u + 1;
  std::vector<std::pair<std::uint32_t, std::uint8_t>> aborts;
  for (const obs::AbortRecord& r : schedule->attribution.aborts) {
    aborts.emplace_back(r.tx, static_cast<std::uint8_t>(r.kind));
  }
  obs::TxLifecycleTracer& tracer = obs::Lifecycle();
  tracer.Clear();
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    tracer.BeginEpoch(++epoch, "nezha", keys);
    tracer.StampAll(obs::TxStage::kConfirmed);
    tracer.StampAll(obs::TxStage::kScheduled);
    tracer.MarkAbortedBatch(aborts);
    tracer.StampAll(obs::TxStage::kExecuted);
    tracer.StampAll(obs::TxStage::kCommitted);
    benchmark::DoNotOptimize(tracer.CurrentEpochSize());
  }
  tracer.Clear();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TxLifecycleStamp)->Arg(2)->Arg(8);

// FinishEpoch alone (sorted-vector percentiles + histogram publishing +
// top-K selection) on the same 4096-tx epoch — the once-per-epoch rollup
// cost, reported separately from the stamp path above because it runs off
// the phase-critical path (after the report is assembled).
void BM_TxLifecycleFinish(benchmark::State& state) {
  const std::size_t n = 4096;
  std::vector<std::uint64_t> keys(n);
  for (std::size_t t = 0; t < n; ++t) keys[t] = t * 0x9E3779B9u + 1;
  obs::TxLifecycleTracer& tracer = obs::Lifecycle();
  tracer.Clear();
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    state.PauseTiming();
    tracer.BeginEpoch(++epoch, "nezha", keys);
    tracer.StampAll(obs::TxStage::kConfirmed);
    tracer.StampAll(obs::TxStage::kScheduled);
    tracer.StampAll(obs::TxStage::kExecuted);
    tracer.StampAll(obs::TxStage::kCommitted);
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracer.FinishEpoch());
  }
  tracer.Clear();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TxLifecycleFinish);

// The per-task profiler stamp alone: what every pool task pays while an
// epoch profiling window is open — two thread-CPU clock reads, two
// steady-clock reads, and one striped RecordTask push
// (docs/OBSERVABILITY.md "Pipeline profiler" overhead table). The window
// is re-opened every 32k iterations so the sample buffer never hits the
// drop cap (a dropped sample skips the push and would flatter the
// number); the BeginEpoch cost amortizes to noise. Acceptance bar:
// O(100 ns) per stamp, i.e. microseconds per epoch at the pipeline's
// tens-of-tasks-per-epoch fan-out.
void BM_ProfilerStamp(benchmark::State& state) {
  obs::PipelineProfiler& profiler = obs::Profiler();
  profiler.SetEnabled(true);
  profiler.Clear();
  const obs::StageId stage = obs::InternStage("bm_profiler_stage");
  const std::uint32_t tid = obs::CurrentThreadId();
  std::uint64_t epoch = 0;
  std::uint64_t i = 0;
  profiler.BeginEpoch(++epoch, "microbench", 8);
  for (auto _ : state) {
    if ((++i & 0x7FFF) == 0) profiler.BeginEpoch(++epoch, "microbench", 8);
    const double cpu_begin = obs::ThreadCpuUs();
    const double start_us = obs::PhaseTracer::NowUs();
    const double finish_us = obs::PhaseTracer::NowUs();
    obs::TaskSample sample;
    sample.stage = stage;
    sample.tid = tid;
    sample.enqueue_us = start_us;
    sample.start_us = start_us;
    sample.finish_us = finish_us;
    sample.cpu_us = obs::ThreadCpuUs() - cpu_begin;
    profiler.RecordTask(sample);
    benchmark::DoNotOptimize(sample.cpu_us);
  }
  profiler.FinishEpoch();
  profiler.Clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerStamp);

// FinishEpoch alone on an epoch-sized sample set (one stamp per task of a
// 4096-task fan-out across 8 workers and 4 stages, plus the pipeline's
// stage spans): the once-per-epoch aggregation — stripe drain, per-stage
// rollup, exact wait percentiles, idle-gap scan, Prometheus publishing —
// runs AFTER the epoch report is assembled, off the phase-critical path,
// so this cost bounds reporting latency rather than pipeline latency.
void BM_ProfilerEpochFinish(benchmark::State& state) {
  obs::PipelineProfiler& profiler = obs::Profiler();
  profiler.SetEnabled(true);
  profiler.Clear();
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  const obs::StageId stages[4] = {
      obs::InternStage("bm_finish_a"), obs::InternStage("bm_finish_b"),
      obs::InternStage("bm_finish_c"), obs::InternStage("bm_finish_d")};
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    state.PauseTiming();
    profiler.BeginEpoch(++epoch, "microbench", 8);
    for (std::size_t t = 0; t < tasks; ++t) {
      obs::TaskSample sample;
      sample.stage = stages[t & 3];
      sample.tid = static_cast<std::uint32_t>(t & 7);
      sample.enqueue_us = static_cast<double>(t);
      sample.start_us = sample.enqueue_us + 5;
      sample.finish_us = sample.start_us + 40;
      sample.cpu_us = 35;
      profiler.RecordTask(sample);
    }
    {
      obs::Stage span("bm_finish_span");
      benchmark::DoNotOptimize(epoch);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(profiler.FinishEpoch());
  }
  profiler.Clear();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_ProfilerEpochFinish)->Arg(64)->Arg(4096);

// The serializability oracle alone on one epoch-sized batch (4096 txs is
// the paper's largest block-size point): the cost the debug/ASan suites pay
// per BuildSchedule, and the denominator for docs/ANALYSIS.md §Overhead.
void BM_VerifySchedule(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  SetScheduleVerification(false);  // measure the oracle alone
  NezhaScheduler scheduler;
  const auto schedule = scheduler.BuildSchedule(rwsets);
  SetScheduleVerification(std::nullopt);
  analysis::VerifierOptions options;
  options.reordered = schedule->reordered;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::VerifySchedule(*schedule, rwsets, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifySchedule)
    ->Args({400, 2})
    ->Args({4096, 2})
    ->Args({4096, 8});

// Full build with the oracle hooked in (what a debug-build BuildSchedule
// costs); compare against BM_NezhaFullSchedule for the end-to-end overhead.
void BM_NezhaFullScheduleVerified(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  NezhaScheduler scheduler;
  SetScheduleVerification(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.BuildSchedule(rwsets));
  }
  SetScheduleVerification(std::nullopt);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NezhaFullScheduleVerified)
    ->Args({400, 2})
    ->Args({4096, 2})
    ->Args({4096, 8});

void BM_CgFullSchedule(benchmark::State& state) {
  const auto rwsets = MakeRWSets(static_cast<std::size_t>(state.range(0)),
                                 state.range(1) / 10.0);
  CGScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.BuildSchedule(rwsets));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CgFullSchedule)->Args({400, 2})->Args({400, 8})->Args({1200, 6});

void BM_JohnsonCompleteGraph(benchmark::State& state) {
  const auto n = static_cast<Digraph::Vertex>(state.range(0));
  Digraph g(n);
  for (Digraph::Vertex u = 0; u < n; ++u) {
    for (Digraph::Vertex v = 0; v < n; ++v) {
      if (u != v) g.AddEdge(u, v);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindElementaryCircuits(g));
  }
}
BENCHMARK(BM_JohnsonCompleteGraph)->Arg(5)->Arg(7)->Arg(8);

void BM_MptPut(benchmark::State& state) {
  MerklePatriciaTrie trie;
  std::uint64_t i = 0;
  for (auto _ : state) {
    trie.Put("key" + std::to_string(i++ % 100000), "value");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MptPut);

void BM_MptRootHash(benchmark::State& state) {
  MerklePatriciaTrie trie;
  for (int i = 0; i < state.range(0); ++i) {
    trie.Put("key" + std::to_string(i), "value" + std::to_string(i));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    // Dirty one leaf, recompute the root (incremental re-hash path).
    trie.Put("key" + std::to_string(i++ % state.range(0)), "new");
    benchmark::DoNotOptimize(trie.RootHash());
  }
}
BENCHMARK(BM_MptRootHash)->Arg(1000)->Arg(20000);

// The disarmed fault-injection probe: the per-site cost every production
// storage write / commit step pays. Must stay at "one relaxed atomic load"
// — single-digit nanoseconds (docs/ROBUSTNESS.md).
void BM_FaultCheckDisarmed(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::Check(fault::sites::kKvWrite));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultCheckDisarmed);

// The armed counterpart (empty plan: every probe misses): what a test run
// pays per site. Orders of magnitude slower is fine — it never ships.
void BM_FaultCheckArmedMiss(benchmark::State& state) {
  fault::ScopedPlan armed(fault::Plan{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::Check(fault::sites::kKvWrite));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultCheckArmedMiss);

void BM_Sha256(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator gen(10'000, state.range(0) / 10.0);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfianNext)->Arg(0)->Arg(9);

void BM_SmallBankSimulation(benchmark::State& state) {
  WorkloadConfig config;
  config.num_accounts = 10'000;
  SmallBankWorkload workload(config, 5);
  StateDB db;
  SmallBankWorkload::InitAccounts(db, config.num_accounts, 1000, 1000);
  const StateSnapshot snap = db.MakeSnapshot(0);
  const auto txs = workload.MakeBatch(1000);
  const ExecMode mode =
      state.range(0) == 0 ? ExecMode::kNative : ExecMode::kBytecode;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimulateTransaction(snap, txs[i++ % 1000], mode));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmallBankSimulation)->Arg(0)->Arg(1);

}  // namespace
}  // namespace nezha

BENCHMARK_MAIN();
