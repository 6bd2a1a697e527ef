// bottleneck_report: runs a fixed-seed workload through the full pipeline
// with the pipeline profiler armed (src/obs/profiler.h) and answers "where
// did the cores go": a per-epoch efficiency table, a per-stage rollup
// (wall vs busy vs CPU, queue-wait p95, per-stage efficiency), the
// critical path with Amdahl speedup-if-parallelized estimates, and a
// top-3 bottleneck verdict. The per-epoch profiles are also written as
// JSON Lines (one EpochProfile object per line — the flight-record
// "profile" schema, docs/OBSERVABILITY.md) for offline diffing; CI
// archives that file from the bench-regression job.
//
// Usage: bottleneck_report [--scheme S] [--epochs N] [--block-size B]
//                          [--concurrency W] [--threads T] [--skew Z]
//                          [--seed X] [--jsonl PATH]
//   e.g.: ./build/examples/bottleneck_report --skew 0.99 --epochs 4
//
// The defaults reproduce the 4096-tx epoch the bench suite's threads
// dimension measures (512-tx blocks x 8 blocks, skew 0.6, seed 91000), so
// the dominant stage printed here can be cross-checked against the
// per-sub-phase latencies of `nezha_bench_suite --only fig10`.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cc/scheduler.h"
#include "node/simulation.h"
#include "obs/profiler.h"

using namespace nezha;

namespace {

constexpr char kUsage[] =
    "usage: bottleneck_report [--scheme S] [--epochs N] [--block-size B]\n"
    "                         [--concurrency W] [--threads T] [--skew Z]\n"
    "                         [--seed X] [--jsonl PATH]\n"
    "  --scheme S       serial | occ | cg | nezha (default nezha)\n"
    "  --epochs N       epochs to simulate (default 4)\n"
    "  --block-size B   transactions per block (default 512)\n"
    "  --concurrency W  blocks per epoch (default 8 -> 4096 txs/epoch)\n"
    "  --threads T      pool workers (default 8)\n"
    "  --skew Z         Zipfian account skew (default 0.6)\n"
    "  --seed X         workload seed (default 91000)\n"
    "  --jsonl PATH     per-epoch EpochProfile JSON Lines\n"
    "                   (default bottleneck_report.jsonl)\n"
    "  --no-profile     kill-switch the profiler; prints only the mean\n"
    "                   epoch latency (the A/B overhead baseline,\n"
    "                   docs/OBSERVABILITY.md overhead table)\n";

/// Aggregate of one stage across every profiled epoch.
struct StageAgg {
  double wall_ms = 0;
  double busy_ms = 0;
  double cpu_ms = 0;
  std::uint64_t tasks = 0;
  double wait_p95_us = 0;  ///< max over epochs (worst observed)
  double eff_num = 0;      ///< wall-weighted efficiency numerator
};

}  // namespace

int main(int argc, char** argv) {
  SimulationConfig config;
  config.node.scheme = SchemeKind::kNezha;
  config.node.worker_threads = 8;
  config.epochs = 4;
  config.block_size = 512;
  config.block_concurrency = 8;
  config.workload.num_accounts = 10'000;
  config.workload.skew = 0.6;
  config.seed = 91'000;
  std::string jsonl_path = "bottleneck_report.jsonl";
  bool profile = true;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(1);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--scheme") == 0) {
      auto scheme = ParseScheme(next());
      if (!scheme.ok()) {
        std::fprintf(stderr, "unknown scheme '%s'\n", argv[i]);
        return 1;
      }
      config.node.scheme = *scheme;
    } else if (std::strcmp(argv[i], "--epochs") == 0) {
      config.epochs = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--block-size") == 0) {
      config.block_size = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--concurrency") == 0) {
      config.block_concurrency = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      config.node.worker_threads = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--skew") == 0) {
      config.workload.skew = std::strtod(next(), nullptr);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      config.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--jsonl") == 0) {
      jsonl_path = next();
    } else if (std::strcmp(argv[i], "--no-profile") == 0) {
      profile = false;
    } else {
      std::fputs(kUsage, stderr);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 1;
    }
  }

  obs::Profiler().SetEnabled(profile);

  auto summary = RunSimulation(config);
  if (!summary.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  if (!profile) {
    // The A/B overhead baseline: identical run, every stamp gated off at
    // the Sampling() load. Compare against the mean span below.
    std::printf("profiler off: mean epoch latency %.3f ms over %zu epochs\n",
                summary->MeanTotalMs(), summary->reports.size());
    return 0;
  }

  bench::Header("Bottleneck report — where the cores went",
                std::string(SchemeName(config.node.scheme)) + ", " +
                    std::to_string(config.block_size *
                                   config.block_concurrency) +
                    " txs/epoch, skew " + bench::Fmt(config.workload.skew, 2) +
                    ", " + std::to_string(config.node.worker_threads) +
                    " workers");

  // Per-epoch table.
  bench::Row({"epoch", "span(ms)", "eff(%)", "tasks", "idle-gap(ms)",
              "gap-stage", "rss(MB)", "dominant"});
  std::size_t profiled = 0;
  for (const EpochReport& report : summary->reports) {
    const obs::EpochProfile& p = report.profile;
    if (p.span_ms <= 0) continue;
    ++profiled;
    bench::Row({bench::FmtInt(p.epoch), bench::Fmt(p.span_ms, 2),
                bench::Fmt(p.efficiency_pct, 1), bench::FmtInt(p.tasks),
                bench::Fmt(p.largest_idle_gap_ms, 2), p.idle_gap_stage,
                bench::Fmt(p.peak_rss_kb / 1024.0, 1), p.DominantStage()});
  }
  if (profiled == 0) {
    std::fprintf(stderr,
                 "bottleneck_report: no epoch profiles recorded (profiler "
                 "disabled?)\n");
    return 1;
  }
  // Same number --no-profile prints: the A/B overhead comparison.
  std::printf("\nprofiler on: mean epoch latency %.3f ms over %zu epochs\n",
              summary->MeanTotalMs(), summary->reports.size());

  // Per-stage rollup across the run. Stage set and order are deterministic
  // (interned ids in first-appearance order), so a std::map on the name
  // only affects display order.
  std::map<std::string, StageAgg> stages;
  for (const EpochReport& report : summary->reports) {
    for (const obs::StageProfile& s : report.profile.stages) {
      StageAgg& agg = stages[s.stage];
      agg.wall_ms += s.wall_ms;
      agg.busy_ms += s.busy_ms;
      agg.cpu_ms += s.cpu_ms;
      agg.tasks += s.tasks;
      agg.wait_p95_us = std::max(agg.wait_p95_us, s.wait_p95_us);
      agg.eff_num += s.efficiency_pct * s.wall_ms;
    }
  }
  std::printf("\nPer-stage rollup (%zu epochs):\n", profiled);
  bench::Row({"stage", "wall(ms)", "busy(ms)", "cpu(ms)", "eff(%)", "tasks",
              "wait-p95(us)"},
             16);
  for (const auto& [name, agg] : stages) {
    bench::Row({name, bench::Fmt(agg.wall_ms, 2), bench::Fmt(agg.busy_ms, 2),
                bench::Fmt(agg.cpu_ms, 2),
                bench::Fmt(agg.wall_ms > 0 ? agg.eff_num / agg.wall_ms : 0, 1),
                bench::FmtInt(agg.tasks), bench::Fmt(agg.wait_p95_us, 1)},
               16);
  }

  // Critical path of the last profiled epoch, plus the top-3 verdict
  // aggregated over every epoch (sum of per-epoch bottleneck wall).
  const obs::EpochProfile* last = nullptr;
  std::map<std::string, double> verdict_wall;
  std::map<std::string, double> verdict_amdahl;  ///< max over epochs
  for (const EpochReport& report : summary->reports) {
    if (report.profile.span_ms <= 0) continue;
    last = &report.profile;
    const obs::CriticalPathReport path =
        obs::AnalyzeCriticalPath(report.profile);
    for (const auto& node : path.bottlenecks) {
      verdict_wall[node.stage] += node.wall_ms;
      verdict_amdahl[node.stage] =
          std::max(verdict_amdahl[node.stage], node.amdahl_speedup);
    }
  }
  if (last != nullptr) {
    const obs::CriticalPathReport path = obs::AnalyzeCriticalPath(*last);
    std::printf("\nCritical path, epoch %llu (%.2f ms, %.1f%% of span):\n",
                static_cast<unsigned long long>(last->epoch),
                path.total_wall_ms, path.covered_pct);
    bench::Row({"stage", "wall(ms)", "cpu(ms)", "eff(%)", "amdahl(x)"}, 16);
    for (const auto& node : path.chain) {
      bench::Row({node.stage, bench::Fmt(node.wall_ms, 2),
                  bench::Fmt(node.cpu_ms, 2),
                  bench::Fmt(node.efficiency_pct, 1),
                  bench::Fmt(node.amdahl_speedup, 2)},
                 16);
    }
  }

  // Phase-level dominant stage: depth-0 spans are the pipeline envelopes
  // (validate / execute / cc / commit), the same partition the bench
  // suite's fig10 section measures — the two reports must name the same
  // dominant phase on the same workload.
  std::map<std::string, double> phase_wall;
  for (const EpochReport& report : summary->reports) {
    for (const obs::StageSpan& span : report.profile.spans) {
      if (span.depth != 0) continue;
      phase_wall[std::string(obs::StageName(span.stage))] +=
          (span.end_us - span.start_us) / 1000.0;
    }
  }
  std::string dominant_phase;
  double dominant_phase_ms = 0;
  for (const auto& [name, wall] : phase_wall) {
    if (wall > dominant_phase_ms) {
      dominant_phase_ms = wall;
      dominant_phase = name;
    }
  }

  // The verdict: top-3 bottleneck stages by total critical-path wall.
  std::vector<std::pair<std::string, double>> ranked(verdict_wall.begin(),
                                                     verdict_wall.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (ranked.size() > 3) ranked.resize(3);
  std::printf("\nVerdict — top bottlenecks over %zu epochs:\n", profiled);
  int rank = 0;
  for (const auto& [name, wall] : ranked) {
    std::printf("  %d. %-16s %8.2f ms on the critical path "
                "(speedup if parallelized: %.2fx)\n",
                ++rank, name.c_str(), wall, verdict_amdahl[name]);
  }
  if (!dominant_phase.empty()) {
    std::printf("  dominant phase: %s (%.2f ms total) — cross-check "
                "nezha_bench_suite --only fig10\n",
                dominant_phase.c_str(), dominant_phase_ms);
  }

  // JSONL export: one EpochProfile object per line.
  if (!jsonl_path.empty()) {
    std::FILE* f = std::fopen(jsonl_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", jsonl_path.c_str());
      return 1;
    }
    for (const EpochReport& report : summary->reports) {
      if (report.profile.span_ms <= 0) continue;
      const std::string line = report.profile.ToJson();
      std::fwrite(line.data(), 1, line.size(), f);
      std::fputc('\n', f);
    }
    std::fclose(f);
    std::printf("\n[jsonl] wrote %zu epoch profiles to %s\n", profiled,
                jsonl_path.c_str());
  }
  return 0;
}
