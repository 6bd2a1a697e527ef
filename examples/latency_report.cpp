// latency_report: runs N epochs through the full pipeline with the
// per-transaction lifecycle tracer armed and prints the epoch-by-epoch
// latency decomposition — end-to-end commit latency percentiles plus the
// mean wait at every stage hand-off (include / confirm / schedule /
// execute / commit) and the top-K slowest transactions with their
// per-stage breakdown (docs/OBSERVABILITY.md, "Transaction lifecycle").
//
// Usage: latency_report [--scheme S] [--epochs N] [--block-size B]
//                       [--concurrency W] [--skew Z] [--json PATH]
//   e.g.: ./build/examples/latency_report --scheme nezha --epochs 8
//
// --json PATH writes one EpochLatencySummary JSON object per line — the
// same "latency" object the flight recorder embeds per epoch.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "cc/scheduler.h"
#include "node/simulation.h"
#include "obs/tx_lifecycle.h"

using namespace nezha;

namespace {

constexpr char kUsage[] =
    "usage: latency_report [--scheme S] [--epochs N] [--block-size B]\n"
    "                      [--concurrency W] [--skew Z] [--json PATH]\n"
    "  --scheme S       serial | occ | cg | nezha (default nezha)\n"
    "  --epochs N       epochs to simulate (default 8)\n"
    "  --block-size B   transactions per block (default 200)\n"
    "  --concurrency W  blocks per epoch (default 4)\n"
    "  --skew Z         Zipfian account skew (default 0.6)\n"
    "  --json PATH      per-epoch latency summaries as JSON Lines\n";

void PrintWaitRow(const obs::EpochLatencySummary& latency) {
  for (std::size_t w = 0; w < obs::kNumStageWaits; ++w) {
    const obs::StageWaitSummary& wait = latency.waits[w];
    if (wait.count == 0) continue;
    std::printf("    wait %-9s mean %8.3f ms  p95 %8.3f ms  max %8.3f ms\n",
                obs::StageWaitName(w), wait.mean_ms, wait.p95_ms,
                wait.max_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  SimulationConfig config;
  config.node.scheme = SchemeKind::kNezha;
  config.block_concurrency = 4;
  config.epochs = 8;
  config.workload.num_accounts = 10'000;
  config.workload.skew = 0.6;
  config.block_size = 200;
  config.seed = 2026;
  std::string json_path;

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
    } else if (std::strcmp(argv[i], "--skew") == 0) {
      config.workload.skew = std::strtod(next(), nullptr);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = next();
    } else {
      std::fputs(kUsage, stderr);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 1;
    }
  }

  obs::Lifecycle().SetEnabled(true);
  obs::Lifecycle().Clear();

  auto summary = RunSimulation(config);
  if (!summary.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }

  std::printf("# %s: %zu epochs, %zu txs, %zu committed, abort rate %.2f%%\n",
              SchemeName(config.node.scheme), summary->reports.size(),
              summary->TotalTxs(), summary->TotalCommitted(),
              summary->AbortRate() * 100);

  FILE* json = nullptr;
  if (!json_path.empty()) {
    json = std::fopen(json_path.c_str(), "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
  }

  for (const EpochReport& report : summary->reports) {
    const obs::EpochLatencySummary& latency = report.latency;
    if (latency.tracked == 0) continue;
    std::printf(
        "epoch %-4llu  %4u txs (%u committed, %u aborted)  "
        "e2e p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms  max %8.3f ms\n",
        static_cast<unsigned long long>(latency.epoch), latency.tracked,
        latency.committed, latency.aborted, latency.e2e.p50_ms,
        latency.e2e.p95_ms, latency.e2e.p99_ms, latency.e2e.max_ms);
    PrintWaitRow(latency);
    for (const obs::EpochLatencySummary::SlowTx& slow : latency.slowest) {
      std::printf("    slow tx %-4u e2e %8.3f ms", slow.tx, slow.e2e_ms);
      for (std::size_t w = 0; w < obs::kNumStageWaits; ++w) {
        if (slow.wait_ms[w] < 0) continue;
        std::printf("  %s %.3f", obs::StageWaitName(w), slow.wait_ms[w]);
      }
      std::printf("\n");
    }
    if (json != nullptr) {
      const std::string line = latency.ToJson();
      std::fprintf(json, "%s\n", line.c_str());
    }
  }

  if (json != nullptr) {
    std::fclose(json);
    std::fprintf(stderr, "# wrote %zu latency summaries to %s\n",
                 summary->reports.size(), json_path.c_str());
  }
  return 0;
}
