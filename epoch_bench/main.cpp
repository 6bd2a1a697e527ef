// epoch_bench: the repository benchmark (README.md in this directory).
//
//   epoch_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <file>] [--repeat-dir <dir> --build-id <id>]
//
// --trace 0 runs untraced passes of the closed loop until --seconds of timed
// loop have accumulated and prints the end-to-end metrics; --trace 1 runs
// traced passes for --seconds, one untraced pass and the Serial reference,
// and prints the per-layer metrics. Either way the last stdout line is one
// JSON object {correct, attempted, failed, metrics}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "common/sha256.h"
#include "epoch_bench/harness.h"

using namespace epoch_bench;

namespace {

/// Set-up is timed at least this often, so setup_s is a median.
constexpr std::size_t kMinSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string repeat_dir;
  std::string build_id;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--repeat-dir") {
      args.repeat_dir = value;
    } else if (key == "--build-id") {
      args.build_id = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

/// Interpolated percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Ordered metric name -> (value, unit); printed as the result's "metrics".
class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    entries_.push_back({std::move(name), value, std::move(unit)});
  }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

  void Print(FILE* to) const {
    for (const Entry& e : entries_) {
      std::fprintf(to, "  %-28s %14.4f %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Digest of the per-epoch outcomes plus any deterministic counts.
std::string Fingerprint(const std::vector<EpochOutcome>& outcomes,
                        const std::string& counts) {
  std::string text = counts;
  for (const EpochOutcome& o : outcomes) {
    text += o.state_root.ToHex() + o.receipt_root.ToHex() + " " +
            std::to_string(o.txs) + " " + std::to_string(o.committed) + " " +
            std::to_string(o.aborted) + "\n";
  }
  return nezha::Sha256::Digest(text).ToHex();
}

/// Exact-repeat self-check across runs: the first run of a (workload, seed,
/// mode) under a build records its fingerprint; every later run under the
/// same build must reproduce it. Returns an error message or "".
std::string CheckRepeat(const Args& args, const std::string& fingerprint) {
  if (args.repeat_dir.empty()) return "";
  const std::string path = args.repeat_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           (args.trace ? "traced" : "untraced") + ".txt";
  const std::string record = args.build_id + " " + fingerprint;
  std::string previous;
  if (std::ifstream in(path); in) std::getline(in, previous);
  if (previous.rfind(args.build_id + " ", 0) == 0) {
    return previous == record
               ? ""
               : "deterministic counts differ from an earlier run of this seed";
  }
  std::ofstream(path) << record << "\n";
  return "";
}

/// The traced pass's counts that a seed fixes, one line per epoch.
std::string DeterministicCounts(const TracedPass& pass) {
  std::string text;
  for (const TracedEpoch& te : pass.epochs) {
    for (const std::uint64_t count :
         {std::uint64_t{te.dirty_cells}, std::uint64_t{te.commit_bytes},
          std::uint64_t{te.rw_units}, std::uint64_t{te.acg_vertices},
          std::uint64_t{te.acg_edges}, te.rank_cycle_breaks,
          te.reorder_attempts, te.reorder_commits, std::uint64_t{te.groups},
          std::uint64_t{te.max_group}}) {
      text += std::to_string(count) + " ";
    }
    text += "\n";
  }
  return text;
}

struct Verdict {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void Fail(const std::string& why) {
    if (why.empty()) return;
    std::fprintf(stderr, "epoch_bench: CHECK FAILED: %s\n", why.c_str());
    correct = false;
  }
};

void PrintResult(const Verdict& verdict, const Metrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      verdict.correct ? "true" : "false", verdict.attempted, verdict.failed,
      metrics.Json().c_str());
  std::fflush(stdout);
}

/// Untraced passes until `seconds` of timed loop (and kMinSetups set-ups);
/// the first pass is receipt-replay verified, the others must reproduce it.
int RunUntraced(const Args& args, const WorkloadSpec& spec) {
  Verdict verdict;
  std::vector<PassResult> passes;
  double timed_s = 0;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  while (passes.empty() || timed_s < args.seconds) {
    nezha::Result<PassResult> pass =
        RunPass(spec, args.seed, 0, passes.empty());
    if (!pass.ok()) {
      std::fprintf(stderr, "epoch_bench: pass failed: %s\n",
                   pass.status().ToString().c_str());
      return 1;
    }
    timed_s += pass->loop_s;
    setup_s.push_back(pass->setup_s);
    std::fprintf(stderr,
                 "  pass %zu: set-up %.3f s, loop %.3f s, p50 %.3f ms, "
                 "p90 %.3f ms\n",
                 passes.size() + 1, pass->setup_s, pass->loop_s,
                 Percentile(pass->epoch_ms, 50),
                 Percentile(pass->epoch_ms, 90));
    passes.push_back(std::move(pass.value()));
    // Before the replay check and any later pass can raise the high-water
    // mark, so the figure does not depend on how many passes fit.
    if (passes.size() == 1) peak_rss_mb = PeakRssMb();
  }
  while (setup_s.size() < kMinSetups) {
    nezha::Result<double> seconds = MeasureSetup(spec, args.seed);
    if (!seconds.ok()) {
      std::fprintf(stderr, "epoch_bench: set-up failed: %s\n",
                   seconds.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(*seconds);
  }

  verdict.Fail(ReplayVerify(spec, passes.front()));
  std::vector<double> epoch_ms;
  std::size_t txs = 0, committed = 0;
  for (const PassResult& pass : passes) {
    if (pass.outcomes != passes.front().outcomes) {
      verdict.Fail("a later pass committed different epochs than the first");
    }
    epoch_ms.insert(epoch_ms.end(), pass.epoch_ms.begin(),
                    pass.epoch_ms.end());
    for (const EpochOutcome& o : pass.outcomes) {
      txs += o.txs;
      committed += o.committed;
    }
  }
  verdict.Fail(CheckRepeat(args, Fingerprint(passes.front().outcomes, "")));
  verdict.attempted = txs;
  verdict.failed = 0;  // every transaction got a receipt (ReplayVerify)

  Metrics metrics;
  metrics.Add("goodput_tps", static_cast<double>(committed) / timed_s, "1/s");
  metrics.Add("epoch_p50_ms", Percentile(epoch_ms, 50), "ms");
  metrics.Add("epoch_p90_ms", Percentile(epoch_ms, 90), "ms");
  metrics.Add("abort_rate",
              static_cast<double>(txs - committed) / static_cast<double>(txs),
              "ratio");
  metrics.Add("setup_s", Median(setup_s), "s");
  metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  std::fprintf(stderr, "epoch_bench %s seed %llu: %zu passes x %zu epochs\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               passes.size(), spec.epochs);
  metrics.Print(stderr);
  PrintResult(verdict, metrics);
  return 0;
}

/// Traced passes for `seconds`, one untraced pass (verified) after the first
/// of them so that it runs as warm as they do, and the Serial reference;
/// prints the per-layer metrics.
int RunTraced(const Args& args, const WorkloadSpec& spec) {
  Verdict verdict;
  std::vector<TracedEpoch> epochs;
  TracedPass last;
  PassResult untraced;
  double traced_s = 0;
  while (epochs.empty() || traced_s < args.seconds) {
    nezha::Result<TracedPass> traced = RunTracedPass(spec, args.seed, 0);
    if (!traced.ok()) {
      std::fprintf(stderr, "epoch_bench: traced pass failed: %s\n",
                   traced.status().ToString().c_str());
      return 1;
    }
    if (epochs.empty()) {
      nezha::Result<PassResult> pass = RunPass(spec, args.seed, 0, true);
      if (!pass.ok()) {
        std::fprintf(stderr, "epoch_bench: pass failed: %s\n",
                     pass.status().ToString().c_str());
        return 1;
      }
      untraced = std::move(pass.value());
      verdict.Fail(ReplayVerify(spec, untraced));
    }
    std::vector<EpochOutcome> outcomes;
    for (const TracedEpoch& te : traced->epochs) {
      outcomes.push_back(te.outcome);
      traced_s += te.WallMs() / 1000.0;
    }
    if (outcomes != untraced.outcomes) {
      verdict.Fail("traced roots differ from the untraced run's");
    }
    if (!epochs.empty() &&
        DeterministicCounts(*traced) != DeterministicCounts(last)) {
      verdict.Fail("a later traced pass counted different work than the first");
    }
    epochs.insert(epochs.end(), traced->epochs.begin(), traced->epochs.end());
    last = std::move(traced.value());
  }
  nezha::Result<std::vector<double>> serial =
      RunSerialReference(spec, args.seed, 0);
  if (!serial.ok()) {
    std::fprintf(stderr, "epoch_bench: serial reference failed: %s\n",
                 serial.status().ToString().c_str());
    return 1;
  }
  if (!args.trace_out.empty()) {
    if (nezha::Status s = WriteChromeTrace(args.trace_out, last); !s.ok()) {
      verdict.Fail(s.ToString());
    }
  }

  // Times are per-epoch medians over every traced epoch; counts are
  // per-epoch means; ratios are whole-run totals over their base.
  const auto span_median = [&](std::string_view name) {
    std::vector<double> values;
    for (const TracedEpoch& te : epochs) values.push_back(te.span_ms.at(name));
    return Median(std::move(values));
  };
  std::vector<double> wall, unattributed, spans, cc_overhead, snapshot;
  double cpu_ms = 0, wall_ms = 0;
  double units = 0, reverted = 0, cc_aborted = 0, txs = 0, bytes = 0,
         committed = 0;
  for (const TracedEpoch& te : epochs) {
    wall.push_back(te.WallMs());
    unattributed.push_back(te.UnattributedMs());
    spans.push_back(te.spans_ms);
    cc_overhead.push_back(te.span_ms.at("cc.schedule") -
                          te.span_ms.at("cc.acg") - te.span_ms.at("cc.rank") -
                          te.span_ms.at("cc.sort"));
    snapshot.push_back(te.span_ms.at("storage.snapshot") +
                       te.span_ms.at("storage.snapshot_release"));
    cpu_ms += te.cpu_ms;
    wall_ms += te.WallMs();
    units += static_cast<double>(te.rw_units);
    reverted += static_cast<double>(te.reverted);
    cc_aborted += static_cast<double>(te.cc_aborted);
    txs += static_cast<double>(te.outcome.txs);
    committed += static_cast<double>(te.outcome.committed);
    bytes += static_cast<double>(te.commit_bytes);
  }
  const auto per_epoch = [&](auto field) {
    double total = 0;
    for (const TracedEpoch& te : epochs) {
      total += static_cast<double>(te.*field);
    }
    return total / static_cast<double>(epochs.size());
  };
  verdict.Fail(CheckRepeat(
      args, Fingerprint(untraced.outcomes, DeterministicCounts(last))));
  verdict.attempted = static_cast<std::size_t>(txs);

  Metrics metrics;
  metrics.Add("ledger.ingest_ms", span_median("ledger.ingest"), "ms");
  metrics.Add("ledger.validate_ms", span_median("ledger.validate"), "ms");
  metrics.Add("storage.snapshot_ms", Median(snapshot), "ms");
  metrics.Add("storage.root_ms", span_median("storage.root"), "ms");
  metrics.Add("storage.assemble_ms", span_median("storage.assemble"), "ms");
  metrics.Add("storage.kv_write_ms", span_median("storage.kv_write"), "ms");
  metrics.Add("storage.dirty_cells", per_epoch(&TracedEpoch::dirty_cells),
              "count");
  metrics.Add("storage.bytes_per_tx", bytes / committed, "B");
  metrics.Add("runtime.spec_exec_ms", span_median("runtime.spec_exec"), "ms");
  metrics.Add("runtime.rw_units_per_tx", units / txs, "count");
  metrics.Add("vm.revert_rate", reverted / txs, "ratio");
  metrics.Add("cc.schedule_ms", span_median("cc.schedule"), "ms");
  metrics.Add("cc.acg_ms", span_median("cc.acg"), "ms");
  metrics.Add("cc.rank_ms", span_median("cc.rank"), "ms");
  metrics.Add("cc.sort_ms", span_median("cc.sort"), "ms");
  metrics.Add("cc.overhead_ms", Median(cc_overhead), "ms");
  metrics.Add("cc.acg_vertices", per_epoch(&TracedEpoch::acg_vertices),
              "count");
  metrics.Add("cc.acg_edges", per_epoch(&TracedEpoch::acg_edges), "count");
  metrics.Add("cc.rank_cycle_breaks",
              per_epoch(&TracedEpoch::rank_cycle_breaks), "count");
  metrics.Add("cc.reorder_attempts", per_epoch(&TracedEpoch::reorder_attempts),
              "count");
  metrics.Add("cc.reorder_commits", per_epoch(&TracedEpoch::reorder_commits),
              "count");
  metrics.Add("cc.abort_rate", cc_aborted / txs, "ratio");
  metrics.Add("node.receipts_ms", span_median("node.receipts"), "ms");
  metrics.Add("exec.group_ms", span_median("exec.group"), "ms");
  metrics.Add("exec.groups", per_epoch(&TracedEpoch::groups), "count");
  metrics.Add("exec.max_group", per_epoch(&TracedEpoch::max_group), "count");
  metrics.Add("pool.cpu_util",
              cpu_ms / (wall_ms * static_cast<double>(last.pool_workers)),
              "ratio");
  metrics.Add("trace.epoch_ms", Median(wall), "ms");
  metrics.Add("trace.unattributed_ms", Median(unattributed), "ms");
  metrics.Add("node.overhead_ms", Mean(untraced.epoch_ms) - Mean(spans),
              "ms");
  metrics.Add("ref.serial_epoch_p50_ms", Median(*serial), "ms");
  std::fprintf(stderr, "epoch_bench %s seed %llu traced: %zu epochs\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               epochs.size());
  metrics.Print(stderr);
  PrintResult(verdict, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: epoch_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--repeat-dir <dir> --build-id <id>]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "epoch_bench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace ? RunTraced(args, *spec) : RunUntraced(args, *spec);
}
