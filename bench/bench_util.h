// Shared helpers for the bench suite (bench/bench_suite.cpp) and the
// reporting examples: aligned table printing and the machine-readable JSON
// emitter behind their `--json <path>` flags (docs/OBSERVABILITY.md,
// "Perf-regression harness").
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "obs/abort_attribution.h"

namespace nezha::bench {

/// Prints a section header matching the paper artifact style.
inline void Header(const std::string& title, const std::string& subtitle) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  if (!subtitle.empty()) std::printf("%s\n", subtitle.c_str());
  std::printf("================================================================\n");
}

/// Fixed-width row printer: Row({"col1", "col2"}) with a 14-char default.
/// A cell as long as the width or longer still gets one trailing space, so
/// neighbouring cells never run together.
inline void Row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) {
    const int padded = std::max(width, static_cast<int>(cell.size()) + 1);
    std::printf("%-*s", padded, cell.c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double v, int decimals = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string FmtInt(std::uint64_t v) { return std::to_string(v); }

inline std::string FmtPct(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Machine-readable results: a JSON report shaped for
// bench/check_bench_regression:
//   {"machine":..., "git_sha":..., "suite":...,
//    "results":[{"bench","scheme","params":{...},"throughput_tps",
//                "latency_ms","abort_rate","aborts":{cause: n, ...},
//                "reorders":{"attempted","committed"}}, ...]}
// ---------------------------------------------------------------------------

inline std::string MachineName() {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) return "unknown";
  return host[0] != '\0' ? host : "unknown";
}

/// Commit under test: $NEZHA_GIT_SHA override, else CI's $GITHUB_SHA.
inline std::string GitSha() {
  for (const char* var : {"NEZHA_GIT_SHA", "GITHUB_SHA"}) {
    if (const char* sha = std::getenv(var); sha != nullptr && sha[0] != '\0') {
      return sha;
    }
  }
  return "unknown";
}

/// Renders an attribution rollup as {"aborts":{cause: n},"reorders":{...}}
/// members appended onto `result`.
inline void AppendRollupJson(json::Value& result,
                             const obs::AttributionRollup& rollup) {
  json::Value aborts;
  aborts.Set("total", rollup.total_aborts);
  for (std::size_t i = 0; i < obs::kNumConflictKinds; ++i) {
    aborts.Set(
        obs::ConflictKindName(static_cast<obs::ConflictKind>(i)),
        rollup.by_kind[i]);
  }
  result.Set("aborts", std::move(aborts));
  json::Value reorders;
  reorders.Set("attempted", rollup.reorder_attempts);
  reorders.Set("committed", rollup.reorder_commits);
  result.Set("reorders", std::move(reorders));
  json::Value hot;
  for (const obs::AddressHeat& h : rollup.hot_addresses) {
    json::Value entry;
    entry.Set("address", h.address);
    entry.Set("readers", h.readers);
    entry.Set("writers", h.writers);
    entry.Set("aborts", h.aborts);
    hot.Append(std::move(entry));
  }
  if (!hot.is_null()) result.Set("hot_addresses", std::move(hot));
}

/// One measured configuration of one bench.
struct JsonResult {
  std::string bench;    ///< e.g. "suite", "fig11"
  std::string scheme;   ///< serial / occ / cg / nezha / nezha-noreorder
  json::Value params;   ///< workload parameters (object)
  double throughput_tps = 0;
  double latency_ms = 0;
  double abort_rate = 0;
  obs::AttributionRollup rollup;
  json::Value extra;    ///< optional bench-specific members (object)
};

/// Accumulates JsonResults and writes the report document.
class JsonReport {
 public:
  explicit JsonReport(std::string suite) : suite_(std::move(suite)) {}

  void Add(JsonResult r) { results_.push_back(std::move(r)); }
  bool empty() const { return results_.empty(); }
  std::size_t size() const { return results_.size(); }

  json::Value Build() const {
    json::Value doc;
    doc.Set("machine", MachineName());
    doc.Set("git_sha", GitSha());
    doc.Set("suite", suite_);
    json::Value results;
    for (const JsonResult& r : results_) {
      json::Value entry;
      entry.Set("bench", r.bench);
      entry.Set("scheme", r.scheme);
      entry.Set("params", r.params);
      entry.Set("throughput_tps", r.throughput_tps);
      entry.Set("latency_ms", r.latency_ms);
      entry.Set("abort_rate", r.abort_rate);
      AppendRollupJson(entry, r.rollup);
      if (r.extra.is_object()) {
        for (const auto& [key, value] : r.extra.AsObject()) {
          entry.Set(key, value);
        }
      }
      results.Append(std::move(entry));
    }
    if (results.is_null()) results = json::Array{};
    doc.Set("results", std::move(results));
    return doc;
  }

  /// Writes the report (pretty-printed, trailing newline); false on I/O
  /// failure. Prints a one-line confirmation so CI logs show the path.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string doc = Build().Dump(2) + "\n";
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    if (std::fclose(f) != 0 || !ok) return false;
    std::printf("\n[json] wrote %zu results to %s\n", results_.size(),
                path.c_str());
    return true;
  }

 private:
  std::string suite_;
  std::vector<JsonResult> results_;
};

}  // namespace nezha::bench
