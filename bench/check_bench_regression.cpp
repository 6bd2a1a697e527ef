// Compares two bench-suite JSON reports (bench/bench_suite.cpp) and fails
// on throughput regressions — the C++/CMake perf gate CI runs against the
// committed baseline (docs/OBSERVABILITY.md, "Perf-regression harness").
//
// Modes:
//  * ratio (default): each result's throughput is normalized by the serial
//    scheme's throughput for the same bench+params in the SAME file, so
//    absolute machine speed cancels and only the scheme-vs-serial speedup is
//    compared. This is what makes a committed baseline meaningful across
//    developer laptops and CI runners.
//  * absolute: raw tx/s comparison, for same-machine A/B runs.
//
// A result regresses when current < baseline * (1 - tolerance). Abort rates
// are fully deterministic under fixed seeds, so they are compared with a
// tight epsilon regardless of mode. Independently of the comparison, a row
// in either file that reports an abort rate but no aborts in its rollup
// (aborts.total) contradicts itself and fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"

using nezha::json::Value;

namespace {

struct Options {
  std::string baseline;
  std::string current;
  double tolerance = 0.15;
  /// Latency gate headroom. Latency is wall-clock (not modelled), so the
  /// gate is looser than the throughput one; p99 is reported but ungated.
  double latency_tolerance = 0.5;
  /// Parallel-efficiency gate headroom (ISSUE PR 9: 8-thread efficiency
  /// must not regress by more than 15%). Efficiency is already a ratio —
  /// busy / (workers x span) in percent — so it is compared the same way
  /// in both modes.
  double efficiency_tolerance = 0.15;
  double abort_epsilon = 0.001;
  bool ratio_mode = true;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --baseline <file> --current <file> [--tolerance 0.15]\n"
      "          [--latency-tolerance 0.5] [--efficiency-tolerance 0.15]\n"
      "          [--abort-epsilon 0.001] [--mode ratio|absolute]\n",
      argv0);
  return 2;
}

/// Identity of one measured configuration across the two files.
std::string ResultKey(const Value& result) {
  return result["bench"].AsString() + "|" + result["scheme"].AsString() + "|" +
         result["params"].Dump();
}

/// Key of the serial-scheme result sharing this result's bench + params.
std::string SerialKey(const Value& result) {
  return result["bench"].AsString() + "|serial|" + result["params"].Dump();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--baseline") {
      if (const char* v = next()) options.baseline = v;
    } else if (arg == "--current") {
      if (const char* v = next()) options.current = v;
    } else if (arg == "--tolerance") {
      if (const char* v = next()) options.tolerance = std::atof(v);
    } else if (arg == "--latency-tolerance") {
      if (const char* v = next()) options.latency_tolerance = std::atof(v);
    } else if (arg == "--efficiency-tolerance") {
      if (const char* v = next()) options.efficiency_tolerance = std::atof(v);
    } else if (arg == "--abort-epsilon") {
      if (const char* v = next()) options.abort_epsilon = std::atof(v);
    } else if (arg == "--mode") {
      const char* v = next();
      if (v == nullptr || (std::strcmp(v, "ratio") != 0 &&
                           std::strcmp(v, "absolute") != 0)) {
        return Usage(argv[0]);
      }
      options.ratio_mode = std::strcmp(v, "ratio") == 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.baseline.empty() || options.current.empty()) {
    return Usage(argv[0]);
  }

  const auto baseline = nezha::json::ParseFile(options.baseline);
  if (!baseline.ok()) {
    std::fprintf(stderr, "cannot load baseline: %s\n",
                 baseline.status().message().c_str());
    return 2;
  }
  const auto current = nezha::json::ParseFile(options.current);
  if (!current.ok()) {
    std::fprintf(stderr, "cannot load current: %s\n",
                 current.status().message().c_str());
    return 2;
  }

  // Index each file: key -> result object.
  const auto index = [](const Value& doc) {
    std::unordered_map<std::string, const Value*> by_key;
    for (const Value& result : doc["results"].AsArray()) {
      by_key[ResultKey(result)] = &result;
    }
    return by_key;
  };
  const auto base_index = index(*baseline);
  const auto cur_index = index(*current);

  // Throughput, normalized per --mode. Results whose serial sibling is
  // missing (or zero) fall back to absolute comparison.
  const auto normalized = [&](const Value& result,
                              const std::unordered_map<std::string,
                                                       const Value*>& file) {
    const double tps = result["throughput_tps"].AsDouble();
    if (!options.ratio_mode) return tps;
    const auto serial = file.find(SerialKey(result));
    if (serial == file.end()) return tps;
    const double serial_tps = (*serial->second)["throughput_tps"].AsDouble();
    return serial_tps > 0 ? tps / serial_tps : tps;
  };

  std::printf("comparing %zu baseline results (%s mode, tolerance %.0f%%)\n",
              base_index.size(), options.ratio_mode ? "ratio" : "absolute",
              options.tolerance * 100);
  int failures = 0;
  const auto check_rollups = [&](const Value& doc, const std::string& path) {
    for (const Value& result : doc["results"].AsArray()) {
      const double abort_rate = result["abort_rate"].AsDouble();
      if (abort_rate > 0 && result["aborts"]["total"].AsInt() == 0) {
        std::printf("FAIL %-40s abort rate %.4f but aborts.total 0 in %s\n",
                    ResultKey(result).c_str(), abort_rate, path.c_str());
        ++failures;
      }
    }
  };
  check_rollups(*baseline, options.baseline);
  check_rollups(*current, options.current);
  for (const Value& base : (*baseline)["results"].AsArray()) {
    const std::string key = ResultKey(base);
    const auto found = cur_index.find(key);
    if (found == cur_index.end()) {
      std::printf("FAIL %-40s missing from current report\n", key.c_str());
      ++failures;
      continue;
    }
    const Value& cur = *found->second;

    const double base_norm = normalized(base, base_index);
    const double cur_norm = normalized(cur, cur_index);
    const double floor = base_norm * (1.0 - options.tolerance);
    const char* unit = options.ratio_mode ? "x serial" : "tps";
    if (cur_norm < floor) {
      std::printf("FAIL %-40s throughput %.3f %s < floor %.3f (base %.3f)\n",
                  key.c_str(), cur_norm, unit, floor, base_norm);
      ++failures;
    } else {
      std::printf("ok   %-40s throughput %.3f %s (base %.3f)\n", key.c_str(),
                  cur_norm, unit, base_norm);
    }

    // Parallel-efficiency gate (the bench_suite "parallel_efficiency"
    // section): busy / (workers x span) is dimensionless, so no serial
    // normalization is needed — the committed percentage itself is the
    // baseline. Lower is worse; gate with --efficiency-tolerance.
    if (base.Contains("parallel_efficiency_pct") &&
        cur.Contains("parallel_efficiency_pct")) {
      const double base_eff = base["parallel_efficiency_pct"].AsDouble();
      const double cur_eff = cur["parallel_efficiency_pct"].AsDouble();
      const double eff_floor = base_eff * (1.0 - options.efficiency_tolerance);
      // Below 1% both sides are measurement noise (a 1-core runner reports
      // near-zero efficiency); relative tolerance on noise flakes, so skip.
      if (base_eff < 1.0 && cur_eff < 1.0) {
        std::printf("ok   %-40s efficiency %.1f%% (base %.1f%%, below floor"
                    " of measurement, ungated)\n",
                    key.c_str(), cur_eff, base_eff);
      } else if (base_eff > 0 && cur_eff < eff_floor) {
        std::printf("FAIL %-40s efficiency %.1f%% < floor %.1f%% (base %.1f%%)\n",
                    key.c_str(), cur_eff, eff_floor, base_eff);
        ++failures;
      } else {
        std::printf("ok   %-40s efficiency %.1f%% (base %.1f%%)\n",
                    key.c_str(), cur_eff, base_eff);
      }
    }

    const double base_aborts = base["abort_rate"].AsDouble();
    const double cur_aborts = cur["abort_rate"].AsDouble();
    if (std::abs(base_aborts - cur_aborts) > options.abort_epsilon) {
      std::printf("FAIL %-40s abort rate %.4f != baseline %.4f (eps %.4f)\n",
                  key.c_str(), cur_aborts, base_aborts,
                  options.abort_epsilon);
      ++failures;
    }

    // Latency gate: results carrying e2e percentiles (the sustained-load
    // bench) are compared the same way throughput is — normalized by the
    // serial sibling in the same file so machine speed cancels — but with
    // "lower is better" and the looser --latency-tolerance. p50 and p95
    // gate; p99 is printed only (one slow outlier on a noisy CI runner
    // should not fail the build).
    const auto latency_norm = [&](const Value& result,
                                  const std::unordered_map<
                                      std::string, const Value*>& file,
                                  const char* field) {
      const double ms = result[field].AsDouble();
      if (!options.ratio_mode) return ms;
      const auto serial = file.find(SerialKey(result));
      if (serial == file.end()) return ms;
      const double serial_ms = (*serial->second)[field].AsDouble();
      return serial_ms > 0 ? ms / serial_ms : ms;
    };
    for (const char* field : {"e2e_p50_ms", "e2e_p95_ms", "e2e_p99_ms"}) {
      if (!base.Contains(field) || !cur.Contains(field)) continue;
      const double base_lat = latency_norm(base, base_index, field);
      const double cur_lat = latency_norm(cur, cur_index, field);
      const double ceiling = base_lat * (1.0 + options.latency_tolerance);
      const char* lat_unit = options.ratio_mode ? "x serial" : "ms";
      const bool gated = std::strcmp(field, "e2e_p99_ms") != 0;
      if (gated && base_lat > 0 && cur_lat > ceiling) {
        std::printf("FAIL %-40s %s %.3f %s > ceiling %.3f (base %.3f)\n",
                    key.c_str(), field, cur_lat, lat_unit, ceiling,
                    base_lat);
        ++failures;
      } else {
        std::printf("ok   %-40s %s %.3f %s (base %.3f%s)\n", key.c_str(),
                    field, cur_lat, lat_unit, base_lat,
                    gated ? "" : ", ungated");
      }
    }
  }

  if (failures > 0) {
    std::printf("\n%d regression(s) against %s\n", failures,
                options.baseline.c_str());
    return 1;
  }
  std::printf("\nno regressions\n");
  return 0;
}
