// Wall-clock stopwatch for benchmarks and scheduler timings.
#pragma once

#include <chrono>

namespace nezha {

/// Monotonic stopwatch with microsecond resolution.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - start_)
        .count();
  }
  double ElapsedMillis() const { return ElapsedMicros() / 1000.0; }
  double ElapsedSeconds() const { return ElapsedMicros() / 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace nezha
