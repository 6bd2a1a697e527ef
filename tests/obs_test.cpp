// Registry and tracer semantics: counters/gauges/histograms under
// concurrent writers, label canonicalisation, snapshot stability, stage
// nesting in the trace projection of a profiler window, ring-buffer
// bounds, and both export formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "obs/abort_attribution.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace nezha::obs {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    Registry().ResetAll();
    PhaseTracer::Global().SetEnabled(false);
    PhaseTracer::Global().Clear();
    Profiler().SetEnabled(true);
    Profiler().Clear();
  }
};

/// A trace event as a writer thread would have recorded it by hand.
TraceEvent SpanEvent(std::string name) {
  TraceEvent event;
  event.name = std::move(name);
  event.tid = CurrentThreadId();
  event.ts_us = PhaseTracer::NowUs();
  event.dur_us = PhaseTracer::NowUs() - event.ts_us;
  return event;
}

const TraceEvent* FindEvent(const std::vector<TraceEvent>& events,
                            const std::string& name) {
  for (const TraceEvent& e : events) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST_F(ObsTest, CounterConcurrentWritersLoseNothing) {
  Counter* counter = Registry().GetCounter("obs_test_counter");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) counter->Inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter->Value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge* gauge = Registry().GetGauge("obs_test_gauge");
  gauge->Set(42);
  EXPECT_EQ(gauge->Value(), 42);
  gauge->Add(-50);
  EXPECT_EQ(gauge->Value(), -8);
}

TEST_F(ObsTest, GaugeConcurrentAddBalances) {
  Gauge* gauge = Registry().GetGauge("obs_test_gauge_conc");
  gauge->Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([gauge] {
      for (int i = 0; i < 5'000; ++i) {
        gauge->Add(3);
        gauge->Add(-3);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(gauge->Value(), 0);
}

TEST_F(ObsTest, SameNameAndLabelsYieldSameMetric) {
  Counter* a = Registry().GetCounter("obs_test_dedup", {{"x", "1"}, {"y", "2"}});
  // Label order must not matter (canonicalised by key).
  Counter* b = Registry().GetCounter("obs_test_dedup", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a, b);
  Counter* c = Registry().GetCounter("obs_test_dedup", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(a, c);
}

TEST_F(ObsTest, HistogramBucketsAndStats) {
  BucketHistogram* h =
      Registry().GetHistogram("obs_test_hist", {}, {10, 100, 1000});
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  h->Observe(5000);
  const HistogramData data = h->Snapshot();
  EXPECT_EQ(data.count, 4u);
  EXPECT_DOUBLE_EQ(data.sum, 5555);
  EXPECT_DOUBLE_EQ(data.min, 5);
  EXPECT_DOUBLE_EQ(data.max, 5000);
  ASSERT_EQ(data.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(data.counts[0], 1u);
  EXPECT_EQ(data.counts[1], 1u);
  EXPECT_EQ(data.counts[2], 1u);
  EXPECT_EQ(data.counts[3], 1u);
  EXPECT_GE(data.Percentile(99), 500);
  EXPECT_LE(data.Percentile(1), 10);
  EXPECT_GE(data.Mean(), 1000);
}

TEST_F(ObsTest, HistogramConcurrentObserversLoseNothing) {
  BucketHistogram* h = Registry().GetHistogram("obs_test_hist_conc");
  constexpr int kThreads = 8;
  constexpr int kSamples = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h, t] {
      for (int i = 0; i < kSamples; ++i) {
        h->Observe(static_cast<double>(t * kSamples + i) / 100.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  const HistogramData data = h->Snapshot();
  EXPECT_EQ(data.count, static_cast<std::uint64_t>(kThreads) * kSamples);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : data.counts) bucket_total += c;
  EXPECT_EQ(bucket_total, data.count);
}

TEST_F(ObsTest, SnapshotIsStableUnderConcurrentWriters) {
  Counter* counter = Registry().GetCounter("obs_test_snap_counter");
  BucketHistogram* hist = Registry().GetHistogram("obs_test_snap_hist");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      counter->Inc();
      hist->Observe(1.0);
    }
  });
  double last_counter = -1;
  for (int round = 0; round < 50; ++round) {
    const RegistrySnapshot snapshot = Registry().Snapshot();
    const double v = snapshot.Value("obs_test_snap_counter");
    EXPECT_GE(v, last_counter);  // counters are monotone across snapshots
    last_counter = v;
    const MetricSample* s = snapshot.Find("obs_test_snap_hist");
    ASSERT_NE(s, nullptr);
    std::uint64_t bucket_total = 0;
    for (std::uint64_t c : s->histogram.counts) bucket_total += c;
    // Internal consistency: the reported count never exceeds the buckets.
    EXPECT_LE(s->histogram.count, bucket_total);
  }
  stop.store(true);
  writer.join();
}

TEST_F(ObsTest, DisabledMetricsRecordNothing) {
  Counter* counter = Registry().GetCounter("obs_test_disabled");
  counter->Reset();
  SetMetricsEnabled(false);
  counter->Inc(100);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter->Value(), 0u);
  counter->Inc(1);
  EXPECT_EQ(counter->Value(), 1u);
}

TEST_F(ObsTest, RenderTextExposesAllKinds) {
  Registry().GetCounter("obs_test_render_total", {{"kind", "a"}})->Inc(7);
  Registry().GetGauge("obs_test_render_depth")->Set(3);
  Registry()
      .GetHistogram("obs_test_render_lat_us", {}, {10, 100})
      ->Observe(42);
  const std::string text = Registry().RenderText();
  EXPECT_NE(text.find("# TYPE obs_test_render_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_total{kind=\"a\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE obs_test_render_depth gauge"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_depth 3"), std::string::npos);
  EXPECT_NE(text.find("obs_test_render_lat_us_bucket{le=\"100\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_render_lat_us_sum 42"), std::string::npos);
  EXPECT_NE(text.find("obs_test_render_lat_us_count 1"), std::string::npos);
}

TEST_F(ObsTest, ResetAllZeroesEverything) {
  Counter* counter = Registry().GetCounter("obs_test_reset");
  counter->Inc(9);
  Registry().ResetAll();
  EXPECT_EQ(counter->Value(), 0u);
}

TEST_F(ObsTest, SpanNestingRecordsDepthAndContainment) {
  // Two nested stages inside a profiler window: the projection puts the
  // epoch envelope at depth 0 and each stage one level below its parent.
  PhaseTracer& tracer = PhaseTracer::Global();
  tracer.SetEnabled(true);
  Profiler().BeginEpoch(1, "trace", 1);
  {
    Stage outer("outer");
    {
      Stage inner("inner");
    }
  }
  Profiler().FinishEpoch();
  tracer.SetEnabled(false);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  const TraceEvent* epoch = FindEvent(events, "epoch 1");
  const TraceEvent* outer = FindEvent(events, "outer");
  const TraceEvent* inner = FindEvent(events, "inner");
  ASSERT_NE(epoch, nullptr);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(epoch->depth, 0u);
  EXPECT_EQ(outer->depth, 1u);
  EXPECT_EQ(inner->depth, 2u);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(epoch->tid, outer->tid);
  // Containment: the inner span starts and ends inside the outer one, and
  // the outer one inside the epoch envelope.
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
  EXPECT_GE(outer->ts_us, epoch->ts_us);
  EXPECT_LE(outer->ts_us + outer->dur_us, epoch->ts_us + epoch->dur_us);
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  PhaseTracer& tracer = PhaseTracer::Global();
  ASSERT_FALSE(tracer.enabled());
  Profiler().BeginEpoch(1, "trace", 1);
  {
    Stage stage("ignored");
  }
  Profiler().FinishEpoch();
  EXPECT_EQ(tracer.EventCount(), 0u);
}

TEST_F(ObsTest, RingBufferStaysBounded) {
  PhaseTracer& tracer = PhaseTracer::Global();
  tracer.SetCapacity(16);
  tracer.SetEnabled(true);
  for (int i = 0; i < 100; ++i) {
    tracer.Record(SpanEvent("span " + std::to_string(i)));
  }
  tracer.SetEnabled(false);
  EXPECT_EQ(tracer.EventCount(), 16u);
  EXPECT_EQ(tracer.TotalRecorded(), 100u);
  // The ring keeps the newest events.
  bool found_last = false;
  for (const TraceEvent& e : tracer.Events()) {
    if (e.name == "span 99") found_last = true;
  }
  EXPECT_TRUE(found_last);
  tracer.SetCapacity(65536);
}

TEST_F(ObsTest, ConcurrentSpansFromManyThreads) {
  // Eight threads record stages into one window at once; the projection
  // carries every one of them, plus the epoch envelope.
  PhaseTracer& tracer = PhaseTracer::Global();
  tracer.SetEnabled(true);
  Profiler().BeginEpoch(1, "trace", 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 500; ++i) {
        Stage stage("worker");
      }
    });
  }
  for (auto& t : threads) t.join();
  Profiler().FinishEpoch();
  tracer.SetEnabled(false);
  EXPECT_EQ(tracer.TotalRecorded(), 8u * 500u + 1u);
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormed) {
  PhaseTracer& tracer = PhaseTracer::Global();
  tracer.SetEnabled(true);
  Profiler().BeginEpoch(1, "trace", 1);
  {
    Stage nested("validate \"quoted\"");
  }
  Profiler().FinishEpoch();
  tracer.SetEnabled(false);
  const std::string json = tracer.ExportChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"epoch 1\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  // Balanced braces is a cheap well-formedness proxy.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(ObsTest, PercentileOnUniformDistributionIsExact) {
  // Per-value buckets over 1..100 with one observation each: percentiles
  // interpolate to the exact order statistics.
  std::vector<double> bounds;
  for (int i = 1; i <= 100; ++i) bounds.push_back(i);
  BucketHistogram* h = Registry().GetHistogram("obs_test_pct_uniform", {},
                                               bounds);
  for (int i = 1; i <= 100; ++i) h->Observe(i);
  const HistogramData data = h->Snapshot();
  EXPECT_DOUBLE_EQ(data.Percentile(50), 50);
  EXPECT_DOUBLE_EQ(data.Percentile(95), 95);
  EXPECT_DOUBLE_EQ(data.Percentile(99), 99);
  EXPECT_DOUBLE_EQ(data.Percentile(100), 100);
}

TEST_F(ObsTest, PercentileOnSkewedTwoPointDistribution) {
  // 90 fast samples at 1, 10 slow at 100 (bounds {1, 100}): the median sits
  // in the fast bucket; the tail percentiles interpolate inside [1, 100].
  BucketHistogram* h =
      Registry().GetHistogram("obs_test_pct_skewed", {}, {1, 100});
  for (int i = 0; i < 90; ++i) h->Observe(1);
  for (int i = 0; i < 10; ++i) h->Observe(100);
  const HistogramData data = h->Snapshot();
  EXPECT_DOUBLE_EQ(data.Percentile(50), 1);
  EXPECT_DOUBLE_EQ(data.Percentile(90), 1);
  // target 95: 5 of the 10 slow samples in → halfway through [1, 100].
  EXPECT_NEAR(data.Percentile(95), 50.5, 1e-9);
  EXPECT_NEAR(data.Percentile(99), 90.1, 1e-9);
}

TEST_F(ObsTest, PercentileEdgeCases) {
  BucketHistogram* h =
      Registry().GetHistogram("obs_test_pct_edge", {}, {10, 100});
  EXPECT_DOUBLE_EQ(h->Snapshot().Percentile(50), 0);  // empty → 0
  h->Observe(7);
  // A single sample reports the sample for every percentile (clamped to
  // observed min/max, not bucket edges).
  EXPECT_DOUBLE_EQ(h->Snapshot().Percentile(1), 7);
  EXPECT_DOUBLE_EQ(h->Snapshot().Percentile(50), 7);
  EXPECT_DOUBLE_EQ(h->Snapshot().Percentile(99), 7);
}

TEST_F(ObsTest, PercentileClampsOutOfRangeRequests) {
  BucketHistogram* h =
      Registry().GetHistogram("obs_test_pct_clamp", {}, {10, 100});
  h->Observe(5);
  h->Observe(50);
  const HistogramData data = h->Snapshot();
  // p <= 0 pins to the observed min, p >= 100 to the observed max — never
  // off the end of the bucket array.
  EXPECT_DOUBLE_EQ(data.Percentile(0), 5);
  EXPECT_DOUBLE_EQ(data.Percentile(-10), 5);
  EXPECT_DOUBLE_EQ(data.Percentile(100), 50);
  EXPECT_DOUBLE_EQ(data.Percentile(250), 50);
}

TEST_F(ObsTest, PercentileOnSingleBucketHistogram) {
  // One bound means two buckets (under + overflow); all mass in one bucket
  // must not divide by a zero width or read past the bounds vector.
  BucketHistogram* h =
      Registry().GetHistogram("obs_test_pct_single", {}, {10});
  for (int i = 0; i < 4; ++i) h->Observe(3);
  const HistogramData data = h->Snapshot();
  const double p50 = data.Percentile(50);
  EXPECT_GE(p50, 3);
  EXPECT_LE(p50, 10);
  // Degenerate histogram data (no counts at all) must also return 0.
  HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.Percentile(50), 0);
}

TEST_F(ObsTest, ObserveManyMatchesRepeatedObserve) {
  const std::vector<double> samples = {5, 15, 15, 250, 3000};
  BucketHistogram* one =
      Registry().GetHistogram("obs_test_many_one", {}, {10, 100, 1000});
  for (const double v : samples) one->Observe(v);
  BucketHistogram* bulk =
      Registry().GetHistogram("obs_test_many_bulk", {}, {10, 100, 1000});
  bulk->ObserveMany(samples);

  const HistogramData a = one->Snapshot();
  const HistogramData b = bulk->Snapshot();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  ASSERT_EQ(a.counts.size(), b.counts.size());
  for (std::size_t i = 0; i < a.counts.size(); ++i) {
    EXPECT_EQ(a.counts[i], b.counts[i]) << "bucket " << i;
  }
}

TEST_F(ObsTest, ObserveManyEmptySpanIsANoOp) {
  BucketHistogram* h =
      Registry().GetHistogram("obs_test_many_empty", {}, {10});
  h->ObserveMany({});
  EXPECT_EQ(h->Snapshot().count, 0u);
}

TEST_F(ObsTest, RenderTextEmitsQuantileLines) {
  BucketHistogram* h = Registry().GetHistogram(
      "obs_test_quant_us", {{"phase", "cc"}}, {1, 2, 4, 8, 16});
  for (int i = 0; i < 100; ++i) h->Observe(i % 2 == 0 ? 1 : 8);
  const std::string text = Registry().RenderText();
  EXPECT_NE(text.find("obs_test_quant_us{phase=\"cc\",quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_quant_us{phase=\"cc\",quantile=\"0.95\"} "),
            std::string::npos);
  EXPECT_NE(text.find("obs_test_quant_us{phase=\"cc\",quantile=\"0.99\"} "),
            std::string::npos);
  // Unlabelled histograms get a bare {quantile=...} label set.
  Registry().GetHistogram("obs_test_quant_plain", {}, {1, 2})->Observe(1);
  const std::string plain = Registry().RenderText();
  EXPECT_NE(plain.find("obs_test_quant_plain{quantile=\"0.5\"} "),
            std::string::npos);
}

TEST_F(ObsTest, ConcurrentWritersAndExporterSeeNoTornSpans) {
  // N writer threads emit sequence-numbered spans while a reader loops the
  // Chrome export: every export must be balanced, and the final buffer must
  // hold only fully-formed spans whose per-thread sequence numbers and
  // timestamps are monotonic. Run under TSan in CI.
  PhaseTracer& tracer = PhaseTracer::Global();
  tracer.Clear();
  tracer.SetEnabled(true);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string json = tracer.ExportChromeTrace();
      EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
                std::count(json.begin(), json.end(), '}'));
      EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    }
  });
  constexpr int kThreads = 4;
  constexpr int kSpans = 300;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpans; ++i) {
        tracer.Record(
            SpanEvent("w" + std::to_string(t) + "." + std::to_string(i)));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  tracer.SetEnabled(false);
  EXPECT_EQ(tracer.TotalRecorded(),
            static_cast<std::uint64_t>(kThreads) * kSpans);
  std::map<std::uint32_t, double> last_ts;
  std::map<std::uint32_t, long> last_seq;
  for (const TraceEvent& e : tracer.Events()) {
    // A torn span would have a foreign name, negative duration or zero tid.
    ASSERT_FALSE(e.name.empty());
    ASSERT_EQ(e.name[0], 'w');
    EXPECT_GT(e.tid, 0u);
    EXPECT_GE(e.dur_us, 0);
    const auto dot = e.name.find('.');
    ASSERT_NE(dot, std::string::npos);
    const long seq = std::strtol(e.name.c_str() + dot + 1, nullptr, 10);
    // Events() is start-time ordered; within one thread the spans were
    // created sequentially, so both clock and sequence must advance.
    auto [ts_it, ts_new] = last_ts.try_emplace(e.tid, e.ts_us);
    if (!ts_new) {
      EXPECT_GE(e.ts_us, ts_it->second);
      ts_it->second = e.ts_us;
    }
    auto [seq_it, seq_new] = last_seq.try_emplace(e.tid, seq);
    if (!seq_new) {
      EXPECT_GT(seq, seq_it->second);
      seq_it->second = seq;
    }
  }
  EXPECT_EQ(last_seq.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(ObsTest, RollupCountsAbortsByKind) {
  // Abort counting goes through BuildRollup — the same path the node, the
  // flight recorder and the benches read — not ad-hoc flag counting.
  ScheduleAttribution attribution;
  const auto add = [&](ConflictKind kind, std::uint64_t address) {
    AbortRecord r;
    r.tx = static_cast<std::uint32_t>(attribution.aborts.size());
    r.address = address;
    r.kind = kind;
    attribution.aborts.push_back(r);
  };
  add(ConflictKind::kReadWrite, 7);
  add(ConflictKind::kReadWrite, 7);
  add(ConflictKind::kWriteWriteUnreorderable, 9);
  add(ConflictKind::kRankCycle, 7);
  add(ConflictKind::kReverted, 0);
  attribution.reorder_attempts = 4;
  attribution.reorder_commits = 1;
  const AttributionRollup rollup = BuildRollup(attribution);
  EXPECT_EQ(rollup.total_aborts, 5u);
  EXPECT_EQ(rollup.Kind(ConflictKind::kReadWrite), 2u);
  EXPECT_EQ(rollup.Kind(ConflictKind::kWriteWriteUnreorderable), 1u);
  EXPECT_EQ(rollup.Kind(ConflictKind::kRankCycle), 1u);
  EXPECT_EQ(rollup.Kind(ConflictKind::kReverted), 1u);
  EXPECT_EQ(rollup.ConflictAborts(), 4u);  // reverts excluded
  EXPECT_EQ(rollup.reorder_attempts, 4u);
  EXPECT_EQ(rollup.reorder_commits, 1u);
}

TEST_F(ObsTest, RollupMergeFoldsHotAddressesByAddress) {
  AttributionRollup a;
  a.total_aborts = 2;
  a.by_kind[0] = 2;
  a.hot_addresses.push_back({/*address=*/7, /*readers=*/3, /*writers=*/1,
                             /*aborts=*/2});
  AttributionRollup b;
  b.total_aborts = 3;
  b.by_kind[2] = 3;
  b.hot_addresses.push_back({7, 5, 1, 1});
  b.hot_addresses.push_back({9, 1, 4, 2});
  a.Merge(b);
  EXPECT_EQ(a.total_aborts, 5u);
  EXPECT_EQ(a.Kind(ConflictKind::kReadWrite), 2u);
  EXPECT_EQ(a.Kind(ConflictKind::kRankCycle), 3u);
  ASSERT_EQ(a.hot_addresses.size(), 2u);
  // Address 7: aborts sum (2+1=3), populations take the max snapshot.
  EXPECT_EQ(a.hot_addresses[0].address, 7u);
  EXPECT_EQ(a.hot_addresses[0].aborts, 3u);
  EXPECT_EQ(a.hot_addresses[0].readers, 5u);
  EXPECT_EQ(a.hot_addresses[1].address, 9u);
}

TEST_F(ObsTest, SelectTopKOrdersByAbortsThenPopulation) {
  std::vector<AddressHeat> heat = {
      {/*address=*/1, /*readers=*/1, /*writers=*/1, /*aborts=*/0},
      {2, 9, 9, 2},
      {3, 1, 1, 5},
      {4, 5, 5, 2},
  };
  SelectTopK(heat, 3);
  ASSERT_EQ(heat.size(), 3u);
  EXPECT_EQ(heat[0].address, 3u);  // most aborts
  EXPECT_EQ(heat[1].address, 2u);  // aborts tie → larger population
  EXPECT_EQ(heat[2].address, 4u);
}

TEST_F(ObsTest, PublishAttributionEmitsCauseAndHotAddressSeries) {
  AttributionRollup rollup;
  rollup.total_aborts = 3;
  rollup.by_kind[static_cast<std::size_t>(ConflictKind::kReadWrite)] = 2;
  rollup.by_kind[static_cast<std::size_t>(ConflictKind::kRankCycle)] = 1;
  rollup.reorder_attempts = 5;
  rollup.reorder_commits = 2;
  rollup.hot_addresses.push_back({/*address=*/42, 3, 2, 3});
  PublishAttribution("obs_test_sched", rollup);
  const RegistrySnapshot snapshot = Registry().Snapshot();
  EXPECT_DOUBLE_EQ(
      snapshot.Value("nezha_abort_cause_total",
                     "{cause=\"read-write\",scheduler=\"obs_test_sched\"}"),
      2);
  EXPECT_DOUBLE_EQ(
      snapshot.Value("nezha_abort_cause_total",
                     "{cause=\"rank-cycle\",scheduler=\"obs_test_sched\"}"),
      1);
  EXPECT_DOUBLE_EQ(
      snapshot.Value("nezha_reorder_attempts_total",
                     "{scheduler=\"obs_test_sched\"}"),
      5);
  EXPECT_DOUBLE_EQ(snapshot.Value("nezha_hot_address_id",
                                  "{rank=\"0\",scheduler=\"obs_test_sched\"}"),
                   42);
  EXPECT_DOUBLE_EQ(
      snapshot.Value("nezha_hot_address_aborts",
                     "{rank=\"0\",scheduler=\"obs_test_sched\"}"),
      3);
}

TEST_F(ObsTest, SnapshotHelpersFindAndSum) {
  Registry().GetCounter("obs_test_sum", {{"k", "a"}})->Inc(2);
  Registry().GetCounter("obs_test_sum", {{"k", "b"}})->Inc(3);
  const RegistrySnapshot snapshot = Registry().Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.SumAcrossLabels("obs_test_sum"), 5);
  EXPECT_DOUBLE_EQ(snapshot.Value("obs_test_sum", "{k=\"b\"}"), 3);
  EXPECT_EQ(snapshot.Find("obs_test_missing"), nullptr);
}

}  // namespace
}  // namespace nezha::obs
