// Pipeline-profiler suite (src/obs/profiler.h): synthetic workloads with
// KNOWN parallel structure — a pure-serial stage, a perfectly parallel
// stage, a one-straggler group — must come back with the efficiency,
// idle-gap and critical-path numbers that structure implies. Timing
// assertions use wide tolerances (busy time is task WALL, so CI
// oversubscription stretches numerator and denominator together); the
// structural facts (which stage dominates, where the idle gap is, what the
// chain contains) are asserted exactly.
//
// The concurrent-stamping tests run in CI's TSan job: RecordTask from every
// worker, obs::Stage on racing submitter threads, and the inline-fallback
// path all stamp through the same striped buffers.
#include "obs/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace nezha {
namespace {

using obs::AnalyzeCriticalPath;
using obs::CriticalPathReport;
using obs::EpochProfile;
using obs::PipelineProfiler;
using obs::Profiler;
using obs::Stage;
using obs::StageProfile;

/// Burns wall-clock on the calling thread (not sleep: the profiler's busy
/// and CPU numbers should both see this work).
void SpinFor(double ms) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000));
  volatile std::uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < deadline) sink = sink + 1;
}

const StageProfile* FindStage(const EpochProfile& profile,
                              const std::string& name) {
  for (const StageProfile& stage : profile.stages) {
    if (stage.stage == name) return &stage;
  }
  return nullptr;
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler().SetEnabled(true);
    Profiler().Clear();
  }
  void TearDown() override { Profiler().Clear(); }
};

TEST_F(ProfilerTest, StageInterningRoundTrips) {
  const obs::StageId a = obs::InternStage("intern_alpha");
  const obs::StageId b = obs::InternStage("intern_beta");
  EXPECT_NE(a, obs::kStageNone);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, obs::InternStage("intern_alpha"));
  EXPECT_EQ(obs::StageName(a), "intern_alpha");
  EXPECT_EQ(obs::StageName(obs::kStageNone), "untagged");
}

TEST_F(ProfilerTest, StageScopeNestsAndRestores) {
  EXPECT_EQ(obs::CurrentStage(), obs::kStageNone);
  {
    Stage outer("scope_outer");
    const obs::StageId outer_id = obs::CurrentStage();
    EXPECT_EQ(obs::StageName(outer_id), "scope_outer");
    {
      Stage inner("scope_inner");
      EXPECT_EQ(obs::StageName(obs::CurrentStage()), "scope_inner");
    }
    EXPECT_EQ(obs::CurrentStage(), outer_id);
  }
  EXPECT_EQ(obs::CurrentStage(), obs::kStageNone);
}

TEST_F(ProfilerTest, WindowGatesSampling) {
  EXPECT_FALSE(Profiler().Sampling());
  Profiler().BeginEpoch(1, "gate", 2);
  EXPECT_TRUE(Profiler().Sampling());
  const EpochProfile profile = Profiler().FinishEpoch();
  EXPECT_FALSE(Profiler().Sampling());
  EXPECT_GT(profile.span_ms, 0);

  // No window open: FinishEpoch degrades to an empty profile and stages
  // only tag the thread and time themselves.
  { Stage orphan("orphan_span"); }
  const EpochProfile empty = Profiler().FinishEpoch();
  EXPECT_EQ(empty.span_ms, 0);
  EXPECT_TRUE(empty.spans.empty());
}

TEST_F(ProfilerTest, DisabledProfilerRecordsNothing) {
  Profiler().SetEnabled(false);
  Profiler().BeginEpoch(1, "off", 2);
  EXPECT_FALSE(Profiler().Sampling());
  { Stage span("off_span"); }
  const EpochProfile profile = Profiler().FinishEpoch();
  EXPECT_TRUE(profile.spans.empty());
  EXPECT_EQ(profile.tasks, 0u);
  Profiler().SetEnabled(true);
}

// ---------------------------------------------------------------------------
// Synthetic workload 1: a pure-serial stage. One thread works, the pool's
// four workers never see a task — efficiency collapses toward zero and the
// largest idle gap is (essentially) the whole epoch, attributed to the
// serial stage's span.
// ---------------------------------------------------------------------------
TEST_F(ProfilerTest, PureSerialStageHasNearZeroEfficiency) {
  ThreadPool pool(4);
  Profiler().BeginEpoch(10, "synthetic", pool.size());
  {
    Stage span("serial_stage");
    SpinFor(20);
  }
  const EpochProfile profile = Profiler().FinishEpoch();

  ASSERT_GT(profile.span_ms, 0);
  EXPECT_EQ(profile.tasks, 0u);
  EXPECT_LT(profile.efficiency_pct, 10.0);
  // No worker ever ran: the idle gap is the whole span, and the stage that
  // held the pipeline while they starved is the serial one.
  EXPECT_GE(profile.largest_idle_gap_ms, profile.span_ms * 0.8);
  EXPECT_EQ(profile.idle_gap_stage, "serial_stage");

  const StageProfile* stage = FindStage(profile, "serial_stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_GE(stage->wall_ms, 15.0);
  // The driving thread spun, so the span's CPU tracks its wall.
  EXPECT_GT(stage->cpu_ms, stage->wall_ms * 0.3);
}

// ---------------------------------------------------------------------------
// Synthetic workload 2: a perfectly parallel stage. Four equal chunks on
// four workers — busy ~= workers x span, so efficiency lands high. Busy is
// task wall (not CPU), so a loaded CI machine stretches busy and span
// together and the ratio survives.
// ---------------------------------------------------------------------------
TEST_F(ProfilerTest, PerfectlyParallelStageHasHighEfficiency) {
  ThreadPool pool(4);
  Profiler().BeginEpoch(11, "synthetic", pool.size());
  {
    Stage stage("parallel_stage");
    pool.ParallelFor(0, 4, [](std::size_t) { SpinFor(10); });
  }
  const EpochProfile profile = Profiler().FinishEpoch();

  ASSERT_EQ(profile.tasks, 4u);
  EXPECT_GT(profile.efficiency_pct, 50.0);
  EXPECT_LT(profile.largest_idle_gap_ms, profile.span_ms);

  const StageProfile* stage = FindStage(profile, "parallel_stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_EQ(stage->tasks, 4u);
  EXPECT_GT(stage->busy_ms, 30.0);  // 4 x 10 ms of task wall
  EXPECT_GT(stage->efficiency_pct, 50.0);
  EXPECT_GE(stage->wait_p95_us, stage->wait_p50_us);
}

// ---------------------------------------------------------------------------
// Synthetic workload 3: one straggler. Three 2 ms chunks and one 24 ms
// chunk on four workers: the epoch span is the straggler's wall, three
// workers starve for most of it, and efficiency sits near
// (24 + 3x2) / (4 x 24) ~= 31%.
// ---------------------------------------------------------------------------
TEST_F(ProfilerTest, StragglerGroupShowsIdleGap) {
  ThreadPool pool(4);
  Profiler().BeginEpoch(12, "synthetic", pool.size());
  {
    // Idle-gap attribution names the recorded SPAN overlapping the gap,
    // which the Stage records.
    Stage stage("straggler_stage");
    pool.ParallelFor(0, 4,
                     [](std::size_t i) { SpinFor(i == 0 ? 24.0 : 2.0); });
  }
  const EpochProfile profile = Profiler().FinishEpoch();

  ASSERT_EQ(profile.tasks, 4u);
  // Structurally bounded: at best (24+6)/96 ~= 31%; give noise headroom.
  EXPECT_LT(profile.efficiency_pct, 60.0);
  EXPECT_GT(profile.efficiency_pct, 5.0);
  // Some worker idled while the straggler ran for ~22 of the ~24 ms span.
  EXPECT_GT(profile.largest_idle_gap_ms, 10.0);
  EXPECT_EQ(profile.idle_gap_stage, "straggler_stage");
}

// ---------------------------------------------------------------------------
// Critical path: two sequential leaf spans under one envelope. The chain
// must contain exactly the leaves (the envelope is not a link), the longer
// leaf is the #1 bottleneck, and its Amdahl estimate exceeds the other's.
// ---------------------------------------------------------------------------
TEST_F(ProfilerTest, CriticalPathFindsLeavesAndBottleneck) {
  ThreadPool pool(4);
  Profiler().BeginEpoch(13, "synthetic", pool.size());
  {
    Stage envelope("cp_envelope");
    {
      Stage first("cp_short");
      SpinFor(4);
    }
    {
      Stage second("cp_long");
      SpinFor(12);
    }
  }
  const EpochProfile profile = Profiler().FinishEpoch();
  ASSERT_EQ(profile.spans.size(), 3u);

  const CriticalPathReport path = AnalyzeCriticalPath(profile);
  ASSERT_EQ(path.chain.size(), 2u);
  EXPECT_EQ(path.chain[0].stage, "cp_short");
  EXPECT_EQ(path.chain[1].stage, "cp_long");
  EXPECT_GT(path.total_wall_ms, 12.0);
  EXPECT_GT(path.covered_pct, 50.0);

  ASSERT_FALSE(path.bottlenecks.empty());
  EXPECT_EQ(path.bottlenecks[0].stage, "cp_long");
  EXPECT_GT(path.bottlenecks[0].amdahl_speedup, 1.0);
  EXPECT_GT(path.bottlenecks[0].amdahl_speedup,
            path.bottlenecks[1].amdahl_speedup);
}

// ---------------------------------------------------------------------------
// Inline-fallback attribution: a nested ParallelFor from inside a pool task
// runs inline on that worker; its runtime must land on the worker's
// timeline as an inline sample, tagged with the submitting stage.
// ---------------------------------------------------------------------------
TEST_F(ProfilerTest, InlineFallbackAttributesToWorkerTimeline) {
  ThreadPool pool(2);
  Profiler().BeginEpoch(14, "synthetic", pool.size());
  {
    Stage stage("nested_stage");
    pool.ParallelFor(0, 2, [&](std::size_t) {
      // Nested submission: OnWorkerThread() -> inline execution.
      pool.ParallelFor(0, 2, [](std::size_t) { SpinFor(2); });
    });
  }
  const EpochProfile profile = Profiler().FinishEpoch();

  EXPECT_GE(profile.inline_tasks, 2u);
  const StageProfile* stage = FindStage(profile, "nested_stage");
  ASSERT_NE(stage, nullptr);
  // Outer tasks + their inlined nested loops all carry the stage tag.
  EXPECT_GE(stage->tasks, 4u);
  EXPECT_GE(stage->inline_tasks, 2u);
}

// Submit captures the submitter's stage even when the submitting thread is
// not a pool worker and several submitters race with different tags.
TEST_F(ProfilerTest, ConcurrentSubmittersKeepTheirStageTags) {
  ThreadPool pool(4);
  Profiler().BeginEpoch(15, "synthetic", pool.size());
  constexpr int kPerThread = 64;
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &ran, t] {
      Stage stage(t % 2 == 0 ? "race_even" : "race_odd");
      for (int i = 0; i < kPerThread; ++i) {
        pool.Submit([&ran] { ran.fetch_add(1); }).get();
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  const EpochProfile profile = Profiler().FinishEpoch();

  EXPECT_EQ(ran.load(), 4 * kPerThread);
  EXPECT_EQ(profile.tasks, 4u * kPerThread);
  const StageProfile* even = FindStage(profile, "race_even");
  const StageProfile* odd = FindStage(profile, "race_odd");
  ASSERT_NE(even, nullptr);
  ASSERT_NE(odd, nullptr);
  EXPECT_EQ(even->tasks, 2u * kPerThread);
  EXPECT_EQ(odd->tasks, 2u * kPerThread);
}

// The TSan meat: spans and tasks stamped from every thread at once while
// an epoch window opens and closes around them.
TEST_F(ProfilerTest, ConcurrentStampingIsRaceFree) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    Profiler().BeginEpoch(20 + round, "stress", pool.size());
    std::vector<std::thread> drivers;
    for (int t = 0; t < 3; ++t) {
      drivers.emplace_back([&pool, t] {
        Stage span(t == 0 ? "stress_a" : "stress_b");
        pool.ParallelFor(0, 32, [](std::size_t) { SpinFor(0.1); });
      });
    }
    for (auto& thread : drivers) thread.join();
    const EpochProfile profile = Profiler().FinishEpoch();
    EXPECT_GT(profile.tasks + profile.inline_tasks, 0u);
    EXPECT_LE(profile.spans.size(), 3u);
  }
}

TEST_F(ProfilerTest, EpochProfileJsonHasSchemaFields) {
  ThreadPool pool(2);
  Profiler().BeginEpoch(30, "json", pool.size());
  {
    Stage stage("json_stage");
    pool.ParallelFor(0, 2, [](std::size_t) { SpinFor(1); });
  }
  const EpochProfile profile = Profiler().FinishEpoch();
  const std::string json = profile.ToJson();
  for (const char* key :
       {"\"epoch\"", "\"scheme\"", "\"workers\"", "\"span_ms\"",
        "\"efficiency_pct\"", "\"largest_idle_gap_ms\"", "\"peak_rss_kb\"",
        "\"stages\"", "\"critical_path\"", "\"json_stage\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST_F(ProfilerTest, ThreadCpuClockAdvancesWithWork) {
  const double before = obs::ThreadCpuUs();
  SpinFor(5);
  const double after = obs::ThreadCpuUs();
  EXPECT_GT(after, before);
}

}  // namespace
}  // namespace nezha
