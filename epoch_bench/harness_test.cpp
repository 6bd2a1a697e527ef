// The benchmark's own checks, on short runs of every workload:
//  * the traced epoch's wall is exactly Σ layer spans + unattributed time,
//    with the spans in call order, inside the epoch and non-overlapping;
//  * the traced pass commits the same roots as the untraced FullNode pass;
//  * the receipt replay accepts the untraced pass.
#include <gtest/gtest.h>

#include <cstddef>

#include "epoch_bench/harness.h"

namespace epoch_bench {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kEpochs = 3;

class WorkloadTest : public ::testing::TestWithParam<std::string> {
 protected:
  const WorkloadSpec& spec() const { return *FindWorkload(GetParam()); }
};

TEST_P(WorkloadTest, LayerSpansPlusUnattributedEqualEpochWall) {
  nezha::Result<TracedPass> traced = RunTracedPass(spec(), kSeed, kEpochs);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->epochs.size(), kEpochs);
  const std::vector<std::string_view>& layers = LayerSpanNames();
  // The layer spans come epoch by epoch in call order, then the three stage
  // re-runs per epoch, all after the last epoch ended.
  std::size_t next = 0;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const TracedEpoch& te = traced->epochs[e];
    double cursor = te.start_us;
    double sum_ms = 0;
    for (const std::string_view name : layers) {
      ASSERT_LT(next, traced->spans.size());
      const Span& span = traced->spans[next++];
      EXPECT_EQ(span.name, name);
      EXPECT_EQ(span.epoch, e + 1);
      EXPECT_GE(span.start_us, cursor) << name;
      EXPECT_LE(span.end_us, te.end_us) << name;
      cursor = span.end_us;
      sum_ms += span.Ms();
    }
    EXPECT_NEAR(te.spans_ms, sum_ms, 1e-9);
    EXPECT_NEAR(sum_ms + te.UnattributedMs(), te.WallMs(), 1e-9);
    EXPECT_GE(te.UnattributedMs(), 0);
  }
  EXPECT_EQ(traced->spans.size() - next, 3 * kEpochs);
  for (; next < traced->spans.size(); ++next) {
    EXPECT_GE(traced->spans[next].start_us, traced->epochs.back().end_us);
  }
}

TEST_P(WorkloadTest, TracedRootsEqualUntracedRootsAndReplayAgrees) {
  nezha::Result<PassResult> untraced = RunPass(spec(), kSeed, kEpochs, true);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
  nezha::Result<TracedPass> traced = RunTracedPass(spec(), kSeed, kEpochs);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(untraced->outcomes.size(), kEpochs);
  for (std::size_t e = 0; e < kEpochs; ++e) {
    EXPECT_EQ(traced->epochs[e].outcome, untraced->outcomes[e]) << "epoch "
                                                                << e + 1;
  }
  EXPECT_EQ(ReplayVerify(spec(), *untraced), "");
}

TEST(ReplayVerifyTest, RejectsATamperedRoot) {
  const WorkloadSpec& spec = *FindWorkload("smallbank_contended");
  nezha::Result<PassResult> pass = RunPass(spec, kSeed, 2, true);
  ASSERT_TRUE(pass.ok()) << pass.status().ToString();
  pass->outcomes.back().state_root = nezha::Hash256{};
  EXPECT_NE(ReplayVerify(spec, *pass), "");
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadTest,
                         ::testing::Values("smallbank_contended",
                                           "smallbank_large_state",
                                           "kv_blindwrite"));

}  // namespace
}  // namespace epoch_bench
