// Unit tests for src/common: SHA-256, byte utilities, RNG, Zipfian sampler,
// histogram, status/result, thread pool, logging.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "common/bytes.h"
#include "common/histogram.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "common/zipfian.h"

namespace nezha {
namespace {

// ---------- SHA-256 (FIPS 180-4 test vectors) ----------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::Digest("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Digest("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::Digest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  EXPECT_EQ(hasher.Finish().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  Sha256 hasher;
  for (char c : data) hasher.Update(std::string_view(&c, 1));
  EXPECT_EQ(hasher.Finish(), Sha256::Digest(data));
}

TEST(Sha256Test, ExactBlockBoundary) {
  const std::string block(64, 'x');
  const std::string two_blocks(128, 'x');
  EXPECT_NE(Sha256::Digest(block), Sha256::Digest(two_blocks));
  // 55/56/57 bytes straddle the padding boundary.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u}) {
    Sha256 split;
    const std::string msg(len, 'y');
    split.Update(msg.substr(0, len / 2));
    split.Update(msg.substr(len / 2));
    EXPECT_EQ(split.Finish(), Sha256::Digest(msg)) << "len=" << len;
  }
}

// The SHA-NI fast path must be byte-identical to the portable compression
// function on every length around the block/padding boundaries and on
// multi-block bulk updates. On machines without the SHA extensions both
// sides run the portable code and the test is a tautology.
TEST(Sha256Test, HardwarePathMatchesPortablePath) {
  std::string data;
  data.reserve(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    data.push_back(static_cast<char>((i * 131 + 7) & 0xff));
  }
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::string_view msg(data.data(), len);
    const Hash256 fast = Sha256::Digest(msg);
    Sha256::ForceScalarForTest(true);
    const Hash256 portable = Sha256::Digest(msg);
    Sha256::ForceScalarForTest(false);
    ASSERT_EQ(fast, portable) << "len=" << len;
  }
  const Hash256 fast = Sha256::Digest(data);
  Sha256::ForceScalarForTest(true);
  const Hash256 portable = Sha256::Digest(data);
  Sha256::ForceScalarForTest(false);
  EXPECT_EQ(fast, portable);
}

TEST(Hash256Test, ZeroDetection) {
  Hash256 h;
  EXPECT_TRUE(h.IsZero());
  h.bytes[31] = 1;
  EXPECT_FALSE(h.IsZero());
}

TEST(Hash256Test, HexIs64Chars) {
  EXPECT_EQ(Sha256::Digest("x").ToHex().size(), 64u);
}

// ---------- bytes ----------

TEST(BytesTest, HexRoundTrip) {
  const std::string data = "\x00\x01\xab\xff\x7f";
  const std::string data_full(data.data(), 5);
  EXPECT_EQ(FromHex(ToHex(data_full)), data_full);
}

TEST(BytesTest, HexRejectsMalformed) {
  EXPECT_EQ(FromHex("abc"), "");   // odd length
  EXPECT_EQ(FromHex("zz"), "");    // bad digit
}

TEST(BytesTest, Fixed64RoundTrip) {
  std::string out;
  PutFixed64(out, 0xdeadbeefcafebabeull);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(GetFixed64(out), 0xdeadbeefcafebabeull);
}

TEST(BytesTest, Fixed64BigEndianOrdering) {
  // Big-endian encoding preserves numeric order lexicographically.
  std::string a, b;
  PutFixed64(a, 5);
  PutFixed64(b, 300);
  EXPECT_LT(a, b);
}

TEST(BytesTest, Fixed32RoundTrip) {
  std::string out;
  PutFixed32(out, 0x12345678u);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(GetFixed32(out), 0x12345678u);
}

TEST(BytesTest, VarintRoundTrip) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                          ~0ull, 0xdeadbeefull}) {
    std::string out;
    PutVarint64(out, v);
    std::size_t offset = 0;
    std::uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(out, &offset, &decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(offset, out.size());
  }
}

TEST(BytesTest, VarintTruncatedFails) {
  std::string out;
  PutVarint64(out, 1u << 20);
  out.pop_back();
  std::size_t offset = 0;
  std::uint64_t decoded = 0;
  EXPECT_FALSE(GetVarint64(out, &offset, &decoded));
}

// ---------- types ----------

TEST(AddressTest, OrderingAndEquality) {
  EXPECT_LT(Address(1), Address(2));
  EXPECT_EQ(Address(7), Address(7));
  EXPECT_NE(Address(7), Address(8));
  EXPECT_EQ(ToString(Address(17)), "A17");
}

TEST(AddressTest, HashSpreadsSequentialIds) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<Address>{}(Address(i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions on a small range
}

// ---------- status / result ----------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesMessage) {
  const Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Aborted("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAborted);
  EXPECT_EQ(r.value_or(-1), -1);
}

// ---------- RNG ----------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.Next() == b.Next();
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(13), 13u);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 10;
  constexpr int kSamples = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[rng.Below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// ---------- Zipfian ----------

TEST(ZipfianTest, UniformAtZeroSkew) {
  ZipfianGenerator gen(100, 0.0);
  Rng rng(1);
  int counts[100] = {};
  for (int i = 0; i < 100000; ++i) ++counts[gen.Next(rng)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 250);
}

TEST(ZipfianTest, RankZeroIsHottest) {
  ZipfianGenerator gen(1000, 0.99);
  Rng rng(2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) ++counts[gen.Next(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[999]);
  // Rank 0 under theta~1 over 1000 items should take a noticeable share.
  EXPECT_GT(counts[0], 5000);
}

TEST(ZipfianTest, EmpiricalMatchesAnalyticMass) {
  const std::uint64_t n = 100;
  ZipfianGenerator gen(n, 0.8);
  Rng rng(3);
  constexpr int kSamples = 200000;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[gen.Next(rng)];
  for (std::uint64_t k : {0ull, 1ull, 5ull, 20ull}) {
    const double expected = gen.ProbabilityOfRank(k) * kSamples;
    EXPECT_NEAR(counts[k], expected, std::max(50.0, expected * 0.15))
        << "rank " << k;
  }
}

TEST(ZipfianTest, ProbabilitiesSumToOne) {
  ZipfianGenerator gen(500, 0.6);
  double sum = 0;
  for (std::uint64_t k = 0; k < 500; ++k) sum += gen.ProbabilityOfRank(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfianTest, ScrambledPreservesHotSetSize) {
  // Scrambling must move the hot key away from rank 0 but keep skewness:
  // the most frequent key's share should match the unscrambled rank-0 share.
  const std::uint64_t n = 1000;
  ScrambledZipfianGenerator scrambled(n, 0.99);
  ZipfianGenerator plain(n, 0.99);
  Rng rng(4);
  std::vector<int> counts(n, 0);
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++counts[scrambled.Next(rng)];
  const int hottest = *std::max_element(counts.begin(), counts.end());
  const double expected_share = plain.ProbabilityOfRank(0);
  EXPECT_NEAR(hottest, expected_share * kSamples,
              expected_share * kSamples * 0.2);
}

// ---------- histogram ----------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Median(), 50.5, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99, 1.5);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(99), 0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  a.Add(1);
  b.Add(3);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(HistogramTest, ReserveKeepsRawSemantics) {
  Histogram h;
  h.Reserve(1000);
  for (int i = 1; i <= 10; ++i) h.Add(i);
  EXPECT_EQ(h.Count(), 10u);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.5);
}

TEST(HistogramTest, StreamingMatchesRawStats) {
  Histogram raw, streaming;
  streaming.EnableStreaming(0.1, 10'000, 512);
  EXPECT_TRUE(streaming.streaming());
  EXPECT_FALSE(raw.streaming());
  for (int i = 1; i <= 10'000; ++i) {
    raw.Add(i);
    streaming.Add(i);
  }
  EXPECT_EQ(streaming.Count(), raw.Count());
  EXPECT_DOUBLE_EQ(streaming.Mean(), raw.Mean());
  EXPECT_DOUBLE_EQ(streaming.Min(), raw.Min());
  EXPECT_DOUBLE_EQ(streaming.Max(), raw.Max());
  // Log-bucket interpolation: within ~2% of the exact percentile.
  EXPECT_NEAR(streaming.Median(), raw.Median(), raw.Median() * 0.02);
  EXPECT_NEAR(streaming.P99(), raw.P99(), raw.P99() * 0.02);
}

TEST(HistogramTest, EnableStreamingFoldsExistingSamples) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  h.EnableStreaming(0.5, 1000, 256);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Median(), 50.5, 2.0);
}

TEST(HistogramTest, StreamingClampsOutOfRangeToEdgeBuckets) {
  Histogram h;
  h.EnableStreaming(1, 100, 16);
  h.Add(0.001);  // below lo
  h.Add(1e9);    // above hi
  EXPECT_EQ(h.Count(), 2u);
  EXPECT_DOUBLE_EQ(h.Min(), 0.001);
  EXPECT_DOUBLE_EQ(h.Max(), 1e9);
  // Percentiles clamp to the observed range, not the bucket bounds.
  EXPECT_GE(h.Percentile(1), 0.001);
  EXPECT_LE(h.Percentile(99), 1e9);
}

TEST(HistogramTest, StreamingMergeIdenticalConfigIsExact) {
  Histogram a, b;
  a.EnableStreaming(1, 1000, 64);
  b.EnableStreaming(1, 1000, 64);
  for (int i = 1; i <= 50; ++i) a.Add(i);
  for (int i = 51; i <= 100; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 100u);
  EXPECT_DOUBLE_EQ(a.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(a.Min(), 1);
  EXPECT_DOUBLE_EQ(a.Max(), 100);
}

TEST(HistogramTest, MergeRawIntoStreaming) {
  Histogram streaming, raw;
  streaming.EnableStreaming(1, 1000, 64);
  raw.Add(10);
  raw.Add(20);
  streaming.Merge(raw);
  EXPECT_EQ(streaming.Count(), 2u);
  EXPECT_DOUBLE_EQ(streaming.Mean(), 15.0);
}

TEST(HistogramTest, StreamingClearResets) {
  Histogram h;
  h.EnableStreaming(1, 100, 16);
  h.Add(5);
  h.Clear();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Mean(), 0);
  h.Add(7);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_DOUBLE_EQ(h.Mean(), 7);
}

// ---------- thread pool ----------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(0, 10,
                                [](std::size_t i) {
                                  if (i == 3) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ChunkedGivesDistinctSlots) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::size_t> slots;
  pool.ParallelForChunked(0, 100,
                          [&](std::size_t lo, std::size_t hi,
                              std::size_t slot) {
                            EXPECT_LT(lo, hi);
                            std::lock_guard lock(mu);
                            slots.insert(slot);
                          });
  EXPECT_GE(slots.size(), 1u);
  EXPECT_LE(slots.size(), 4u);
}

TEST(ThreadPoolTest, ParallelForGroupsCoversEveryItemOnce) {
  ThreadPool pool(4);
  const std::size_t sizes[] = {3, 0, 1, 17, 5};
  std::mutex mu;
  std::map<std::pair<std::size_t, std::size_t>, int> hits;
  pool.ParallelForGroups(sizes, [&](std::size_t g, std::size_t i) {
    std::lock_guard lock(mu);
    ++hits[{g, i}];
  });
  std::size_t total = 0;
  for (std::size_t g = 0; g < std::size(sizes); ++g) total += sizes[g];
  ASSERT_EQ(hits.size(), total);
  for (const auto& [key, count] : hits) {
    EXPECT_EQ(count, 1) << "group " << key.first << " item " << key.second;
    EXPECT_LT(key.second, sizes[key.first]);
  }
}

TEST(ThreadPoolTest, ParallelForGroupsBarriersBetweenGroups) {
  // Every item of group g must observe all of group g-1's effects: each item
  // checks the running count of completed earlier-group items.
  ThreadPool pool(4);
  const std::size_t sizes[] = {8, 8, 8, 8};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> barrier_violated{false};
  pool.ParallelForGroups(sizes, [&](std::size_t g, std::size_t) {
    if (done.load() < g * 8) barrier_violated = true;
    done.fetch_add(1);
  });
  EXPECT_FALSE(barrier_violated.load());
  EXPECT_EQ(done.load(), 32u);
}

TEST(ThreadPoolTest, ParallelForGroupsInlineFallbackFromWorkerThread) {
  // A task already running on the pool must not deadlock when it drives
  // ParallelForGroups over the same pool: everything runs inline.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  bool was_on_worker = false;
  auto fut = pool.Submit([&] {
    was_on_worker = pool.OnWorkerThread();
    const std::size_t sizes[] = {4, 4};
    pool.ParallelForGroups(sizes,
                           [&](std::size_t, std::size_t) { count.fetch_add(1); });
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  fut.get();
  EXPECT_TRUE(was_on_worker);
  EXPECT_FALSE(pool.OnWorkerThread());  // the test thread is not a worker
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, ParallelForGroupsPropagatesExceptionAndStops) {
  ThreadPool pool(2);
  std::atomic<bool> later_group_ran{false};
  const std::size_t sizes[] = {1, 4, 1};
  EXPECT_THROW(
      pool.ParallelForGroups(sizes,
                             [&](std::size_t g, std::size_t) {
                               if (g == 1) throw std::runtime_error("boom");
                               if (g == 2) later_group_ran = true;
                             }),
      std::runtime_error);
  EXPECT_FALSE(later_group_ran.load());
}

TEST(ThreadPoolTest, ParallelForGroupsEmpty) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelForGroups({}, [&](std::size_t, std::size_t) { ran = true; });
  const std::size_t all_empty[] = {0, 0, 0};
  pool.ParallelForGroups(all_empty,
                         [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// ---------- stopwatch ----------

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(w.ElapsedMillis(), 5.0);
  EXPECT_LT(w.ElapsedSeconds(), 5.0);
}

// ---------- logging ----------

TEST(LoggingTest, LevelGate) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  NEZHA_LOG(kInfo) << "suppressed";  // should not crash, goes nowhere
  NEZHA_LOG(kError) << "visible";
  SetLogLevel(before);
}

TEST(LoggingTest, LogEveryNSamplesTheCallSite) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  int evaluations = 0;
  for (int i = 0; i < 100; ++i) {
    NEZHA_LOG_EVERY_N(kInfo, 10) << "tick " << ++evaluations;
  }
  SetLogLevel(before);
  // The message expression only runs on the sampled hits (1 in 10).
  EXPECT_EQ(evaluations, 10);
}

// ---------- JSON (common/json.h) ----------

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE((*json::Parse("null")).is_null());
  EXPECT_EQ((*json::Parse("true")).AsBool(), true);
  EXPECT_EQ((*json::Parse("false")).AsBool(), false);
  EXPECT_DOUBLE_EQ((*json::Parse("-2.5e3")).AsDouble(), -2500);
  EXPECT_EQ((*json::Parse("42")).AsInt(), 42);
  EXPECT_EQ((*json::Parse("\"hi\\n\"")).AsString(), "hi\n");
}

TEST(JsonTest, ParsesNestedDocumentAndPreservesKeyOrder) {
  const auto parsed = json::Parse(
      R"({"b": 1, "a": {"list": [1, "two", null, {"deep": true}]}})");
  ASSERT_TRUE(parsed.ok());
  const json::Value& v = *parsed;
  EXPECT_EQ(v.AsObject()[0].first, "b");  // insertion order, not sorted
  EXPECT_EQ(v.AsObject()[1].first, "a");
  const json::Value& list = v["a"]["list"];
  ASSERT_EQ(list.AsArray().size(), 4u);
  EXPECT_EQ(list.AsArray()[1].AsString(), "two");
  EXPECT_TRUE(list.AsArray()[2].is_null());
  EXPECT_TRUE(list.AsArray()[3]["deep"].AsBool());
}

TEST(JsonTest, RoundTripsThroughDump) {
  const char* docs[] = {
      R"({"a":1,"b":[true,null,"x"],"c":{"d":-2.5}})",
      R"([1,2,3])",
      R"("escaped \" backslash \\ newline \n")",
      R"({"unicode":"é€"})",
  };
  for (const char* doc : docs) {
    const auto first = json::Parse(doc);
    ASSERT_TRUE(first.ok()) << doc;
    const std::string dumped = first->Dump();
    const auto second = json::Parse(dumped);
    ASSERT_TRUE(second.ok()) << dumped;
    // Dump is canonical: a second round-trip is byte-identical.
    EXPECT_EQ(second->Dump(), dumped);
  }
}

TEST(JsonTest, NumbersPrintShortestRoundTrip) {
  json::Value v;
  v.Set("int", 42);
  v.Set("skew", 0.8);
  v.Set("third", 1.0 / 3.0);
  const std::string dumped = v.Dump();
  EXPECT_NE(dumped.find("\"int\":42"), std::string::npos);
  // 0.8 prints as 0.8, not 0.80000000000000004.
  EXPECT_NE(dumped.find("\"skew\":0.8"), std::string::npos);
  const auto parsed = json::Parse(dumped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ((*parsed)["third"].AsDouble(), 1.0 / 3.0);
}

TEST(JsonTest, SurrogatePairsDecodeToUtf8) {
  const auto parsed = json::Parse(R"("😀")");  // 😀 U+1F600
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",       "{",           "[1,",          "{\"a\":}", "tru",
      "1 2",    "\"unclosed",  "{\"a\" 1}",    "[1,]",     "nan",
      "{\"a\":1,}",
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(json::Parse(doc).ok()) << "'" << doc << "' parsed";
  }
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "[";
  EXPECT_FALSE(json::Parse(deep).ok());
}

TEST(JsonTest, ObjectAccessorsAndMutation) {
  json::Value v;
  v.Set("x", 1);
  v.Set("y", "two");
  v.Set("x", 3);  // overwrite, not duplicate
  EXPECT_EQ(v.AsObject().size(), 2u);
  EXPECT_EQ(v["x"].AsInt(), 3);
  EXPECT_TRUE(v.Contains("y"));
  EXPECT_FALSE(v.Contains("z"));
  EXPECT_TRUE(v["z"].is_null());  // missing key reads as null
  json::Value arr;
  arr.Append(1);
  arr.Append("two");
  EXPECT_EQ(arr.AsArray().size(), 2u);
}

}  // namespace
}  // namespace nezha
