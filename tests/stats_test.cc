// Decentralized statistics extensions (paper section 4.1): SpaceSaving
// heavy hitters, key histograms, scaled estimates.

#include <gtest/gtest.h>

#include <map>

#include "src/common/random.h"
#include "src/core/stats.h"
#include "src/runtime/metrics.h"

namespace ajoin {
namespace {

TEST(SpaceSaving, ExactWithinCapacity) {
  SpaceSavingSketch sketch(16);
  for (int i = 0; i < 10; ++i) {
    for (int rep = 0; rep <= i; ++rep) sketch.Offer(i);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sketch.Estimate(i), static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(sketch.MaxError(), 0u);
  EXPECT_EQ(sketch.total(), 55u);
}

TEST(SpaceSaving, OverCapacityBoundsError) {
  const size_t cap = 32;
  SpaceSavingSketch sketch(cap);
  Rng rng(5);
  ZipfSampler zipf(10000, 1.1);
  std::map<int64_t, uint64_t> truth;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    int64_t key = static_cast<int64_t>(zipf.Sample(rng));
    truth[key]++;
    sketch.Offer(key);
  }
  // SpaceSaving guarantee: estimate >= truth, estimate - truth <= N/cap.
  for (const auto& [key, count] : truth) {
    uint64_t est = sketch.Estimate(key);
    if (est == 0) continue;  // evicted (must be a light key)
    EXPECT_GE(est, count) << key;
    EXPECT_LE(est - count, static_cast<uint64_t>(n) / cap + 1) << key;
  }
  // The single heaviest key must be tracked and ranked first.
  auto heavy = sketch.HeavyHitters(n / 20);
  ASSERT_FALSE(heavy.empty());
  EXPECT_EQ(heavy[0].first, 1);  // Zipf head
}

TEST(SpaceSaving, WeightedOffers) {
  SpaceSavingSketch sketch(4);
  sketch.Offer(1, 100);
  sketch.Offer(2, 5);
  EXPECT_EQ(sketch.Estimate(1), 100u);
  EXPECT_EQ(sketch.total(), 105u);
}

TEST(KeyHistogram, BucketsAndOverflow) {
  KeyHistogram hist(0, 100, 10);
  for (int64_t k = 0; k < 100; ++k) hist.Add(k);
  hist.Add(-5);
  hist.Add(150);
  EXPECT_EQ(hist.total(), 102u);
  EXPECT_EQ(hist.below(), 1u);
  EXPECT_EQ(hist.above(), 1u);
  for (size_t b = 0; b < 10; ++b) EXPECT_EQ(hist.BucketCount(b), 10u);
}

TEST(KeyHistogram, FractionInRange) {
  KeyHistogram hist(0, 1000, 100);
  Rng rng(9);
  for (int i = 0; i < 100000; ++i) {
    hist.Add(static_cast<int64_t>(rng.Uniform(1000)));
  }
  EXPECT_NEAR(hist.FractionInRange(0, 999), 1.0, 0.01);
  EXPECT_NEAR(hist.FractionInRange(0, 499), 0.5, 0.02);
  EXPECT_NEAR(hist.FractionInRange(250, 349), 0.1, 0.02);
  EXPECT_DOUBLE_EQ(hist.FractionInRange(500, 400), 0.0);
}

TEST(StreamStats, ScaledEstimates) {
  StreamStats::Options options;
  options.scale = 16;
  StreamStats stats(options);
  for (int i = 0; i < 100; ++i) stats.Observe(Rel::kR, i, 32);
  for (int i = 0; i < 300; ++i) stats.Observe(Rel::kS, i, 8);
  EXPECT_EQ(stats.EstimatedTuples(Rel::kR), 1600u);
  EXPECT_EQ(stats.EstimatedBytes(Rel::kR), 51200u);
  EXPECT_EQ(stats.EstimatedTuples(Rel::kS), 4800u);
  EXPECT_EQ(stats.sketch(Rel::kS).total(), 300u);
  EXPECT_EQ(stats.histogram(Rel::kR), nullptr);  // disabled by default
}

TEST(MetricsJoiner, NoteDroppedClampsAtZero) {
  JoinerMetrics m;
  m.stored_tuples = 5;
  m.stored_bytes = 100;
  NoteDropped(&m, 3, 60);
  EXPECT_EQ(m.stored_tuples, 2u);
  EXPECT_EQ(m.stored_bytes, 40u);
  EXPECT_EQ(m.discarded_tuples, 3u);
#ifdef NDEBUG
  // Release builds: an over-drop clamps to zero instead of wrapping to
  // ~2^64 (the bug this guards against); the discard count still records
  // the full request. Debug builds assert instead — see the death test.
  NoteDropped(&m, 10, 1000);
  EXPECT_EQ(m.stored_tuples, 0u);
  EXPECT_EQ(m.stored_bytes, 0u);
  EXPECT_EQ(m.discarded_tuples, 13u);
#endif
}

#if defined(__SANITIZE_THREAD__)
#define AJOIN_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AJOIN_TEST_TSAN 1
#endif
#endif

// Death tests fork, which TSan's runtime does not tolerate, so the debug
// assert is only exercised in plain debug builds.
#if !defined(NDEBUG) && !defined(AJOIN_TEST_TSAN)
TEST(MetricsJoinerDeathTest, NoteDroppedUnderflowAsserts) {
  JoinerMetrics m;
  m.stored_tuples = 1;
  m.stored_bytes = 8;
  EXPECT_DEATH(NoteDropped(&m, 2, 8), "underflow");
}
#endif

TEST(StreamStats, HistogramsEnabled) {
  StreamStats::Options options;
  options.histograms = true;
  options.key_lo = 0;
  options.key_hi = 1000;
  options.histogram_buckets = 10;
  StreamStats stats(options);
  for (int i = 0; i < 500; ++i) stats.Observe(Rel::kR, i % 1000, 8);
  ASSERT_NE(stats.histogram(Rel::kR), nullptr);
  EXPECT_EQ(stats.histogram(Rel::kR)->total(), 500u);
}

}  // namespace
}  // namespace ajoin
