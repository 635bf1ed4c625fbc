// Tests of the benchmark's percentile helper.

#include "stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace perfbench {
namespace {

std::vector<uint32_t> OneTo(uint32_t n) {
  std::vector<uint32_t> v;
  for (uint32_t i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentiles, SamplesBeyondNearestRank) {
  EXPECT_EQ(SamplesBeyond(1000, 50), 500u);
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 1u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(0, 50), 0u);
  EXPECT_TRUE(Supported(1000, 99));
  EXPECT_FALSE(Supported(999, 99));
  EXPECT_FALSE(Supported(1000, 99.9));
  EXPECT_TRUE(Supported(10000, 99.9));
}

TEST(Percentiles, ReportsCountAndHighestSupportedLevel) {
  std::vector<uint32_t> v = OneTo(1000);
  const Percentiles p = Summarize(&v);
  EXPECT_EQ(p.count, 1000u);
  EXPECT_DOUBLE_EQ(p.p50, 500);
  EXPECT_DOUBLE_EQ(p.p99, 990);
  EXPECT_DOUBLE_EQ(p.top_level, 99);
  EXPECT_DOUBLE_EQ(p.top_value, 990);
  // p99.9 would leave one sample beyond it: reported as the top instead.
  EXPECT_DOUBLE_EQ(p.p999, 990);
}

TEST(Percentiles, SmallSetsClaimNoUnobservedTail) {
  std::vector<uint32_t> v = OneTo(100);
  const Percentiles p = Summarize(&v);
  EXPECT_EQ(p.count, 100u);
  EXPECT_DOUBLE_EQ(p.top_level, 90);
  EXPECT_DOUBLE_EQ(p.p50, 50);
  EXPECT_DOUBLE_EQ(p.p99, 90);  // capped at the supported p90

  std::vector<uint32_t> tiny = OneTo(15);
  const Percentiles t = Summarize(&tiny);
  EXPECT_EQ(t.count, 15u);
  EXPECT_DOUBLE_EQ(t.top_level, 0);
  EXPECT_DOUBLE_EQ(t.p50, 0);

  std::vector<uint32_t> none;
  EXPECT_EQ(Summarize(&none).count, 0u);
}

TEST(Percentiles, MedianOfEvenAndOddSets) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

}  // namespace
}  // namespace perfbench
