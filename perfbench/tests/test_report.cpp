#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "report.h"

namespace {

using perfbench::SampleSet;

SampleSet ramp(int n) {
  SampleSet s;
  for (int i = 1; i <= n; ++i) s.add(i);
  return s;
}

TEST(SampleSet, NearestRankOnASortedCopy) {
  SampleSet s;
  for (double x : {5.0, 1.0, 4.0, 2.0, 3.0}) s.add(x);
  EXPECT_EQ(s.quantile(50).value, 3.0);
  EXPECT_EQ(s.quantile(100).value, 5.0);
  EXPECT_EQ(s.quantile(1).value, 1.0);
  EXPECT_EQ(s.values().front(), 5.0);  // insertion order kept
}

TEST(SampleSet, AddAfterQuerySeesNewSamples) {
  // gs::Samples keeps a stale sort here (add() never invalidates it).
  SampleSet s;
  s.add(1.0);
  EXPECT_EQ(s.quantile(99).value, 1.0);
  for (int i = 0; i < 1000; ++i) s.add(100.0);
  EXPECT_EQ(s.quantile(99).value, 100.0);
  EXPECT_EQ(s.quantile(100).value, 100.0);
  EXPECT_EQ(s.size(), 1001u);
}

TEST(SampleSet, SupportNeedsTenSamplesBeyond) {
  const SampleSet small = ramp(999);
  EXPECT_EQ(small.quantile(99).beyond, 9u);
  EXPECT_FALSE(small.quantile(99).supported());
  const SampleSet big = ramp(1000);
  EXPECT_EQ(big.quantile(99).value, 990.0);
  EXPECT_EQ(big.quantile(99).beyond, 10u);
  EXPECT_TRUE(big.quantile(99).supported());
  EXPECT_FALSE(ramp(19).quantile(50).supported());
  EXPECT_TRUE(ramp(20).quantile(50).supported());
  EXPECT_FALSE(SampleSet{}.quantile(50).supported());
}

TEST(SampleSet, SupportedQuantileFallsBackToTheHighestSupported) {
  const SampleSet s = ramp(100);
  const auto q = s.supported_quantile(99);
  EXPECT_EQ(q.value, 90.0);
  EXPECT_EQ(q.beyond, 10u);
  EXPECT_DOUBLE_EQ(q.p, 90.0);
  EXPECT_EQ(ramp(2000).supported_quantile(99).p, 99.0);
  for (int n = 11; n < 1200; ++n) {
    EXPECT_EQ(ramp(n).supported_quantile(99).beyond,
              n >= 1000 ? ramp(n).quantile(99).beyond : 10u)
        << n;
  }
  EXPECT_THROW(ramp(10).supported_quantile(99), std::runtime_error);
}

TEST(SampleSet, MinSeesEverySample) {
  SampleSet s;
  s.add(3.0);
  EXPECT_EQ(s.min(), 3.0);
  s.add(2.0);
  s.add(5.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_THROW(SampleSet{}.min(), std::runtime_error);
}

TEST(SampleSet, MedianRefusesTooFewSamples) {
  EXPECT_EQ(perfbench::median(ramp(21), "ramp"), 11.0);
  EXPECT_THROW(perfbench::median(ramp(5), "ramp"), std::runtime_error);
}

TEST(Report, JsonKeepsEveryDigit) {
  perfbench::Report r;
  r.attempted = 3;
  r.metric("latency_ms", 1.0 / 3.0, "ms");
  EXPECT_EQ(r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 0.33333333333333331, "
            "\"unit\": \"ms\"}}}");
  EXPECT_THROW(r.metric("latency_ms", 2.0, "ms"), std::logic_error);
  EXPECT_THROW(r.metric("nan", std::nan(""), "ms"), std::runtime_error);
}

}  // namespace
