// Tests for src/common: RNG determinism and quality basics, statistics,
// histograms, formatting, clocks, error machinery.
#include <gtest/gtest.h>

#include <malloc.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "common/checksum.h"
#include "common/clock.h"
#include "common/error.h"
#include "common/format.h"
#include "common/rng.h"
#include "common/stats.h"

namespace {

using gs::Histogram;
using gs::LatencyHistogram;
using gs::Rng;
using gs::RunningStats;
using gs::Samples;

// ----------------------------------------------------------------- rng

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.uniform01());
  EXPECT_NEAR(s.mean(), 0.5, 0.005);
  // Variance of U(0,1) is 1/12.
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-1.0, 1.0);
    ASSERT_GE(u, -1.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBelowIsUnbiasedAcrossSmallRange) {
  Rng r(17);
  std::array<int, 5> counts{};
  const int n = 500000;
  for (int i = 0; i < n; ++i) {
    ++counts[r.uniform_below(5)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.01);
  }
}

TEST(Rng, UniformBelowZeroAndOne) {
  Rng r(19);
  EXPECT_EQ(r.uniform_below(0), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_below(1), 0u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(23);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.03);
  EXPECT_NEAR(s.stddev(), 2.0, 0.03);
}

TEST(Rng, LognormalIsPositive) {
  Rng r(29);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_GT(r.lognormal(0.0, 0.5), 0.0);
  }
}

TEST(Rng, SplitProducesDecorrelatedStreams) {
  Rng parent(31);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (child1.next_u64() == child2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(37), b(37);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ca.next_u64(), cb.next_u64());
  }
  // And the parents stayed synchronized too.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, JumpChangesStream) {
  Rng a(41), b(41);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// --------------------------------------------------------------- stats

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng r(43);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.normal(1.0, 3.0);
    all.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Samples, PercentileInterpolation) {
  Samples s;
  for (const double v : {10.0, 20.0, 30.0, 40.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.spread_percent(), 0.0);
}

TEST(Samples, SpreadPercent) {
  Samples s;
  s.add(90.0);
  s.add(100.0);
  s.add(110.0);
  EXPECT_NEAR(s.spread_percent(), 20.0, 1e-12);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.min(), gs::Error);
  EXPECT_THROW(s.percentile(50), gs::Error);
}

TEST(Samples, PercentileOutOfRangeThrows) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1), gs::Error);
  EXPECT_THROW(s.percentile(101), gs::Error);
}

TEST(Samples, PercentilesSeeSamplesAddedAfterAQuery) {
  // A query must not freeze the answer: the sort cache is stale once a
  // later add() lands.
  Samples s;
  s.add(1.0);
  EXPECT_EQ(s.percentile(99), 1.0);
  for (int i = 0; i < 1000; ++i) s.add(100.0);
  EXPECT_EQ(s.percentile(99), 100.0);
  EXPECT_EQ(s.max(), 100.0);
}

// ---------------------------------------------------------- latency hist

TEST(LatencyHistogram, PercentilesWithinBucketErrorOfExact) {
  Rng r(31);
  Samples exact;
  LatencyHistogram h;
  for (int i = 0; i < 100000; ++i) {
    const double x = r.lognormal(std::log(1e-3), 1.0);  // ~1 ms, wide tail
    exact.add(x);
    h.add(x);
  }
  for (const double p : {50.0, 95.0, 99.0}) {
    const double want = exact.percentile(p);
    EXPECT_NEAR(h.percentile(p), want,
                want * LatencyHistogram::kRelativeError)
        << "p" << p;
  }
  EXPECT_EQ(h.count(), exact.count());
  EXPECT_EQ(h.mean(), exact.mean()) << "mean is exact, not bucketed";
  EXPECT_EQ(h.percentile(0), exact.min());
  EXPECT_EQ(h.percentile(100), exact.max());
}

TEST(LatencyHistogram, EmptyAndSingleValue) {
  LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.percentile(99), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.add(0.0123);
  EXPECT_EQ(h.count(), 1u);
  // Clamped to the exact min/max, one sample answers itself exactly.
  EXPECT_EQ(h.percentile(0), 0.0123);
  EXPECT_EQ(h.percentile(50), 0.0123);
  EXPECT_EQ(h.percentile(100), 0.0123);
  EXPECT_THROW(h.percentile(-1), gs::Error);
  EXPECT_THROW(h.percentile(101), gs::Error);
}

TEST(LatencyHistogram, PercentilesSeeSamplesAddedAfterAQuery) {
  LatencyHistogram h;
  h.add(1.0);
  EXPECT_EQ(h.percentile(99), 1.0);
  for (int i = 0; i < 1000; ++i) h.add(100.0);
  EXPECT_EQ(h.percentile(99), 100.0);
  EXPECT_EQ(h.percentile(100), 100.0);
}

TEST(LatencyHistogram, OutOfRangeValuesLandInTheEdgeBuckets) {
  LatencyHistogram h;
  for (const double x : {-1.0, 0.0, 1e-12, 5e3}) h.add(x);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.percentile(0), -1.0);
  EXPECT_EQ(h.percentile(100), 5e3);
}

TEST(LatencyHistogram, MemoryIsFixedAcrossAMillionAdds) {
  EXPECT_LE(sizeof(LatencyHistogram), 6u * 1024u);
  LatencyHistogram h;
  const std::size_t heap_before = ::mallinfo2().uordblks;
  for (int i = 0; i < 1000000; ++i) h.add(1e-6 * (1 + i % 5000));
  EXPECT_EQ(::mallinfo2().uordblks, heap_before) << "add() allocated";
  EXPECT_EQ(h.count(), 1000000u);
  EXPECT_GT(h.percentile(99), h.percentile(50));
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 9
  h.add(-5.0);   // clamps to bin 0
  h.add(42.0);   // clamps to bin 9
  h.add(5.0);    // bin 5
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 100.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 25.0);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 62.5);
}

TEST(Histogram, AsciiRenderIncludesBars) {
  Histogram h(0.0, 1.0, 2);
  for (int i = 0; i < 10; ++i) h.add(0.25);
  h.add(0.75);
  const std::string art = h.ascii(20);
  EXPECT_NE(art.find('#'), std::string::npos);
  EXPECT_NE(art.find("10"), std::string::npos);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 0.0, 4), gs::Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), gs::Error);
}

// -------------------------------------------------------------- format

TEST(Format, Bytes) {
  EXPECT_EQ(gs::format_bytes(512), "512 B");
  EXPECT_EQ(gs::format_bytes(2048), "2.00 KB");
  EXPECT_EQ(gs::format_bytes(1ull << 30), "1.00 GB");
}

TEST(Format, BandwidthUsesDecimalGB) {
  EXPECT_EQ(gs::format_bandwidth_gbps(1.6e12), "1600.0 GB/s");
  EXPECT_EQ(gs::format_bandwidth_gbps(4.34e11), "434.0 GB/s");
}

TEST(Format, Seconds) {
  EXPECT_EQ(gs::format_seconds(2.5), "2.500 s");
  EXPECT_EQ(gs::format_seconds(0.02874), "28.74 ms");
  EXPECT_EQ(gs::format_seconds(3.2e-6), "3.20 us");
}

TEST(Format, Count) {
  EXPECT_EQ(gs::format_count(1073741824ull), "1,073,741,824");
  EXPECT_EQ(gs::format_count(999), "999");
  EXPECT_EQ(gs::format_count(1000), "1,000");
}

TEST(Format, TableAlignsColumns) {
  gs::TableFormatter t({"Kernel", "GB/s"});
  t.row({"HIP single variable", "1163"});
  t.row({"Julia", "570"});
  const std::string out = t.str();
  EXPECT_NE(out.find("Kernel"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Both rows start at column 0 and the numbers are aligned to the same col.
  const auto pos1 = out.find("1163");
  const auto pos2 = out.find("570");
  ASSERT_NE(pos1, std::string::npos);
  ASSERT_NE(pos2, std::string::npos);
  const auto col = [&](std::size_t pos) {
    const auto nl = out.rfind('\n', pos);
    return pos - (nl == std::string::npos ? 0 : nl + 1);
  };
  EXPECT_EQ(col(pos1), col(pos2));
}

TEST(Format, TableRowWidthMismatchThrows) {
  gs::TableFormatter t({"a", "b"});
  EXPECT_THROW(t.row({"only one"}), gs::Error);
}

// --------------------------------------------------------------- clock

TEST(SimClock, AdvanceMonotone) {
  gs::SimClock c;
  EXPECT_DOUBLE_EQ(c.now(), 0.0);
  c.advance(1.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance(-3.0);  // negative deltas ignored
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(1.0);  // going backwards ignored
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.advance_to(4.0);
  EXPECT_DOUBLE_EQ(c.now(), 4.0);
}

TEST(WallTimer, MeasuresSomethingNonNegative) {
  gs::WallTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 10000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
}

// --------------------------------------------------------- exact stats

/// The reference for add_many: add() over xs in order.
gs::ExactStats add_loop(const std::vector<double>& xs,
                        gs::ExactStats acc = {}) {
  for (const double x : xs) acc.add(x);
  return acc;
}

double with_sign(Rng& rng, double x) {
  return rng.next_u64() % 2 == 0 ? x : -x;
}

/// Seeded values of every kind add_many must bucket exactly: zeros of
/// both signs, subnormals, normals across the exponent range (squares
/// that underflow included) and magnitudes near 1e150.
std::vector<double> mixed_values(Rng& rng, std::size_t n) {
  std::vector<double> xs(n);
  for (double& x : xs) {
    const double u = 1.0 + rng.uniform01();
    switch (rng.next_u64() % 5) {
      case 0: x = with_sign(rng, 0.0); break;
      case 1:
        x = with_sign(rng, std::ldexp(u, -1075 + static_cast<int>(
                                                      rng.next_u64() % 52)));
        break;
      case 2:
        x = with_sign(rng, std::ldexp(u, 490 + static_cast<int>(
                                                  rng.next_u64() % 20)));
        break;
      case 3:
        x = with_sign(rng, std::ldexp(u, static_cast<int>(
                                             rng.next_u64() % 1500) -
                                             1000));
        break;
      default: x = with_sign(rng, u); break;
    }
  }
  return xs;
}

TEST(ExactStatsAddMany, EqualsAddLoopOnMixedInputsAtEveryLength) {
  Rng rng(20260415);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{2047}, std::size_t{2048},
                              std::size_t{2049}, std::size_t{100000}}) {
    const auto xs = mixed_values(rng, n);
    gs::ExactStats many;
    many.add_many(xs);
    EXPECT_EQ(many, add_loop(xs)) << "n=" << n;
    EXPECT_EQ(many.count(), n);
  }
}

TEST(ExactStatsAddMany, EqualsAddLoopOnRunsOfOneExponentAndOfZeros) {
  Rng rng(7);
  // 10^5 values in [0.5, 1): every significand lands in one bucket, so
  // flushes at 2048 adds are what keeps it from overflowing.
  std::vector<double> run(100000);
  for (double& x : run) x = 0.5 + 0.5 * rng.uniform01();
  run[0] = std::nextafter(1.0, 0.0);  // the largest significand
  gs::ExactStats many;
  many.add_many(run);
  EXPECT_EQ(many, add_loop(run));

  std::vector<double> zeros(5000, 0.0);
  zeros[4000] = 3.0;
  zeros[4001] = -0.0;
  gs::ExactStats z;
  z.add_many(zeros);
  EXPECT_EQ(z, add_loop(zeros));

  // Appending to a nonempty accumulator, span after span.
  gs::ExactStats acc = add_loop(mixed_values(rng, 3000));
  gs::ExactStats ref = acc;
  for (int part = 0; part < 4; ++part) {
    const auto xs = part % 2 == 0 ? mixed_values(rng, 4097) : zeros;
    acc.add_many(xs);
    ref = add_loop(xs, ref);
    EXPECT_EQ(acc, ref) << "part " << part;
  }
}

TEST(ExactStatsAddMany, KeepsTheFirstZeroAsAddDoes) {
  // -0.0 == +0.0, so operator== cannot tell which one min/max kept. The
  // later zero sits in an earlier vector lane than the first one.
  for (const auto& xs :
       {std::vector<double>{5.0, 0.0, 7.0, 8.0, -0.0, 9.0, 10.0, 11.0, 12.0},
        std::vector<double>{-5.0, -0.0, -7.0, -8.0, 0.0, -9.0, -10.0, -11.0,
                            -12.0}}) {
    gs::ExactStats many;
    many.add_many(xs);
    const gs::ExactStats loop = add_loop(xs);
    EXPECT_EQ(std::signbit(many.min()), std::signbit(loop.min()));
    EXPECT_EQ(std::signbit(many.max()), std::signbit(loop.max()));
  }
}

TEST(ExactStatsAddMany, RejectsNonFiniteBeforeAccumulating) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, 1e160}) {
    std::vector<double> xs(3000, 1.5);
    xs[2500] = bad;
    gs::ExactStats acc;
    acc.add(2.0);
    const gs::ExactStats before = acc;
    EXPECT_THROW(acc.add_many(xs), gs::Error);
    EXPECT_EQ(acc, before);
    EXPECT_THROW(gs::ExactStats{}.add(bad), gs::Error);
  }
  // The buckets are clean for the next call.
  const std::vector<double> ok(3000, 1.5);
  gs::ExactStats acc;
  acc.add_many(ok);
  EXPECT_EQ(acc, add_loop(ok));
}

// ------------------------------------------------------------ checksum

std::span<const std::byte> bytes_of(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

TEST(Crc32, KnownVectors) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(gs::crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(gs::crc32(bytes_of("")), 0x00000000u);
  EXPECT_EQ(gs::crc32(bytes_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(gs::crc32(bytes_of("abc")), 0x352441C2u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto all = bytes_of("the quick brown fox");
  const auto part1 = all.subspan(0, 9);
  const auto part2 = all.subspan(9);
  EXPECT_EQ(gs::crc32_update(gs::crc32(part1), part2), gs::crc32(all));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<double> data(100, 1.5);
  const auto before =
      gs::crc32_of(std::span<const double>(data.data(), data.size()));
  auto* raw = reinterpret_cast<unsigned char*>(data.data());
  raw[403] ^= 0x10;
  const auto after =
      gs::crc32_of(std::span<const double>(data.data(), data.size()));
  EXPECT_NE(before, after);
}

// --------------------------------------------------------------- error

TEST(Error, ThrowMacroFormatsMessage) {
  try {
    GS_THROW(gs::IoError, "file " << 42 << " missing");
    FAIL() << "should have thrown";
  } catch (const gs::IoError& e) {
    EXPECT_STREQ(e.what(), "file 42 missing");
  }
}

TEST(Error, RequireMacroThrowsWithContext) {
  const int x = 3;
  try {
    GS_REQUIRE(x > 5, "x=" << x);
    FAIL() << "should have thrown";
  } catch (const gs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("x=3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("x > 5"), std::string::npos);
  }
}

TEST(Error, HierarchyIsCatchable) {
  EXPECT_THROW(throw gs::ParseError("p"), gs::Error);
  EXPECT_THROW(throw gs::MpiError("m"), gs::Error);
  EXPECT_THROW(throw gs::GpuError("g"), std::runtime_error);
}

}  // namespace
