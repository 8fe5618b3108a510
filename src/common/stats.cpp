#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "simd/simd.h"

namespace gs {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::cv() const {
  return mean_ != 0.0 ? stddev() / mean_ : 0.0;
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(other.n_);
  const double combined = n + m;
  m2_ += other.m2_ + delta * delta * n * m / combined;
  mean_ = (n * mean_ + m * other.mean_) / combined;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

namespace {

/// Adds `v` into limb `i` of `a`, propagating the carry upward.
void add_limb(ExactSum::Limbs& a, std::size_t i, std::uint64_t v) {
  while (v != 0) {
    GS_ASSERT(i < ExactSum::kLimbs, "ExactSum limb overflow");
    const std::uint64_t s = a[i] + v;
    v = s < v ? 1 : 0;  // carry out
    a[i] = s;
    ++i;
  }
}

}  // namespace

void ExactSum::add(double x) {
  GS_REQUIRE(std::isfinite(x), "ExactSum::add requires a finite value");
  if (x == 0.0) return;

  // Decompose x = sign * m * 2^e with integer m < 2^53: biased exponent 0
  // is subnormal (m = frac); otherwise the implicit leading bit joins the
  // fraction.
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto biased = static_cast<unsigned>((bits >> 52) & 0x7ff);
  const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
  add_scaled((bits >> 63) != 0, biased,
             biased == 0 ? frac : (frac | (std::uint64_t{1} << 52)));
}

void ExactSum::add_scaled(bool negative, unsigned biased_exponent,
                          std::uint64_t sum) {
  // Bit 0 of limb 0 is 2^-1074, the weight of a significand's last bit
  // at biased exponents 0 (subnormal, e = -1074) and 1 (e = 1 - 1075);
  // each step up in exponent moves it one bit higher.
  const unsigned offset = biased_exponent == 0 ? 0 : biased_exponent - 1;
  const std::size_t limb = offset / 64;
  const unsigned shift = offset % 64;
  Limbs& acc = negative ? neg_ : pos_;
  add_limb(acc, limb, sum << shift);
  if (shift != 0) add_limb(acc, limb + 1, sum >> (64 - shift));
}

void ExactSum::merge(const ExactSum& other) {
  for (std::size_t i = 0; i < kLimbs; ++i) {
    add_limb(pos_, i, other.pos_[i]);
    add_limb(neg_, i, other.neg_[i]);
  }
}

double ExactSum::value() const {
  // Exact signed combination: compare magnitudes, subtract the smaller
  // from the larger, then round the exact difference once.
  int cmp = 0;
  for (std::size_t i = kLimbs; i-- > 0 && cmp == 0;) {
    if (pos_[i] != neg_[i]) cmp = pos_[i] > neg_[i] ? 1 : -1;
  }
  if (cmp == 0) return 0.0;
  const Limbs& big = cmp > 0 ? pos_ : neg_;
  const Limbs& small = cmp > 0 ? neg_ : pos_;

  Limbs mag{};
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::uint64_t d1 = big[i] - small[i];
    const std::uint64_t b1 = big[i] < small[i] ? 1u : 0u;
    mag[i] = d1 - borrow;
    borrow = b1 | (d1 < borrow ? 1u : 0u);
  }

  int h = -1;
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (mag[i] != 0) {
      h = static_cast<int>(i);
      break;
    }
  }
  GS_ASSERT(h >= 0, "nonzero comparison but zero magnitude");

  // Take the top 64-bit window plus a sticky bit for everything below it;
  // the u64 -> double conversion then performs the single
  // round-to-nearest, with the sticky bit breaking would-be ties.
  const int top_bit = 63 - std::countl_zero(mag[static_cast<std::size_t>(h)]);
  const long p = 64L * h + top_bit;  // absolute index of the top set bit
  const int used = top_bit + 1;      // window bits taken from limb h
  std::uint64_t window;
  bool sticky = false;
  if (used == 64) {
    window = mag[static_cast<std::size_t>(h)];
  } else {
    window = mag[static_cast<std::size_t>(h)] << (64 - used);
    if (h > 0) {
      window |= mag[static_cast<std::size_t>(h - 1)] >> used;
      sticky = (mag[static_cast<std::size_t>(h - 1)] << (64 - used)) != 0;
    }
  }
  for (int i = h - (used == 64 ? 1 : 2); i >= 0 && !sticky; --i) {
    sticky = mag[static_cast<std::size_t>(i)] != 0;
  }
  if (sticky) window |= 1;

  const double r = std::scalbn(static_cast<double>(window),
                               static_cast<int>(p - 63 - 1074));
  return cmp > 0 ? r : -r;
}

ExactSum ExactSum::from_limbs(const Limbs& pos, const Limbs& neg) {
  ExactSum s;
  s.pos_ = pos;
  s.neg_ = neg;
  return s;
}

void ExactStats::add(double x) {
  GS_REQUIRE(std::isfinite(x) && std::isfinite(x * x),
             "ExactStats requires finite values with finite squares");
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_.add(x);
  sumsq_.add(x * x);
}

namespace {

/// add_many's scratch: one bucket per (sign, biased exponent), the top 12
/// bits of a double, for the values, and per biased exponent for their
/// squares, which are never negative. Every flush leaves the buckets
/// zero, so each thread reuses one set without clearing it.
struct ExactBuckets {
  std::array<std::uint64_t, 4096> sum{};
  std::array<std::uint64_t, 2048> sumsq{};
};

/// A bucket takes at most this many significands (each < 2^53) between
/// flushes, so it stays below 2^64.
constexpr std::size_t kFlushEvery = 2048;

/// add_many's first pass, over n > 0 values: lane-wise extrema, or
/// nullopt unless x*x*0 stayed 0 for every x, which fails exactly for
/// the values add() rejects (NaN, infinities, squares that overflow).
std::optional<simd::MinMax> extrema(std::span<const double> xs) {
  constexpr int W = simd::kReduceWidth;
  using P = simd::pack<W>;
  simd::MinMax mm{xs[0], xs[0]};
  bool finite = true;
  std::size_t i = 0;
  if (xs.size() >= W) {
    P lo = P::load(xs.data());
    P hi = lo;
    P bad = P::broadcast(0.0);
    for (; i + W <= xs.size(); i += W) {
      const P x = P::load(xs.data() + i);
      lo = min(lo, x);
      hi = max(hi, x);
      bad = bad + x * x * 0.0;
    }
    for (int l = 0; l < W; ++l) {
      mm.lo = std::min(mm.lo, lo.lane(l));
      mm.hi = std::max(mm.hi, hi.lane(l));
      finite &= bad.lane(l) == 0.0;
    }
  }
  for (; i < xs.size(); ++i) {
    mm.lo = std::min(mm.lo, xs[i]);
    mm.hi = std::max(mm.hi, xs[i]);
    finite &= xs[i] * xs[i] * 0.0 == 0.0;
  }
  if (!finite) return std::nullopt;
  return mm;
}

}  // namespace

void ExactStats::add_many(std::span<const double> xs) {
  if (xs.empty()) return;
  const std::optional<simd::MinMax> mm = extrema(xs);
  GS_REQUIRE(mm.has_value(),
             "ExactStats requires finite values with finite squares");

  // Lane-wise extrema agree with add()'s in-order ones except in which
  // zero (+0 or -0) they keep; add() keeps the first, so take the span's
  // first zero when the extremum is zero.
  const auto first_zero = [&] { return *std::find(xs.begin(), xs.end(), 0.0); };
  const double lo = mm->lo == 0.0 ? first_zero() : mm->lo;
  const double hi = mm->hi == 0.0 ? first_zero() : mm->hi;
  min_ = n_ == 0 ? lo : std::min(min_, lo);
  max_ = n_ == 0 ? hi : std::max(max_, hi);
  n_ += xs.size();

  thread_local const auto scratch = std::make_unique<ExactBuckets>();
  ExactBuckets& b = *scratch;
  constexpr std::uint64_t kFrac = (std::uint64_t{1} << 52) - 1;
  const auto significand = [](std::uint64_t bits) {
    // Zeros add 0; subnormals have no implicit bit.
    return (bits & kFrac) |
           (static_cast<std::uint64_t>((bits & ~(std::uint64_t{1} << 63)) >
                                       kFrac)
            << 52);
  };
  // Folds the nonzero buckets into `acc` and zeroes them, skipping
  // all-zero runs of 8 with one test.
  const auto flush = [](std::span<std::uint64_t> buckets, ExactSum& acc) {
    for (unsigned base = 0; base < buckets.size(); base += 8) {
      std::uint64_t any = 0;
      for (unsigned k = base; k < base + 8; ++k) any |= buckets[k];
      if (any == 0) continue;
      for (unsigned k = base; k < base + 8; ++k) {
        if (buckets[k] == 0) continue;
        acc.add_scaled(k >= 2048, k & 0x7ff, buckets[k]);
        buckets[k] = 0;
      }
    }
  };
  for (std::size_t start = 0; start < xs.size(); start += kFlushEvery) {
    const std::size_t end = std::min(xs.size(), start + kFlushEvery);
    for (std::size_t j = start; j < end; ++j) {
      const auto x = std::bit_cast<std::uint64_t>(xs[j]);
      const auto q = std::bit_cast<std::uint64_t>(xs[j] * xs[j]);
      b.sum[x >> 52] += significand(x);
      b.sumsq[q >> 52] += significand(q);  // finite x * x has no sign bit
    }
    flush(b.sum, sum_);
    flush(b.sumsq, sumsq_);
  }
}

void ExactStats::merge(const ExactStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  n_ += other.n_;
  sum_.merge(other.sum_);
  sumsq_.merge(other.sumsq_);
}

double ExactStats::mean() const {
  return n_ ? sum_.value() / static_cast<double>(n_) : 0.0;
}

double ExactStats::variance() const {
  if (n_ < 2) return 0.0;
  // sum((x - mu)^2) = sumsq - sum * mu exactly in real arithmetic; the
  // operands here are the deterministic roundings of the exact sums, so
  // the result is a pure function of (n, exact sums) — the same for any
  // partitioning.
  const double s = sum_.value();
  const double q = sumsq_.value();
  const double mu = s / static_cast<double>(n_);
  return std::max(0.0, (q - s * mu) / static_cast<double>(n_ - 1));
}

double ExactStats::stddev() const { return std::sqrt(variance()); }

ExactStats ExactStats::from_parts(std::uint64_t n, double min, double max,
                                  ExactSum sum, ExactSum sumsq) {
  ExactStats s;
  s.n_ = n;
  s.min_ = min;
  s.max_ = max;
  s.sum_ = sum;
  s.sumsq_ = sumsq;
  return s;
}

DecayedRate::DecayedRate(double halflife_seconds)
    : halflife_(halflife_seconds) {
  GS_REQUIRE(halflife_seconds > 0.0,
             "decayed rate needs a positive half-life, got "
                 << halflife_seconds);
}

double DecayedRate::decayed_to(double now_seconds) const {
  if (!started_) return 0.0;
  const double dt = now_seconds - last_;
  if (dt <= 0.0) return count_;  // clock went backwards: never amplify
  return count_ * std::exp2(-dt / halflife_);
}

void DecayedRate::add(double now_seconds, double count) {
  count_ = decayed_to(now_seconds) + count;
  last_ = started_ ? std::max(last_, now_seconds) : now_seconds;
  started_ = true;
}

double DecayedRate::rate(double now_seconds) const {
  return decayed_to(now_seconds) * M_LN2 / halflife_;
}

double DecayedRate::count(double now_seconds) const {
  return decayed_to(now_seconds);
}

void DecayedRate::observe(double now_seconds, double value) {
  if (!started_) {
    count_ = value;  // first observation seeds the level directly
  } else {
    const double dt = std::max(0.0, now_seconds - last_);
    const double w = std::exp2(-dt / halflife_);
    count_ = count_ * w + value * (1.0 - w);
  }
  last_ = started_ ? std::max(last_, now_seconds) : now_seconds;
  started_ = true;
}

void DecayedRate::reset() {
  count_ = 0.0;
  last_ = 0.0;
  started_ = false;
}

const std::vector<double>& Samples::sorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (const double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0.0;
  for (const double v : values_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values_.size() - 1));
}

double Samples::min() const {
  GS_REQUIRE(!values_.empty(), "min() of empty sample set");
  return sorted().front();
}

double Samples::max() const {
  GS_REQUIRE(!values_.empty(), "max() of empty sample set");
  return sorted().back();
}

double Samples::percentile(double p) const {
  GS_REQUIRE(!values_.empty(), "percentile() of empty sample set");
  GS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile " << p << " out of [0,100]");
  const auto& s = sorted();
  if (s.size() == 1) return s.front();
  const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double Samples::spread_percent() const {
  const double m = mean();
  if (m == 0.0) return 0.0;
  return (max() - min()) / m * 100.0;
}

void LatencyHistogram::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  ++counts_[bucket_of(x)];
}

double LatencyHistogram::mean() const {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double LatencyHistogram::percentile(double p) const {
  GS_REQUIRE(p >= 0.0 && p <= 100.0, "percentile " << p << " out of [0,100]");
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(count_ - 1));
  if (rank == 0) return min_;
  if (rank == count_ - 1) return max_;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += counts_[b];
    if (seen > rank) return std::clamp(bucket_mid(b), min_, max_);
  }
  return max_;
}

std::size_t LatencyHistogram::bucket_of(double x) {
  // Negative, zero, NaN and tiny values share the first bucket.
  if (!(x >= std::ldexp(1.0, kMinExponent))) return 0;
  if (x >= std::ldexp(1.0, kMaxExponent)) return kBuckets - 1;
  int e = 0;
  const double m = std::frexp(x, &e);  // x = m * 2^e, m in [0.5, 1)
  const auto octave = static_cast<std::size_t>(e - 1 - kMinExponent);
  const auto sub = static_cast<std::size_t>((2.0 * m - 1.0) * kSubBuckets);
  return octave * kSubBuckets + sub;
}

double LatencyHistogram::bucket_mid(std::size_t bucket) {
  const auto octave = static_cast<int>(bucket / kSubBuckets);
  const auto sub = static_cast<double>(bucket % kSubBuckets);
  return std::ldexp(1.0 + (sub + 0.5) / kSubBuckets, octave + kMinExponent);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  GS_REQUIRE(bins > 0, "histogram needs at least one bin");
  GS_REQUIRE(hi > lo, "histogram range [" << lo << "," << hi << ") empty");
}

void Histogram::add(double x) {
  const double scaled =
      (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
  auto bin = static_cast<long>(std::floor(scaled));
  bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

void Histogram::add_all(const std::vector<double>& xs) {
  for (const double x : xs) add(x);
}

void Histogram::add_many(const double* xs, std::size_t n) {
  constexpr int W = simd::kNativeWidth;
  const double lo = lo_;
  const double range = hi_ - lo_;
  const auto bins = static_cast<double>(counts_.size());
  const long last = static_cast<long>(counts_.size()) - 1;
  std::size_t i = 0;
  if constexpr (W > 1) {
    for (; i + W <= n; i += W) {
      // Same expression tree as add(): (x - lo) / range * bins, floored
      // and clamped per lane.
      const auto scaled =
          (simd::pack<W>::load(xs + i) - lo) / range * bins;
      for (int l = 0; l < W; ++l) {
        auto bin = static_cast<long>(std::floor(scaled.lane(l)));
        bin = std::clamp<long>(bin, 0, last);
        ++counts_[static_cast<std::size_t>(bin)];
      }
      total_ += static_cast<std::size_t>(W);
    }
  }
  for (; i < n; ++i) add(xs[i]);
}

void Histogram::merge(const Histogram& other) {
  GS_REQUIRE(other.lo_ == lo_ && other.hi_ == hi_ &&
                 other.counts_.size() == counts_.size(),
             "merging histograms with different binning");
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

double Histogram::bin_center(std::size_t bin) const {
  return 0.5 * (bin_lo(bin) + bin_hi(bin));
}

std::string Histogram::ascii(int width) const {
  std::size_t peak = 1;
  for (const std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream oss;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = static_cast<int>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) * width);
    char line[64];
    std::snprintf(line, sizeof(line), "[%10.2f, %10.2f) %8zu |",
                  bin_lo(b), bin_hi(b), counts_[b]);
    oss << line << std::string(static_cast<std::size_t>(bar), '#') << "\n";
  }
  return oss.str();
}

}  // namespace gs
