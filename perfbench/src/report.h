// Benchmark-side statistics, result reporting and span tracing.
//
// Percentiles are computed here, from a sorted copy of every sample, and
// never through gs::Samples: that class caches its sort and does not
// invalidate it on add(), so a query followed by more samples reads a
// stale order.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A percentile is reported only when at least this many samples lie
/// beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of a sample set.
struct Quantile {
  double p = 0.0;           ///< requested percentile, 0 < p <= 100
  double value = 0.0;       ///< rank-th smallest, rank = ceil(p/100 * n)
  std::size_t count = 0;    ///< samples in the set
  std::size_t beyond = 0;   ///< samples ranked after the chosen one
  bool supported() const { return count > 0 && beyond >= kMinBeyond; }
};

class SampleSet {
 public:
  void add(double x) { values_.push_back(x); }
  void append(const SampleSet& other);
  std::size_t size() const { return values_.size(); }
  double sum() const;
  /// The smallest sample; throws when there is none.
  double min() const;
  /// Sorts a copy on every call, so samples added after an earlier query
  /// are always seen.
  Quantile quantile(double p) const;
  /// The highest percentile not above `p` that has kMinBeyond samples
  /// beyond it (p itself when the set is large enough). Requires
  /// size() > kMinBeyond.
  Quantile supported_quantile(double p) const;
  const std::vector<double>& values() const { return values_; }

 private:
  /// The rank-th smallest sample (1-based), from a sorted copy.
  Quantile at_rank(std::size_t rank) const;

  std::vector<double> values_;
};

/// Median of a set that must support it (throws otherwise).
double median(const SampleSet& samples, const char* what);

/// The last line the benchmark prints: correctness, counts and metrics.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Human-readable table, one metric a line.
  std::string table() const;
  /// One JSON object: {"correct", "attempted", "failed", "metrics"}.
  std::string json() const;

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
};

/// In-memory span recorder for the traced run. Each span carries its
/// name, start, end, the id of the span that caused it and the request it
/// belongs to; write_chrome() emits them as Chrome-trace "X" events, the
/// format gs::prof::Profiler writes. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent,
                       std::uint64_t request);
  /// Reserves an id for a span whose children are recorded before it.
  std::uint64_t reserve();
  void record_as(std::uint64_t id, const char* name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t parent,
                 std::uint64_t request);
  std::size_t size() const;
  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
    std::uint64_t id, parent, request;
    std::uint64_t lane;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::uint64_t> lanes_;  ///< thread hash -> lane
  std::uint64_t next_id_ = 1;
};

/// Times fn() and records it as a span; returns the elapsed seconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, std::uint64_t parent,
             std::uint64_t request, Fn&& fn) {
  const auto a = Clock::now();
  fn();
  const auto b = Clock::now();
  tracer.record(name, a, b, parent, request);
  return seconds_between(a, b);
}

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
