#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

void SampleSet::append(const SampleSet& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double SampleSet::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double SampleSet::min() const {
  if (values_.empty()) throw std::runtime_error("min of no samples");
  return *std::min_element(values_.begin(), values_.end());
}

Quantile SampleSet::quantile(double p) const {
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside (0, 100]");
  }
  const double n = static_cast<double>(values_.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  Quantile q = at_rank(std::max<std::size_t>(rank, 1));
  q.p = p;
  return q;
}

Quantile SampleSet::at_rank(std::size_t rank) const {
  Quantile q;
  q.count = values_.size();
  if (values_.empty()) return q;
  rank = std::min(rank, values_.size());
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  q.value = sorted[rank - 1];
  q.beyond = sorted.size() - rank;
  q.p = 100.0 * static_cast<double>(rank) / static_cast<double>(q.count);
  return q;
}

Quantile SampleSet::supported_quantile(double p) const {
  if (values_.size() <= kMinBeyond) {
    throw std::runtime_error("too few samples for any percentile");
  }
  const Quantile wanted = quantile(p);
  if (wanted.supported()) return wanted;
  // The largest rank that leaves kMinBeyond samples after it.
  return at_rank(values_.size() - kMinBeyond);
}

double median(const SampleSet& samples, const char* what) {
  const Quantile q = samples.quantile(50.0);
  if (!q.supported()) {
    throw std::runtime_error(std::string("too few samples for a median of ") +
                             what + " (" + std::to_string(q.count) + ")");
  }
  return q.value;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  for (auto& [n, e] : metrics_) {
    if (n == name) throw std::logic_error("metric reported twice: " + name);
  }
  metrics_.emplace_back(name, Entry{value, unit});
}

std::string Report::table() const {
  std::ostringstream out;
  for (const auto& [name, e] : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-36s %16.6g %s\n", name.c_str(),
                  e.value, e.unit.c_str());
    out << line;
  }
  return out.str();
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", e.value);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << e.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::uint64_t Tracer::reserve() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled_) return 0;
  const std::uint64_t id = reserve();
  record_as(id, name, start, end, parent, request);
  return id;
}

void Tracer::record_as(std::uint64_t id, const char* name,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return;
  const std::uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mu_);
  const auto lane = lanes_.try_emplace(thread, lanes_.size() + 1).first->second;
  spans_.push_back(Span{name, start, end, id, parent, request, lane});
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    const double ts = std::chrono::duration<double, std::micro>(
                          s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << (first ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":" << ts
        << ",\"dur\":" << dur << ",\"pid\":0,\"tid\":" << s.lane
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
    first = false;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
