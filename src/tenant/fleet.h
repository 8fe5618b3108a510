// tenant::Fleet — the campaign -> publish -> serve control loop.
//
// The paper's end-to-end story stops where most workflow papers stop: the
// campaign writes its BP dataset and a notebook reads it later. A
// multi-tenant facility does not get that luxury — analysts query
// yesterday's dataset while today's stages are still running. Fleet closes
// the loop in-process:
//
//   * the campaign runs on a gs::sched Scheduler driven in a dedicated
//     thread (partitions, QOS, preemption all apply);
//   * every COMPLETED functional job's committed dataset (the
//     crash-consistent BP writer guarantees commit-or-absent) is published
//     into a registry of svc::Service instances, one serving tier per
//     dataset, while later stages keep running;
//   * tenants issue queries against published datasets concurrently with
//     the campaign; every answer is tagged with the tenant and measured
//     both server-side (svc per-tenant metrics, SLO violations) and
//     client-side (exact per-tenant latency percentiles across all
//     datasets).
//
// Thread-safety: the registry is mutex-guarded; svc::Service is itself
// concurrent; the Scheduler is touched only by its runner thread between
// start() and wait(). Query threads never see a dataset before its
// publish (the registry insert happens-after the writer's commit).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "sched/campaign.h"
#include "sched/scheduler.h"
#include "svc/query.h"
#include "svc/service.h"

namespace gs::tenant {

struct FleetConfig {
  /// Scheduler configuration (partitions, QOS tiers, faults, policy).
  /// FleetConfig owns the observer slot: any observer set here is called
  /// after Fleet's own publish hook.
  sched::SchedulerConfig sched;
  /// Per-dataset serving configuration (worker threads, cache,
  /// slo_seconds for per-tenant SLO-violation counting).
  svc::ServiceConfig service;
  /// Deadline attached to every Fleet::query ( <= 0 = none).
  double query_timeout_seconds = 0.0;
};

/// Aggregated per-tenant serving outcome, measured client-side by
/// Fleet::query across every published dataset (exact percentiles — no
/// cross-service merge approximation).
struct TenantServingStats {
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  std::uint64_t slo_violations = 0;
  std::size_t latency_count = 0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config = {});
  ~Fleet();  ///< stops the campaign thread and every service

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// The underlying scheduler. Between start() and wait() it belongs to
  /// the runner thread — do not touch it from others.
  sched::Scheduler& scheduler() { return sched_; }
  const sched::Scheduler& scheduler() const { return sched_; }

  /// Submits the campaign and drains the scheduler on a dedicated
  /// thread, publishing datasets as stages complete. One campaign at a
  /// time; call wait() before the next.
  void start(const sched::Campaign& campaign, double submit_at = 0.0);

  /// Joins the campaign thread (idempotent). Serving keeps running —
  /// published datasets stay queryable after the campaign ends.
  void wait();

  /// Runs the whole campaign synchronously (start + wait).
  void run_campaign(const sched::Campaign& campaign, double submit_at = 0.0);

  /// Paths published so far, in publish order.
  std::vector<std::string> datasets() const;

  /// Blocks until at least `n` datasets are published, the campaign
  /// thread ends, or `timeout_seconds` elapses; true iff `n` reached.
  bool wait_for_datasets(std::size_t n, double timeout_seconds) const;

  /// One tenant query against a published dataset (throws gs::ParseError
  /// for an unknown dataset). Thread-safe; concurrent with the campaign.
  svc::Response query(const std::string& tenant, const std::string& dataset,
                      svc::QueryBody body);

  /// Server-side per-tenant metrics of one published dataset's service.
  svc::MetricsSnapshot service_metrics(const std::string& dataset) const;

  /// Client-side per-tenant serving outcomes (see TenantServingStats).
  std::map<std::string, TenantServingStats> serving_stats() const;

 private:
  void publish(const std::string& path);
  svc::Service* find(const std::string& dataset) const;

  FleetConfig config_;
  sched::Scheduler sched_;
  std::thread runner_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::map<std::string, std::unique_ptr<svc::Service>> services_;
  std::vector<std::string> order_;  ///< publish order
  bool campaign_done_ = false;

  struct TenantCounters {
    std::uint64_t ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t slo_violations = 0;
    LatencyHistogram latencies;
  };
  mutable std::mutex stats_mu_;
  std::map<std::string, TenantCounters> tenant_stats_;
};

}  // namespace gs::tenant
