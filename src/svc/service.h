// gs::svc service core — a concurrent dataset-analysis server over a
// BP-mini dataset: the consumer side of the paper's workflow (Figure 9)
// turned into a load-bearing serving layer, the way many analysts hammer
// one shared simulation output.
//
// Architecture:
//   * a pool of worker threads pulls requests from a bounded admission
//     queue; when the queue is full, submit() answers ServerBusy
//     immediately (backpressure — rejects are counted, never lost, and
//     nobody blocks or crashes);
//   * every request carries an optional deadline, enforced when a worker
//     dequeues it and again after execution (DeadlineExceeded);
//   * block loads go through a sharded LRU BlockCache so repeated
//     slice/stats queries stop re-reading subfiles from disk; cached and
//     uncached paths assemble bitwise-identical answers;
//   * shutdown() drains: queued and in-flight requests complete, new
//     submissions are refused with ShuttingDown;
//   * observability: each request is recorded as a span in a shared
//     gs::prof::Profiler (Chrome trace with one lane per worker thread)
//     and aggregated into a MetricsSnapshot (per-verb/outcome counts,
//     p50/p95/p99 latency, queue depth, rejects, cache hit rate).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bp/reader.h"
#include "common/stats.h"
#include "config/json.h"
#include "prof/profiler.h"
#include "shard/map.h"
#include "shard/reshard.h"
#include "svc/cache.h"
#include "svc/query.h"

namespace gs::svc {

struct ServiceConfig {
  /// Request-handling worker threads. These are SERVICE workers (I/O +
  /// query orchestration); any gs::par data-parallel region a worker
  /// enters (analysis reductions, checksums) shares the process-global
  /// gs::par pool — concurrent regions serialize at the region boundary
  /// and nested regions run inline, so it is safe for every worker to
  /// use par:: primitives freely.
  std::size_t threads = 2;
  /// Admission-queue bound; 0 disables admission control (unbounded).
  std::size_t queue_capacity = 64;
  std::uint64_t cache_bytes = 64ull << 20;
  std::size_t cache_shards = 8;
  bool cache_enabled = true;
  /// Serve uncompressed double blocks as zero-copy spans over mmap'd
  /// subfiles (bp::Reader::try_map_block) instead of heap copies through
  /// the block cache. Answers are bitwise-identical either way; blocks
  /// the mmap path cannot serve (compressed, float, damaged, no mmap on
  /// the platform) fall back to the copying route per fetch. Off forces
  /// every fetch through the copying/cached path — tests asserting exact
  /// BlockCache counters set this to false.
  bool mmap_reads = true;
  /// Shared trace sink; may be null. Safe to share across services —
  /// Profiler::record is thread-safe.
  prof::Profiler* profiler = nullptr;
  /// Instrumentation hook, invoked on the worker thread right before an
  /// admitted request executes (tests use it to park workers; telemetry
  /// can use it to sample queue states). Must be thread-safe.
  std::function<void(const Request&)> before_execute;
  /// Latency SLO for ok() responses, seconds (0 = no SLO). Completed
  /// requests slower than this bump the owning tenant's slo_violations
  /// counter — the service keeps answering; the counter is the signal.
  double slo_seconds = 0.0;
  /// Cluster membership (gsserved --shard-map). When set, requests that
  /// carry a ShardSelector are answered PARTIALLY — only the blocks the
  /// selector's `act_as` shard owns under this map — with PartialMeta
  /// attached for the router's exact merge. Requests without a selector
  /// are served whole, exactly as on a non-member daemon.
  std::shared_ptr<const shard::ShardMap> shard_map;
  /// This daemon's own id within shard_map (gsserved --shard-id). Used
  /// during an epoch handover to warm exactly the blocks the new ring
  /// newly assigns to this daemon; empty skips replacement warming.
  std::string shard_id;
  /// After reload_shard_map flips to a new epoch, sub-queries pinning the
  /// PREVIOUS epoch stay answerable for this long (the routers' staggered
  /// flip window). Past it they refuse with stale_epoch.
  double reload_grace_seconds = 2.0;
};

/// Per-tenant slice of the service metrics (requests tagged with
/// Request::tenant; untagged traffic is not attributed).
struct TenantMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t errors = 0;  ///< every non-ok final status
  /// ok() responses whose latency exceeded ServiceConfig::slo_seconds.
  std::uint64_t slo_violations = 0;
  std::size_t latency_count = 0;
  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
};

/// Point-in-time service metrics (counters are cumulative since start).
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t bad_request = 0;
  std::uint64_t internal_error = 0;
  /// Sub-queries refused because they pinned an epoch this daemon no
  /// longer (or not yet) serves — retryable, the routers' signal.
  std::uint64_t stale_epoch = 0;
  /// ok() responses that skipped damaged blocks (Response::degraded).
  std::uint64_t degraded = 0;

  /// Sum of Response::bytes_scanned over completed requests: payload
  /// bytes examined (mmap views and heap copies, cache hits included).
  std::uint64_t bytes_scanned = 0;
  /// Sum of Response::exec_seconds over completed requests; together
  /// with bytes_scanned this yields the service's effective scan
  /// bandwidth (the "io" object of to_json()).
  double exec_seconds_total = 0.0;

  /// Requests by verb and final status code.
  std::array<std::array<std::uint64_t, kNumStatusCodes>, kNumVerbs>
      by_verb_outcome{};

  std::size_t queue_depth = 0;      ///< at snapshot time
  std::size_t max_queue_depth = 0;  ///< high-water mark
  std::size_t queue_capacity = 0;   ///< 0 = unbounded

  /// Latency of successfully completed requests, seconds.
  std::size_t latency_count = 0;
  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;

  CacheStats cache;

  /// Per-tenant breakdown, keyed by Request::tenant (sorted by name).
  std::map<std::string, TenantMetrics> tenants;

  /// Every submitted request is accounted for exactly once.
  std::uint64_t accounted() const {
    return completed_ok + rejected_busy + rejected_shutdown +
           deadline_exceeded + bad_request + internal_error + stale_epoch;
  }

  json::Value to_json() const;
  std::string report() const;  ///< human-readable table
};

class Service {
 public:
  /// Opens the dataset at `path` (throws gs::IoError if absent/corrupt)
  /// and starts the worker pool.
  explicit Service(std::string path, ServiceConfig config = {});

  /// Drains and joins (equivalent to shutdown()).
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admits or rejects the request. Always yields a Response: rejected
  /// requests (queue full, shutting down) resolve immediately with the
  /// corresponding status. Never blocks on a full queue.
  std::future<Response> submit(Request request);

  /// submit() + wait.
  Response call(Request request);

  /// Stops admission, drains every queued and in-flight request, joins
  /// the workers. Idempotent; also runs on destruction.
  void shutdown();

  /// Adopts `next` as the serving shard map (the daemon half of an epoch
  /// handover). Validates it against the current epoch (strictly
  /// increasing, sane membership — throws gs::Error and keeps serving the
  /// old epoch otherwise), atomically publishes the new ring while the
  /// old epoch stays answerable for config().reload_grace_seconds, then
  /// warms every block the new ring newly assigns to config().shard_id
  /// through the CRC-verified read path, accounting the cost. Serialized
  /// against concurrent reloads; queries keep flowing throughout.
  /// Fault sites: "shard.reload" (validation), "shard.replace" (per
  /// warmed block).
  shard::ReplacementStats reload_shard_map(
      std::shared_ptr<const shard::ShardMap> next);

  /// The last handover's replacement accounting ("reshard" in the stats
  /// RPC); zero-valued before the first reload.
  shard::ReplacementStats reshard_stats() const;

  /// The shard-map epoch this daemon currently serves ("epoch" in the
  /// stats RPC — how the gs::ctrl actuator observes convergence); 0 when
  /// no map is loaded (unsharded daemon).
  std::uint64_t shard_epoch() const;

  MetricsSnapshot metrics() const;

  const bp::Reader& reader() const { return reader_; }
  const std::string& path() const { return path_; }
  const ServiceConfig& config() const { return config_; }
  BlockCache& cache() { return *cache_; }

 private:
  using SteadyClock = std::chrono::steady_clock;

  struct Job {
    Request request;
    std::promise<Response> promise;
    SteadyClock::time_point submitted_at;
    SteadyClock::time_point deadline;
    bool has_deadline = false;
  };

  void worker_main();
  void process(Job job);
  /// Executes the verb (cached reads); throws gs::Error for bad input.
  ResponseBody execute(const QueryBody& body, Response& response);
  /// One epoch's placement: the map and its ring, swapped as a unit.
  struct ShardEpoch {
    std::shared_ptr<const shard::ShardMap> map;
    std::shared_ptr<const shard::Ring> ring;
  };
  /// Resolves the epoch a sub-query pins: the current one, or the
  /// previous one within its grace window. Throws StaleEpochError
  /// (-> stale_epoch, retryable) when the pinned epoch is neither;
  /// throws gs::Error (-> BadRequest, final) on same-epoch ring_crc
  /// disagreement — that is split-brain, not a flip in progress.
  ShardEpoch pin_epoch(const ShardSelector& sel) const;
  /// Shard sub-query: answers only for the blocks `request.shard->act_as`
  /// owns under the pinned epoch and attaches PartialMeta.
  ResponseBody execute_partial(const Request& request, Response& response);
  /// Selection read through the block cache; bitwise-identical to
  /// bp::Reader::read on the same selection.
  std::vector<double> read_selection(const std::string& variable,
                                     std::int64_t step, const Box3& selection,
                                     Response& response);
  /// One cached/salvaged block fetch; nullptr means the block is damaged
  /// (the response has been flagged degraded and the block counted).
  BlockData fetch_block(const std::string& variable, std::int64_t step,
                        std::size_t block, Response& response);
  /// One block payload for query execution: a span over either a
  /// zero-copy mmap view (`hold` pins the mapping) or a cached/owned
  /// heap copy (`owned` pins the copy). !ok() = damaged block, already
  /// accounted on the response by fetch_block.
  struct BlockRef {
    std::span<const double> data;
    BlockData owned;
    std::shared_ptr<const bp::MappedFile> hold;
    bool ok() const { return owned != nullptr || hold != nullptr; }
  };
  /// fetch_block with the zero-copy fast path: tries the Reader's mmap
  /// view first (config_.mmap_reads), falls back to the cached copying
  /// route. Maintains the response's fetch counters on both routes.
  BlockRef fetch_block_ref(const std::string& variable, std::int64_t step,
                           std::size_t block, Response& response);
  /// The intact blocks of one step, viewed in place for a whole-field
  /// reduction: `parts` spans their cells and `refs` pins the views.
  struct BlockWalk {
    std::vector<BlockRef> refs;
    std::vector<std::span<const double>> parts;
  };
  /// Fetches each of the step's `n_blocks` blocks that `keep` accepts; a
  /// damaged one stays out of `parts` (fetch_block_ref has flagged the
  /// response).
  BlockWalk walk_blocks(const std::string& variable, std::int64_t step,
                        std::size_t n_blocks,
                        const std::function<bool(std::size_t)>& keep,
                        Response& response);
  /// The whole field as parts: the multiset of cells, fetch counters and
  /// degraded flag of read_selection over the whole shape. When the
  /// blocks are disjoint and inside the shape the parts are the blocks
  /// in place, plus a 0.0 for every cell no intact block covers;
  /// otherwise only read_selection's assembly order defines the field and
  /// the one part is its copy.
  BlockWalk walk_field(const std::string& variable, std::int64_t step,
                       Response& response);
  /// read_selection restricted to the blocks `act_as` owns under `ring`:
  /// unowned cells stay zero, coverage boxes (selection-local) and block
  /// counts land in `meta` for the router's overlay merge.
  std::vector<double> read_owned(const std::string& variable,
                                 std::int64_t step, const Box3& selection,
                                 const shard::Ring& ring,
                                 const std::string& act_as, PartialMeta& meta,
                                 Response& response);
  void count_outcome(Verb verb, StatusCode code, double latency_seconds,
                     const std::string& tenant);
  double since_epoch(SteadyClock::time_point tp) const;

  std::string path_;
  bp::Reader reader_;
  ServiceConfig config_;
  std::unique_ptr<BlockCache> cache_;
  SteadyClock::time_point epoch_;

  // Shard placement (all null/zero on non-member daemons). shard_mu_
  // guards the epoch pair; workers snapshot the shared_ptrs and drop the
  // lock, so a reload never blocks behind a long query.
  mutable std::mutex shard_mu_;
  ShardEpoch shard_current_;
  ShardEpoch shard_prev_;
  SteadyClock::time_point prev_expires_{};
  shard::ReplacementStats reshard_stats_;
  std::mutex reload_mu_;  ///< serializes concurrent reload_shard_map calls

  // Admission queue (queue_mu_ also guards the depth high-water mark).
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Job> queue_;
  bool stopping_ = false;
  std::size_t max_queue_depth_ = 0;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex shutdown_mu_;  ///< serializes concurrent shutdown() calls

  // Metrics (separate lock: workers update while clients snapshot; lock
  // order where both are held is queue_mu_ then metrics_mu_).
  mutable std::mutex metrics_mu_;
  std::uint64_t submitted_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t bytes_scanned_total_ = 0;
  double exec_seconds_total_ = 0.0;
  std::array<std::array<std::uint64_t, kNumStatusCodes>, kNumVerbs>
      by_verb_outcome_{};
  LatencyHistogram ok_latencies_;
  struct TenantCounters {
    std::uint64_t submitted = 0;
    std::uint64_t completed_ok = 0;
    std::uint64_t errors = 0;
    std::uint64_t slo_violations = 0;
    LatencyHistogram latencies;
  };
  std::map<std::string, TenantCounters> tenants_;
};

/// Typed in-process client: one call per verb, each returning a typed
/// Expected (the payload, or the Status the service answered with).
/// Thin and stateless — many clients can share one Service.
class Client {
 public:
  /// `default_timeout_seconds` is attached to every request (0 = none);
  /// `tenant` tags every request for per-tenant metrics ("" = untagged).
  explicit Client(Service& service, double default_timeout_seconds = 0.0,
                  std::string tenant = "")
      : service_(&service),
        timeout_(default_timeout_seconds),
        tenant_(std::move(tenant)) {}

  Expected<ListVariablesR> list_variables();
  Expected<FieldStatsR> field_stats(const std::string& variable,
                                    std::int64_t step);
  Expected<HistogramR> histogram(const std::string& variable,
                                 std::int64_t step, std::size_t bins);
  Expected<Slice2DR> slice2d(const std::string& variable, std::int64_t step,
                             int axis, std::int64_t coord);
  Expected<ReadBoxR> read_box(const std::string& variable, std::int64_t step,
                              const Box3& box);

  /// The raw Response of the last call (timings, cache counters).
  const Response& last_response() const { return last_; }

 private:
  template <typename R>
  Expected<R> roundtrip(QueryBody body);

  Service* service_;
  double timeout_;
  std::string tenant_;
  Response last_;
};

}  // namespace gs::svc
