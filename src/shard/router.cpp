#include "shard/router.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <sstream>
#include <utility>

#include "analysis/analysis.h"
#include "common/error.h"
#include "common/log.h"
#include "fault/fault.h"
#include "svc/merge.h"

namespace gs::shard {

namespace {

constexpr const char* kRouteSite = "shard.route";
constexpr const char* kHealthSite = "shard.health";
constexpr const char* kReloadSite = "shard.reload";
constexpr const char* kDrainSite = "shard.drain";

std::vector<std::string> shard_ids(const ShardMap& map) {
  std::vector<std::string> ids;
  ids.reserve(map.size());
  for (const auto& s : map.shards()) ids.push_back(s.id);
  return ids;
}

std::string join_ids(const std::vector<std::string>& ids) {
  std::ostringstream oss;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) oss << ",";
    oss << ids[i];
  }
  return oss.str();
}

svc::Response refused(const svc::Request& request, svc::StatusCode code,
                      std::string message) {
  svc::Response response;
  response.id = request.id;
  response.verb = svc::verb_of(request.body);
  response.status = svc::Status{code, std::move(message)};
  return response;
}

}  // namespace

Router::EpochState::EpochState(std::shared_ptr<const ShardMap> m,
                               const RouterConfig& config,
                               const EpochState* carry)
    : map(std::move(m)),
      ring(*map),
      health(std::make_unique<HealthTracker>(
          shard_ids(*map), config.health,
          carry != nullptr ? carry->health.get() : nullptr)) {
  for (const auto& info : map->shards()) {
    // Same id AND same endpoint: the previous epoch's state (pool,
    // latency history) carries over — the flip costs those shards
    // nothing. New or endpoint-moved shards get a fresh pool.
    if (carry != nullptr) {
      const auto it = carry->shards.find(info.id);
      if (it != carry->shards.end() &&
          it->second->info.endpoint == info.endpoint) {
        shards.emplace(info.id, it->second);
        continue;
      }
    }
    auto state = std::make_shared<ShardState>();
    state->info = info;
    state->pool = std::make_unique<rpc::ClientPool>(
        rpc::Endpoint::parse(info.endpoint), config.client,
        config.pool_max_idle);
    shards.emplace(info.id, std::move(state));
  }
}

Router::Pin::Pin(Router* r, std::shared_ptr<EpochState> e)
    : router(r), ep(std::move(e)) {
  ep->in_flight.fetch_add(1, std::memory_order_acq_rel);
}

Router::Pin::~Pin() {
  ep->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  // Lock-then-notify so a reload_map that just read in_flight under
  // epoch_mu_ cannot miss the wakeup.
  std::lock_guard<std::mutex> lock(router->epoch_mu_);
  router->drain_cv_.notify_all();
}

Router::Router(std::shared_ptr<const ShardMap> map, RouterConfig config)
    : config_(config) {
  GS_REQUIRE(map != nullptr, "router needs a shard map");
  GS_REQUIRE(config_.workers > 0, "router needs at least one worker");
  epoch_ = std::make_shared<EpochState>(std::move(map), config_, nullptr);
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
  if (config_.probe_interval_ms > 0) {
    probe_ = std::thread([this] { probe_main(); });
  }
}

Router::~Router() { shutdown(); }

void Router::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  probe_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (probe_.joinable()) probe_.join();
}

std::future<svc::Response> Router::submit(svc::Request request) {
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::promise<svc::Response> promise;
  std::future<svc::Response> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_) {
      promise.set_value(refused(request, svc::StatusCode::shutting_down,
                                "router shutting down"));
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.rejected_shutdown;
      return future;
    }
    if (config_.queue_capacity > 0 &&
        queue_.size() >= config_.queue_capacity) {
      promise.set_value(refused(request, svc::StatusCode::server_busy,
                                "router admission queue full"));
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.rejected_busy;
      return future;
    }
    queue_.push_back(Job{std::move(request), std::move(promise)});
  }
  queue_cv_.notify_one();
  return future;
}

svc::Response Router::call(svc::Request request) {
  return submit(std::move(request)).get();
}

void Router::worker_main() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.queries;
    }
    svc::Response response = route(job.request);
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      if (response.status.ok()) {
        ++stats_.completed_ok;
        if (response.degraded) ++stats_.degraded_answers;
      } else {
        ++stats_.failed;
      }
    }
    job.promise.set_value(std::move(response));
  }
}

void Router::probe_main() {
  const auto t_start = std::chrono::steady_clock::now();
  const auto now_seconds = [&t_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t_start)
        .count();
  };
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    probe_cv_.wait_for(lock,
                       std::chrono::milliseconds(config_.probe_interval_ms),
                       [this] { return stopping_; });
    if (stopping_) return;
    lock.unlock();
    const std::shared_ptr<EpochState> ep = snapshot();
    for (const auto& info : ep->map->shards()) {
      // Dead shards re-probe behind their per-shard jittered backoff; a
      // mass outage must not hammer every corpse on the fixed period.
      if (!ep->health->probe_due(info.id, now_seconds())) continue;
      ShardState& st = state(*ep, info.id);
      try {
        fault::Injector::instance().check(kHealthSite);
        auto lease = st.pool->acquire();
        try {
          lease->ping();
        } catch (...) {
          lease.discard();
          throw;
        }
        ep->health->record_probe_success(info.id);
      } catch (const IoError&) {
        ep->health->record_probe_failure(info.id, now_seconds());
      }
    }
    lock.lock();
  }
}

std::shared_ptr<Router::EpochState> Router::snapshot() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

std::shared_ptr<const ShardMap> Router::map() const {
  return snapshot()->map;
}

const HealthTracker& Router::health() const { return *snapshot()->health; }

// ---- scatter -------------------------------------------------------------

std::vector<std::string> Router::candidates(const EpochState& ep,
                                            const std::string& act_as) const {
  std::vector<std::string> out{act_as};
  if (!config_.failover) return out;
  // Ring-derived replica order: deterministic per shard, so every router
  // instance retries a dead owner toward the same replicas.
  for (const auto& id : ep.ring.chain("failover/" + act_as, ep.map->size())) {
    if (id != act_as) out.push_back(id);
  }
  return out;
}

Router::ShardState& Router::state(EpochState& ep, const std::string& id) {
  auto it = ep.shards.find(id);
  GS_ASSERT(it != ep.shards.end(), "unknown shard id");
  return *it->second;
}

svc::Response Router::subcall(ShardState& st, const svc::Request& sub) {
  fault::RetryPolicy policy;
  policy.attempts = config_.attempts;
  policy.backoff_seconds = config_.backoff_ms / 1000.0;
  svc::Response out;
  fault::with_retries(policy, "shard.route:" + st.info.id, [&] {
    fault::Injector::instance().check(kRouteSite);
    auto lease = st.pool->acquire();
    try {
      const auto t0 = std::chrono::steady_clock::now();
      out = lease->call(sub);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::lock_guard<std::mutex> lock(st.mu);
      ++st.calls;
      st.latencies.add(seconds);
    } catch (...) {
      lease.discard();
      std::lock_guard<std::mutex> lock(st.mu);
      ++st.calls;
      ++st.errors;
      throw;
    }
  });
  return out;
}

svc::Request Router::sub_request(const EpochState& ep,
                                 const svc::Request& base,
                                 const svc::QueryBody& body,
                                 const std::string& act_as) {
  svc::Request sub;
  sub.body = body;
  sub.timeout_seconds = base.timeout_seconds;
  sub.shard =
      svc::ShardSelector{ep.map->epoch(), ep.map->ring_crc(), act_as};
  return sub;
}

Router::SubResult Router::scatter_one(EpochState& ep,
                                      const svc::Request& base,
                                      const svc::QueryBody& body,
                                      const std::string& act_as) {
  SubResult result;
  result.act_as = act_as;

  const svc::Request sub = sub_request(ep, base, body, act_as);

  // Dead-marked daemons are skipped on the first pass (no point eating
  // their connect timeouts); if health left us nothing, try everyone —
  // health may be stale and a refused dial is cheap.
  const std::vector<std::string> cands = candidates(ep, act_as);
  std::vector<std::string> order;
  for (const auto& id : cands) {
    if (ep.health->alive(id)) order.push_back(id);
  }
  if (order.empty()) order = cands;

  for (const auto& id : order) {
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.subqueries;
    }
    svc::Response sub_response;
    try {
      sub_response = subcall(state(ep, id), sub);
    } catch (const IoError&) {
      ep.health->record_failure(id);
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.subquery_errors;
      continue;
    }
    ep.health->record_success(id);
    if (!sub_response.status.ok() &&
        sub_response.status.code != svc::StatusCode::bad_request) {
      // Capacity/deadline/stale-epoch refusal from this daemon: a
      // replica (possibly still inside its reload grace window) may
      // answer. BadRequest is semantic and final — every daemon would
      // refuse the same way.
      continue;
    }
    if (id != act_as) {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.failovers;
    }
    result.response = std::move(sub_response);
    return result;
  }
  return result;  // missing: nobody answered for act_as
}

std::vector<Router::SubResult> Router::scatter(EpochState& ep,
                                               const svc::Request& base,
                                               const svc::QueryBody& body) {
  // One attempt per live shard, pipelined on this thread: every
  // sub-query goes out on a leased connection before the first reply is
  // awaited, so the shards compute concurrently without a thread each.
  // Whatever that attempt cannot settle goes through scatter_one.
  struct InFlight {
    ShardState* st = nullptr;
    std::optional<rpc::ClientPool::Lease> lease;  ///< set while awaited
    std::uint64_t id = 0;
    std::chrono::steady_clock::time_point t0;
    /// Drops the connection (if one was leased) as a failed call.
    void fail() {
      if (!lease.has_value()) return;
      lease->discard();
      lease.reset();
      std::lock_guard<std::mutex> lock(st->mu);
      ++st->calls;
      ++st->errors;
    }
    // Unwinding with a reply still unread: the connection must not go
    // back to the pool.
    ~InFlight() {
      if (lease.has_value()) lease->discard();
    }
  };
  const auto& shards = ep.map->shards();
  std::vector<SubResult> results(shards.size());
  std::vector<InFlight> sent(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const std::string& id = shards[i].id;
    results[i].act_as = id;
    if (!ep.health->alive(id)) continue;  // scatter_one picks a replica
    InFlight& f = sent[i];
    f.st = &state(ep, id);
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.subqueries;
    }
    try {
      fault::Injector::instance().check(kRouteSite);
      f.lease.emplace(f.st->pool->acquire());
      f.t0 = std::chrono::steady_clock::now();
      f.id = (*f.lease)->send(sub_request(ep, base, body, id));
    } catch (const IoError&) {
      f.fail();
    }
  }
  for (std::size_t i = 0; i < shards.size(); ++i) {
    InFlight& f = sent[i];
    if (f.lease.has_value()) {
      try {
        svc::Response response = (*f.lease)->receive(f.id);
        f.lease.reset();  // answered: the connection goes back to the pool
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - f.t0)
                                   .count();
        {
          std::lock_guard<std::mutex> lock(f.st->mu);
          ++f.st->calls;
          f.st->latencies.add(seconds);
        }
        ep.health->record_success(results[i].act_as);
        if (response.status.ok() ||
            response.status.code == svc::StatusCode::bad_request) {
          results[i].response = std::move(response);
          continue;
        }
      } catch (const IoError&) {
        f.fail();
      }
    }
    results[i] = scatter_one(ep, base, body, results[i].act_as);
  }
  return results;
}

// ---- merge ---------------------------------------------------------------

std::vector<const svc::Response*> Router::check_partials(
    const EpochState& ep, const std::vector<SubResult>& results,
    svc::Response& response) {
  std::vector<const svc::Response*> parts;
  std::vector<std::string> missing;
  for (const auto& r : results) {
    if (!r.response.has_value()) {
      missing.push_back(r.act_as);
      continue;
    }
    if (!r.response->status.ok()) {
      // Semantic refusal (BadRequest): propagate the first one verbatim,
      // naming the shard. Every daemon refuses identically.
      response.status = r.response->status;
      response.status.message =
          "shard " + r.act_as + ": " + response.status.message;
      return {};
    }
    parts.push_back(&*r.response);
  }
  if (parts.empty()) {
    response.status =
        svc::Status{svc::StatusCode::internal_error,
                    "no shard reachable: missing shard(s) " +
                        join_ids(missing)};
    return {};
  }

  std::uint64_t total = 0;
  std::uint64_t covered = 0;
  bool have_total = false;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const svc::Response& part = *parts[i];
    GS_REQUIRE(part.partial.has_value(),
               "shard sub-response carries no partial metadata");
    const svc::PartialMeta& meta = *part.partial;
    GS_REQUIRE(meta.epoch == ep.map->epoch(),
               "shard answered for epoch " << meta.epoch
                                           << ", this query pinned "
                                           << ep.map->epoch());
    if (meta.total_blocks == 0) continue;  // list_variables-style partial
    if (!have_total) {
      total = meta.total_blocks;
      have_total = true;
    }
    GS_REQUIRE(meta.total_blocks == total,
               "shards disagree on the block count: " << meta.total_blocks
                                                      << " vs " << total);
    covered += meta.covered_blocks;
    if (part.degraded) response.degraded = true;
  }
  GS_REQUIRE(covered <= total, "shards claim overlapping block coverage ("
                                   << covered << " of " << total << ")");

  if (covered < total) {
    response.degraded = true;
    response.bad_blocks = static_cast<std::size_t>(total - covered);
    if (!missing.empty()) {
      response.status.message =
          "degraded: missing shard(s) " + join_ids(missing);
    }
  }
  // covered == total with shards down means replicas picked up every
  // block: the answer is exact, nothing to flag.
  return parts;
}

svc::Response Router::merge_list_variables(EpochState& ep,
                                           const svc::Request& request) {
  svc::Response response;
  response.id = request.id;
  response.verb = svc::Verb::list_variables;

  const auto results = scatter(ep, request, request.body);
  std::vector<svc::ListVariablesR> listings;
  std::vector<std::string> missing;
  for (const auto& r : results) {
    if (!r.response.has_value()) {
      missing.push_back(r.act_as);
      continue;
    }
    if (!r.response->status.ok()) {
      response.status = r.response->status;
      response.status.message =
          "shard " + r.act_as + ": " + response.status.message;
      return response;
    }
    listings.push_back(std::get<svc::ListVariablesR>(r.response->body));
  }
  if (listings.empty()) {
    response.status =
        svc::Status{svc::StatusCode::internal_error,
                    "no shard reachable: missing shard(s) " +
                        join_ids(missing)};
    return response;
  }
  // Any one listing is already exact (every daemon opens the whole
  // dataset); gathering from all reachable shards verifies agreement.
  response.body = svc::merge::merge_list_variables(listings);
  return response;
}

svc::Response Router::merge_scattered(EpochState& ep,
                                      const svc::Request& request) {
  svc::Response response;
  response.id = request.id;
  response.verb = svc::verb_of(request.body);

  // The two-phase histogram agrees on the global range first: exact
  // min/max from a stats scatter, then every shard bins its partial
  // counts against the identical [lo, hi).
  svc::QueryBody body = request.body;
  std::vector<std::string> phase1_missing;
  if (const auto* q = std::get_if<svc::HistogramQ>(&request.body);
      q != nullptr && !q->has_range) {
    svc::Response stats_probe;
    stats_probe.verb = svc::Verb::field_stats;
    const auto stats_results = scatter(
        ep, request, svc::QueryBody{svc::FieldStatsQ{q->variable, q->step}});
    const auto stats_parts = check_partials(ep, stats_results, stats_probe);
    if (!stats_probe.status.ok()) {
      response.status = stats_probe.status;
      return response;
    }
    ExactStats acc;
    for (const svc::Response* part : stats_parts) {
      GS_REQUIRE(part->partial->stats.has_value(),
                 "field-stats partial carries no exact accumulator");
      acc.merge(*part->partial->stats);
    }
    const auto [lo, hi] = analysis::histogram_range(acc.min(), acc.max());
    svc::HistogramQ ranged = *q;
    ranged.has_range = true;
    ranged.lo = lo;
    ranged.hi = hi;
    body = ranged;
    // A shard missing in the range phase makes the range itself suspect:
    // even if every block is binned in phase two, the answer must stay
    // flagged — never silently different from a single-daemon run.
    if (stats_probe.degraded) {
      for (const auto& r : stats_results) {
        if (!r.response.has_value()) phase1_missing.push_back(r.act_as);
      }
      response.degraded = true;
      response.bad_blocks = stats_probe.bad_blocks;
    }
  }

  const auto results = scatter(ep, request, body);
  const auto parts = check_partials(ep, results, response);
  if (!response.status.ok()) return response;

  switch (response.verb) {
    case svc::Verb::field_stats: {
      ExactStats acc;
      for (const svc::Response* part : parts) {
        GS_REQUIRE(part->partial->stats.has_value(),
                   "field-stats partial carries no exact accumulator");
        acc.merge(*part->partial->stats);
      }
      response.body =
          svc::FieldStatsR{analysis::stats_from_exact(acc)};
      break;
    }
    case svc::Verb::histogram: {
      svc::HistogramR merged = std::get<svc::HistogramR>(parts[0]->body);
      for (std::size_t i = 1; i < parts.size(); ++i) {
        const auto& p = std::get<svc::HistogramR>(parts[i]->body);
        GS_REQUIRE(p.lo == merged.lo && p.hi == merged.hi &&
                       p.counts.size() == merged.counts.size(),
                   "histogram partials disagree on the bin range");
        for (std::size_t b = 0; b < merged.counts.size(); ++b) {
          merged.counts[b] += p.counts[b];
        }
        merged.total += p.total;
      }
      response.body = std::move(merged);
      break;
    }
    case svc::Verb::slice2d: {
      const auto& q = std::get<svc::Slice2DQ>(request.body);
      const auto& first = std::get<svc::Slice2DR>(parts[0]->body);
      svc::Slice2DR out;
      out.slice.nx = first.slice.nx;
      out.slice.ny = first.slice.ny;
      out.slice.values.assign(
          static_cast<std::size_t>(out.slice.nx * out.slice.ny), 0.0);
      for (const svc::Response* part : parts) {
        svc::merge::overlay_slice2d(std::get<svc::Slice2DR>(part->body),
                                    part->partial->coverage, q.axis, out);
      }
      svc::merge::finalize_slice_minmax(out);
      response.body = std::move(out);
      break;
    }
    case svc::Verb::read_box: {
      const auto& first = std::get<svc::ReadBoxR>(parts[0]->body);
      svc::ReadBoxR out;
      out.box = first.box;
      out.values.assign(static_cast<std::size_t>(out.box.volume()), 0.0);
      for (const svc::Response* part : parts) {
        svc::merge::overlay_read_box(std::get<svc::ReadBoxR>(part->body),
                                     part->partial->coverage, out);
      }
      response.body = std::move(out);
      break;
    }
    default:
      GS_THROW(Error, "unmergeable verb " << svc::to_string(response.verb));
  }

  if (!phase1_missing.empty() && response.status.message.empty()) {
    response.status.message =
        "degraded: missing shard(s) " + join_ids(phase1_missing);
  }
  return response;
}

svc::Response Router::route(const svc::Request& request) {
  // Pin the epoch this query routes under: a concurrent reload_map swaps
  // the current pointer but this query keeps its map/ring/pools — and
  // the reload's drain waits for the pin to drop.
  const Pin pin(this, snapshot());
  try {
    if (std::holds_alternative<svc::ListVariablesQ>(request.body)) {
      return merge_list_variables(*pin.ep, request);
    }
    return merge_scattered(*pin.ep, request);
  } catch (const Error& e) {
    svc::Response response;
    response.id = request.id;
    response.verb = svc::verb_of(request.body);
    response.status =
        svc::Status{svc::StatusCode::internal_error, e.what()};
    return response;
  }
}

// ---- epoch handover ------------------------------------------------------

HandoverStats Router::reload_map(std::shared_ptr<const ShardMap> next) {
  GS_REQUIRE(next != nullptr, "reload_map needs a map");
  const std::lock_guard<std::mutex> rlock(reload_mu_);

  // VALIDATING (fault site shard.reload fires inside): a bad candidate
  // throws here and the serving epoch is untouched.
  const std::shared_ptr<EpochState> old = snapshot();
  validate_successor(*old->map, *next);
  const MapDiff diff = diff_maps(*old->map, *next);

  HandoverStats stats;
  stats.epoch_from = old->map->epoch();
  stats.epoch_to = next->epoch();
  stats.shards_added = diff.added.size();
  stats.shards_removed = diff.removed.size();
  stats.shards_moved = diff.moved.size();
  stats.shards_retained = diff.retained.size();

  // Publish: new queries pin the new epoch from this instant. Retained
  // shards share their ShardState (pool, latency history, health).
  auto fresh = std::make_shared<EpochState>(next, config_, old.get());
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch_ = fresh;
  }
  GS_INFO("router: epoch " << stats.epoch_from << " -> " << stats.epoch_to
                           << " published (+" << stats.shards_added << "/-"
                           << stats.shards_removed << "/~"
                           << stats.shards_moved << " shards), draining");

  // DRAINING (fault site shard.drain: a kill here models dying between
  // publish and drain — the committed map on disk stays authoritative).
  fault::Injector::instance().check(kDrainSite);
  const auto t0 = std::chrono::steady_clock::now();
  if (config_.drain_timeout_ms > 0) {
    std::unique_lock<std::mutex> lock(epoch_mu_);
    drain_cv_.wait_for(
        lock, std::chrono::milliseconds(config_.drain_timeout_ms),
        [&old] {
          return old->in_flight.load(std::memory_order_acquire) == 0;
        });
  }
  stats.inflight_abandoned = old->in_flight.load(std::memory_order_acquire);
  stats.drained = stats.inflight_abandoned == 0;
  stats.drain_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Retire the pools the new epoch did NOT carry over: their idle
  // connections close now, and any lease still held by an abandoned
  // old-epoch query is discarded on return — a retired-epoch connection
  // never serves the new ring.
  for (const auto& [id, st] : old->shards) {
    const auto it = fresh->shards.find(id);
    if (it == fresh->shards.end() || it->second.get() != st.get()) {
      st->pool->retire();
    }
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    handover_ = stats;
  }
  GS_INFO("router: epoch " << stats.epoch_to << " committed ("
                           << (stats.drained ? "drained" : "drain timeout")
                           << " in " << stats.drain_seconds << "s, "
                           << stats.inflight_abandoned
                           << " old-epoch queries still running)");
  return stats;
}

HandoverStats Router::handover_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return handover_;
}

// ---- observability -------------------------------------------------------

RouterStats Router::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::size_t Router::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return queue_.size();
}

json::Value Router::stats_json() const {
  json::Object obj;
  const std::shared_ptr<EpochState> ep = snapshot();

  // The Handler contract: report the dataset behind this endpoint. The
  // router itself never opens it, so ask a shard (once, lazily).
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    if (dataset_.empty()) {
      for (const auto& [id, st] : ep->shards) {
        if (!ep->health->alive(id)) continue;
        try {
          auto lease = st->pool->acquire();
          try {
            json::Value v = lease->server_stats();
            dataset_ = v.at("dataset").as_string();
            break;
          } catch (...) {
            lease.discard();
            throw;
          }
        } catch (const IoError&) {
          continue;
        }
      }
    }
    obj["dataset"] = json::Value(dataset_);
  }

  json::Object router;
  router["epoch"] = json::Value(static_cast<std::int64_t>(ep->map->epoch()));
  router["ring_crc"] =
      json::Value(static_cast<std::int64_t>(ep->map->ring_crc()));
  router["handover"] = handover_stats().to_json();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    router["queries"] = json::Value(static_cast<std::int64_t>(stats_.queries));
    router["completed_ok"] =
        json::Value(static_cast<std::int64_t>(stats_.completed_ok));
    router["rejected_busy"] =
        json::Value(static_cast<std::int64_t>(stats_.rejected_busy));
    router["rejected_shutdown"] =
        json::Value(static_cast<std::int64_t>(stats_.rejected_shutdown));
    router["failed"] = json::Value(static_cast<std::int64_t>(stats_.failed));
    router["degraded_answers"] =
        json::Value(static_cast<std::int64_t>(stats_.degraded_answers));
    router["subqueries"] =
        json::Value(static_cast<std::int64_t>(stats_.subqueries));
    router["subquery_errors"] =
        json::Value(static_cast<std::int64_t>(stats_.subquery_errors));
    router["failovers"] =
        json::Value(static_cast<std::int64_t>(stats_.failovers));
  }

  json::Array shard_arr;
  const auto snapshots = ep->health->snapshot();
  for (const auto& [id, st] : ep->shards) {
    json::Object s;
    s["id"] = json::Value(st->info.id);
    s["endpoint"] = json::Value(st->info.endpoint);
    for (const auto& h : snapshots) {
      if (h.id != id) continue;
      s["state"] = json::Value(std::string(to_string(h.state)));
      s["successes"] = json::Value(static_cast<std::int64_t>(h.successes));
      s["failures"] = json::Value(static_cast<std::int64_t>(h.failures));
      s["went_dead"] = json::Value(static_cast<std::int64_t>(h.went_dead));
      s["went_live"] = json::Value(static_cast<std::int64_t>(h.went_live));
      break;
    }
    {
      std::lock_guard<std::mutex> lock(st->mu);
      s["calls"] = json::Value(static_cast<std::int64_t>(st->calls));
      s["errors"] = json::Value(static_cast<std::int64_t>(st->errors));
      s["latency_count"] =
          json::Value(static_cast<std::int64_t>(st->latencies.count()));
      s["latency_p50"] = json::Value(st->latencies.percentile(50.0));
      s["latency_p95"] = json::Value(st->latencies.percentile(95.0));
      s["latency_p99"] = json::Value(st->latencies.percentile(99.0));
    }
    const auto pool_stats = st->pool->stats();
    json::Object pool;
    pool["created"] =
        json::Value(static_cast<std::int64_t>(pool_stats.created));
    pool["reused"] = json::Value(static_cast<std::int64_t>(pool_stats.reused));
    pool["discarded"] =
        json::Value(static_cast<std::int64_t>(pool_stats.discarded));
    pool["idle"] = json::Value(static_cast<std::int64_t>(pool_stats.idle));
    s["pool"] = json::Value(std::move(pool));
    shard_arr.emplace_back(std::move(s));
  }
  router["shards"] = json::Value(std::move(shard_arr));

  obj["router"] = json::Value(std::move(router));
  return json::Value(std::move(obj));
}

}  // namespace gs::shard
