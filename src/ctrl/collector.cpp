#include "ctrl/collector.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace gs::ctrl {

namespace {

/// The per-shard poll schedule: base gap = poll_seconds, decorrelated
/// jitter capped at poll_jitter_cap periods (see fault::Backoff). The
/// site name embeds the shard id so every shard draws an independent,
/// replayable stream.
fault::Backoff make_poll_backoff(const CollectorConfig& config,
                                 const std::string& id) {
  fault::RetryPolicy policy;
  policy.backoff_seconds = config.poll_seconds;
  policy.multiplier = 1.0;
  policy.max_backoff_seconds =
      config.poll_seconds * std::max(1.0, config.poll_jitter_cap);
  policy.jitter = true;
  policy.jitter_seed = config.seed;
  return fault::Backoff(
      policy, fault::detail::backoff_seed("ctrl.poll/" + id, config.seed));
}

}  // namespace

StatsSample parse_stats(const json::Value& doc) {
  StatsSample s;
  if (!doc.is_object()) return s;
  s.reachable = true;
  // Epoch: a daemon doc reports it top-level ("epoch"); a router doc
  // under "router". Either absent -> 0 (unsharded endpoint).
  s.epoch = static_cast<std::uint64_t>(
      doc.get_or("epoch", static_cast<std::int64_t>(0)));
  if (s.epoch == 0 && doc.contains("router") &&
      doc.at("router").is_object()) {
    s.epoch = static_cast<std::uint64_t>(
        doc.at("router").get_or("epoch", static_cast<std::int64_t>(0)));
  }
  if (doc.contains("rpc") && doc.at("rpc").is_object()) {
    const json::Value& rpc = doc.at("rpc");
    s.queue_depth =
        static_cast<double>(rpc.get_or("queue_depth", std::int64_t{0}));
    s.inflight =
        static_cast<double>(rpc.get_or("inflight", std::int64_t{0}));
    s.rate_rps = rpc.get_or("rate_rps", 0.0);
    s.p99 = rpc.get_or("latency_p99", 0.0);
    s.requests =
        static_cast<std::uint64_t>(rpc.get_or("requests", std::int64_t{0}));
    s.errors = static_cast<std::uint64_t>(
        rpc.get_or("bad_frames", std::int64_t{0}) +
        rpc.get_or("crc_errors", std::int64_t{0}) +
        rpc.get_or("io_errors", std::int64_t{0}));
  }
  if (doc.contains("reshard") && doc.at("reshard").is_object()) {
    const json::Value& r = doc.at("reshard");
    s.warm_epoch_to =
        static_cast<std::uint64_t>(r.get_or("epoch_to", std::int64_t{0}));
    s.warm_blocks = static_cast<std::uint64_t>(
        r.get_or("blocks_moved", std::int64_t{0}));
    s.warm_seconds = r.get_or("seconds", 0.0);
  }
  return s;
}

Fetcher rpc_fetcher(rpc::ClientConfig config) {
  return [config](const shard::ShardInfo& info) -> StatsSample {
    try {
      rpc::Client client(rpc::Endpoint::parse(info.endpoint), config);
      return parse_stats(client.server_stats());
    } catch (const std::exception&) {
      return StatsSample{};  // reachable = false
    }
  };
}

json::Value ClusterView::to_json() const {
  json::Object obj;
  obj["reachable"] = json::Value(static_cast<std::int64_t>(reachable));
  obj["shards"] = json::Value(static_cast<std::int64_t>(shards.size()));
  obj["epoch"] = json::Value(static_cast<std::int64_t>(epoch));
  obj["mean_queue_depth"] = json::Value(mean_queue_depth);
  obj["mean_inflight"] = json::Value(mean_inflight);
  obj["mean_load"] = json::Value(mean_load());
  obj["total_rate_rps"] = json::Value(total_rate_rps);
  obj["max_p99"] = json::Value(max_p99);
  obj["mean_error_rate"] = json::Value(mean_error_rate);
  json::Array arr;
  for (const ShardEstimate& e : shards) {
    json::Object s;
    s["id"] = json::Value(e.id);
    s["endpoint"] = json::Value(e.endpoint);
    s["reachable"] = json::Value(e.reachable);
    s["unreachable_streak"] =
        json::Value(static_cast<std::int64_t>(e.unreachable_streak));
    s["recent_flaps"] = json::Value(e.recent_flaps);
    s["epoch"] = json::Value(static_cast<std::int64_t>(e.epoch));
    s["queue_depth"] = json::Value(e.queue_depth);
    s["inflight"] = json::Value(e.inflight);
    s["rate_rps"] = json::Value(e.rate_rps);
    s["p99"] = json::Value(e.p99);
    s["error_rate"] = json::Value(e.error_rate);
    arr.emplace_back(std::move(s));
  }
  obj["estimates"] = json::Value(std::move(arr));
  return json::Value(std::move(obj));
}

Collector::Collector(std::shared_ptr<const shard::ShardMap> map,
                     CollectorConfig config, Fetcher fetcher)
    : config_(config), fetcher_(std::move(fetcher)), map_(std::move(map)) {
  GS_REQUIRE(map_ != nullptr, "collector needs a shard map");
  GS_REQUIRE(fetcher_ != nullptr, "collector needs a fetcher");
  GS_REQUIRE(config_.poll_seconds > 0.0, "poll_seconds must be positive");
  GS_REQUIRE(config_.halflife_seconds > 0.0,
             "halflife_seconds must be positive");
  for (const shard::ShardInfo& info : map_->shards()) {
    entries_.push_back(make_entry(info));
  }
}

Collector::Entry Collector::make_entry(const shard::ShardInfo& info) const {
  Entry e{ShardEstimate{},
          make_poll_backoff(config_, info.id),
          /*next_poll_at=*/0.0,
          DecayedRate(config_.halflife_seconds),
          DecayedRate(config_.halflife_seconds),
          DecayedRate(config_.halflife_seconds),
          DecayedRate(config_.halflife_seconds),
          DecayedRate(config_.halflife_seconds),
          DecayedRate(config_.flap_halflife_seconds)};
  e.est.id = info.id;
  e.est.endpoint = info.endpoint;
  return e;
}

void Collector::ingest(Entry& entry, const StatsSample& sample, double now) {
  ShardEstimate& est = entry.est;
  ++est.polls;
  if (sample.reachable != est.reachable) {
    // A reachability transition in either direction counts toward the
    // flap signal: down-up-down-up is four transitions, two full flaps.
    entry.flaps.add(now);
  }
  if (!sample.reachable) {
    est.reachable = false;
    ++est.unreachable_streak;
    est.recent_flaps = entry.flaps.count(now);
    return;
  }
  est.reachable = true;
  est.unreachable_streak = 0;
  est.epoch = sample.epoch;
  est.last_seen = now;
  entry.queue.observe(now, sample.queue_depth);
  entry.inflight.observe(now, sample.inflight);
  entry.rate.observe(now, sample.rate_rps);
  entry.p99.observe(now, sample.p99);
  if (entry.have_baseline && sample.errors >= entry.last_errors) {
    entry.errors.add(now, static_cast<double>(sample.errors -
                                              entry.last_errors));
  }
  entry.last_errors = sample.errors;
  entry.have_baseline = true;
  est.queue_depth = entry.queue.level();
  est.inflight = entry.inflight.level();
  est.rate_rps = entry.rate.level();
  est.p99 = entry.p99.level();
  est.error_rate = entry.errors.rate(now);
  est.recent_flaps = entry.flaps.count(now);
  // The move-cost signal: a handover this daemon completed since the
  // last poll teaches the collector its real seconds-per-block.
  if (sample.warm_epoch_to != entry.last_warm_epoch &&
      sample.warm_blocks > 0 && sample.warm_seconds > 0.0) {
    const double per_block =
        sample.warm_seconds / static_cast<double>(sample.warm_blocks);
    warm_ewma_ = warm_observations_ == 0 ? per_block
                                         : 0.5 * (warm_ewma_ + per_block);
    ++warm_observations_;
  }
  entry.last_warm_epoch = sample.warm_epoch_to;
}

std::size_t Collector::poll_due(double now) {
  std::size_t polled = 0;
  for (Entry& entry : entries_) {
    if (now < entry.next_poll_at) continue;
    const shard::ShardInfo* info = map_->find(entry.est.id);
    GS_ASSERT(info != nullptr, "collector entry not in map");
    ingest(entry, fetcher_(*info), now);
    entry.next_poll_at = now + entry.backoff.next();
    ++polled;
  }
  return polled;
}

void Collector::poll_all(double now) {
  for (Entry& entry : entries_) {
    const shard::ShardInfo* info = map_->find(entry.est.id);
    GS_ASSERT(info != nullptr, "collector entry not in map");
    ingest(entry, fetcher_(*info), now);
    entry.backoff.reset();
    entry.next_poll_at = now + entry.backoff.next();
  }
}

ClusterView Collector::view(double now) const {
  ClusterView v;
  v.shards.reserve(entries_.size());
  bool epoch_agreed = true;
  for (const Entry& entry : entries_) {
    ShardEstimate est = entry.est;
    est.recent_flaps = entry.flaps.count(now);
    if (est.reachable) {
      ++v.reachable;
      v.mean_queue_depth += est.queue_depth;
      v.mean_inflight += est.inflight;
      v.total_rate_rps += est.rate_rps;
      v.max_p99 = std::max(v.max_p99, est.p99);
      v.mean_error_rate += est.error_rate;
      if (v.epoch == 0) {
        v.epoch = est.epoch;
      } else if (est.epoch != v.epoch) {
        epoch_agreed = false;
      }
    }
    v.shards.push_back(std::move(est));
  }
  if (v.reachable > 0) {
    const auto n = static_cast<double>(v.reachable);
    v.mean_queue_depth /= n;
    v.mean_inflight /= n;
    v.mean_error_rate /= n;
  }
  if (!epoch_agreed) v.epoch = 0;
  return v;
}

void Collector::set_map(std::shared_ptr<const shard::ShardMap> map) {
  GS_REQUIRE(map != nullptr, "collector needs a shard map");
  std::vector<Entry> next;
  next.reserve(map->size());
  for (const shard::ShardInfo& info : map->shards()) {
    auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const Entry& e) { return e.est.id == info.id; });
    if (it != entries_.end()) {
      it->est.endpoint = info.endpoint;
      next.push_back(std::move(*it));
      entries_.erase(it);
    } else {
      next.push_back(make_entry(info));
    }
  }
  entries_ = std::move(next);
  map_ = std::move(map);
}

double Collector::warm_seconds_per_block() const {
  return warm_observations_ > 0 ? warm_ewma_
                                : config_.default_warm_seconds_per_block;
}

}  // namespace gs::ctrl
