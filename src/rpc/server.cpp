#include "rpc/server.h"

#include <future>
#include <sstream>
#include <utility>

#include "common/log.h"
#include "fault/fault.h"

namespace gs::rpc {

namespace {
using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

ServerConfig config_from_settings(const Settings& settings) {
  ServerConfig config;
  config.listen = "127.0.0.1:" + std::to_string(settings.rpc_port);
  config.backlog = settings.rpc_backlog;
  config.max_connections = settings.rpc_max_connections;
  config.io_timeout_ms = settings.rpc_io_timeout_ms;
  return config;
}

// ------------------------------------------------------------- ServerStats

json::Value ServerStats::to_json() const {
  json::Object obj;
  obj["accepted"] = json::Value(static_cast<std::int64_t>(accepted));
  obj["rejected_capacity"] =
      json::Value(static_cast<std::int64_t>(rejected_capacity));
  obj["active"] = json::Value(static_cast<std::int64_t>(active));
  obj["frames_in"] = json::Value(static_cast<std::int64_t>(frames_in));
  obj["frames_out"] = json::Value(static_cast<std::int64_t>(frames_out));
  obj["bytes_in"] = json::Value(static_cast<std::int64_t>(bytes_in));
  obj["bytes_out"] = json::Value(static_cast<std::int64_t>(bytes_out));
  obj["requests"] = json::Value(static_cast<std::int64_t>(requests));
  obj["responses"] = json::Value(static_cast<std::int64_t>(responses));
  obj["bad_frames"] = json::Value(static_cast<std::int64_t>(bad_frames));
  obj["crc_errors"] = json::Value(static_cast<std::int64_t>(crc_errors));
  obj["io_errors"] = json::Value(static_cast<std::int64_t>(io_errors));
  obj["killed_connections"] =
      json::Value(static_cast<std::int64_t>(killed_connections));
  obj["subscribers"] = json::Value(static_cast<std::int64_t>(subscribers));
  obj["steps_streamed"] =
      json::Value(static_cast<std::int64_t>(steps_streamed));
  obj["steps_dropped"] =
      json::Value(static_cast<std::int64_t>(steps_dropped));
  obj["reloads"] = json::Value(static_cast<std::int64_t>(reloads));
  obj["reloads_refused"] =
      json::Value(static_cast<std::int64_t>(reloads_refused));
  obj["queue_depth"] = json::Value(static_cast<std::int64_t>(queue_depth));
  obj["inflight"] = json::Value(static_cast<std::int64_t>(inflight));
  obj["rate_rps"] = json::Value(rate_rps);
  obj["latency_count"] =
      json::Value(static_cast<std::int64_t>(latency_count));
  obj["latency_p50"] = json::Value(latency_p50);
  obj["latency_p95"] = json::Value(latency_p95);
  obj["latency_p99"] = json::Value(latency_p99);
  return json::Value(std::move(obj));
}

std::string ServerStats::report() const {
  std::ostringstream os;
  os << "rpc server: " << accepted << " accepted, " << active << " active, "
     << rejected_capacity << " rejected at capacity\n"
     << "  frames: " << frames_in << " in / " << frames_out << " out ("
     << bytes_in << " / " << bytes_out << " bytes)\n"
     << "  requests: " << requests << " in, " << responses
     << " answered; p50/p95/p99 = " << latency_p50 << " / " << latency_p95
     << " / " << latency_p99 << " s over " << latency_count << "\n"
     << "  load: " << queue_depth << " queued, " << inflight
     << " in flight, " << rate_rps << " req/s (decayed)\n"
     << "  faults: " << bad_frames << " bad frames, " << crc_errors
     << " crc errors, " << io_errors << " io errors, "
     << killed_connections << " killed\n"
     << "  stream: " << subscribers << " subscriptions, " << steps_streamed
     << " steps delivered, " << steps_dropped << " dropped\n"
     << "  reloads: " << reloads << " applied, " << reloads_refused
     << " refused\n";
  return os.str();
}

// ------------------------------------------------------------------ Server

struct Server::Pending {
  std::uint64_t id = 0;
  svc::Verb verb = svc::Verb::list_variables;
  std::future<svc::Response> future;
  SteadyClock::time_point t0;
  bool settled = false;  ///< inflight_ already decremented for this entry
};

json::Value ServiceHandler::stats_json() const {
  json::Object obj;
  obj["dataset"] = json::Value(service_->path());
  obj["service"] = service_->metrics().to_json();
  obj["reshard"] = service_->reshard_stats().to_json();
  // The serving shard-map epoch, top-level so the gs::ctrl actuator can
  // confirm convergence with one stats round-trip (0 = unsharded).
  obj["epoch"] =
      json::Value(static_cast<std::int64_t>(service_->shard_epoch()));
  return json::Value(std::move(obj));
}

std::size_t ServiceHandler::queue_depth() const {
  return service_->metrics().queue_depth;
}

Server::Server(svc::Service& service, ServerConfig config,
               bp::Stream* live_stream)
    : owned_handler_(std::make_unique<ServiceHandler>(service)),
      handler_(owned_handler_.get()),
      config_(std::move(config)),
      live_stream_(live_stream),
      epoch_(SteadyClock::now()) {
  start();
}

Server::Server(Handler& handler, ServerConfig config, bp::Stream* live_stream)
    : handler_(&handler),
      config_(std::move(config)),
      live_stream_(live_stream),
      epoch_(SteadyClock::now()) {
  start();
}

void Server::start() {
  GS_REQUIRE(config_.max_connections >= 1,
             "max_connections must be at least 1");
  GS_REQUIRE(config_.io_timeout_ms >= 1, "io_timeout_ms must be positive");
  listener_ = Listener::bind_listen(Endpoint::parse(config_.listen),
                                    static_cast<int>(config_.backlog));
  endpoint_ = listener_.endpoint();
  acceptor_ = std::thread([this] { acceptor_main(); });
  if (live_stream_ != nullptr) {
    bridge_ = std::thread([this] { bridge_main(); });
  }
}

Server::~Server() { shutdown(); }

std::uint64_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::uint64_t n = 0;
  for (const auto& conn : conns_) {
    if (!conn->done.load()) ++n;
  }
  return n;
}

void Server::acceptor_main() {
  while (!stopping_.load()) {
    std::optional<Socket> sock;
    try {
      sock = listener_.accept(/*timeout_ms=*/100);
    } catch (const IoError& e) {
      if (stopping_.load()) break;
      GS_WARN("rpc acceptor error: " << e.what());
      continue;
    }

    // Reap finished connection workers.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load()) {
          if ((*it)->thread.joinable()) (*it)->thread.join();
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!sock) continue;

    // Fault site: the link dying between connect and service.
    try {
      fault::Injector::instance().check("rpc.accept");
    } catch (const IoError&) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.io_errors;
      continue;  // Socket dtor closes the connection
    } catch (const fault::Kill&) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.killed_connections;
      continue;
    }

    if (active_connections() >=
        static_cast<std::uint64_t>(config_.max_connections)) {
      // Connection-level backpressure: refuse loudly, never hang.
      Frame busy;
      busy.type = FrameType::error_reply;
      busy.payload = encode_text("server busy: connection limit " +
                                 std::to_string(config_.max_connections) +
                                 " reached");
      try {
        send_frame(*sock, busy, config_.io_timeout_ms);
      } catch (const IoError&) {
        // best effort; the refusal is also visible as the close
      } catch (const fault::Kill&) {
      }
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.rejected_capacity;
      continue;
    }

    auto conn = std::make_shared<Conn>(std::move(*sock));
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.accepted;
    }
    conn->thread = std::thread([this, conn] { conn_main(*conn); });
  }
}

void Server::send_locked(Conn& conn, const Frame& frame) {
  std::size_t bytes = 0;
  {
    std::lock_guard<std::mutex> lock(conn.write_mu);
    bytes = send_frame(conn.sock, frame, config_.io_timeout_ms);
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++counters_.frames_out;
  counters_.bytes_out += bytes;
}

void Server::handle_frame(Conn& conn, const Frame& frame,
                          std::deque<Pending>& pending) {
  switch (frame.type) {
    case FrameType::request: {
      svc::Request request;
      try {
        request = decode_request(frame.payload);
      } catch (const ParseError& e) {
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++counters_.bad_frames;
        }
        Frame reply;
        reply.type = FrameType::error_reply;
        reply.id = frame.id;
        reply.payload = encode_text(e.what());
        send_locked(conn, reply);
        return;
      }
      Pending entry;
      entry.id = frame.id;
      entry.verb = svc::verb_of(request.body);
      entry.t0 = SteadyClock::now();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.requests;
        rate_.add(seconds_between(epoch_, entry.t0));
      }
      inflight_.fetch_add(1);
      entry.future = handler_->submit(std::move(request));
      pending.push_back(std::move(entry));
      return;
    }
    case FrameType::stats: {
      Frame reply;
      reply.type = FrameType::stats_reply;
      reply.id = frame.id;
      reply.payload = encode_text(stats_json().dump(2));
      send_locked(conn, reply);
      return;
    }
    case FrameType::ping: {
      Frame reply;
      reply.type = FrameType::pong;
      reply.id = frame.id;
      send_locked(conn, reply);
      return;
    }
    case FrameType::subscribe: {
      if (live_stream_ == nullptr) {
        Frame reply;
        reply.type = FrameType::error_reply;
        reply.id = frame.id;
        reply.payload =
            encode_text("no live stream attached to this server");
        send_locked(conn, reply);
        return;
      }
      conn.credits.store(
          static_cast<std::int64_t>(decode_u64(frame.payload)));
      conn.subscribed.store(true);
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.subscribers;
      }
      Frame reply;
      reply.type = FrameType::sub_ok;
      reply.id = frame.id;
      send_locked(conn, reply);
      return;
    }
    case FrameType::credit: {
      conn.credits.fetch_add(
          static_cast<std::int64_t>(decode_u64(frame.payload)));
      return;
    }
    case FrameType::reload_map: {
      // Authenticated admin verb: bump the shard-map epoch NOW instead of
      // waiting for the mtime poll. An empty configured token disables
      // the verb; the token comparison gates before the hook runs.
      Frame reply;
      reply.id = frame.id;
      std::string token;
      try {
        token = decode_text(frame.payload);
      } catch (const ParseError&) {
        token.clear();
      }
      if (config_.admin_token.empty() || config_.reload_hook == nullptr) {
        reply.type = FrameType::error_reply;
        reply.payload = encode_text("reload_map is not enabled here");
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.reloads_refused;
      } else if (token != config_.admin_token) {
        reply.type = FrameType::error_reply;
        reply.payload = encode_text("reload_map: bad admin token");
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.reloads_refused;
      } else {
        try {
          reply.type = FrameType::reload_reply;
          reply.payload = encode_text(config_.reload_hook().dump(2));
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++counters_.reloads;
        } catch (const fault::Kill&) {
          throw;  // a kill is a crash, not a refusal
        } catch (const std::exception& e) {
          reply.type = FrameType::error_reply;
          reply.payload =
              encode_text(std::string("reload failed: ") + e.what());
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++counters_.reloads_refused;
        }
      }
      send_locked(conn, reply);
      return;
    }
    default: {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++counters_.bad_frames;
      Frame reply;
      reply.type = FrameType::error_reply;
      reply.id = frame.id;
      reply.payload = encode_text(std::string("unexpected frame type ") +
                                  to_string(frame.type));
      send_locked(conn, reply);
      return;
    }
  }
}

void Server::conn_main(Conn& conn) {
  std::deque<Pending> pending;

  const auto deliver = [&](Pending& entry) {
    // Settle the in-flight count up front: if the send below throws, the
    // abandoned-entry sweep at exit must not decrement this entry again.
    entry.settled = true;
    inflight_.fetch_sub(1);
    svc::Response response = entry.future.get();
    Frame reply;
    reply.type = FrameType::response;
    reply.id = entry.id;
    reply.payload = encode_response(response);
    send_locked(conn, reply);
    const auto t1 = SteadyClock::now();
    const double latency = seconds_between(entry.t0, t1);
    if (config_.profiler != nullptr) {
      prof::Span span;
      span.name = std::string("rpc.") + svc::to_string(entry.verb);
      span.kind = prof::SpanKind::other;
      span.t0 = seconds_between(epoch_, entry.t0);
      span.t1 = seconds_between(epoch_, t1);
      config_.profiler->record(std::move(span));
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.responses;
    latencies_.add(latency);
  };

  const auto flush_ready = [&] {
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        deliver(*it);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  };

  try {
    for (;;) {
      flush_ready();
      if (stopping_.load()) {
        // Graceful drain: every admitted request still gets its answer
        // (the service completes queued work on shutdown).
        for (auto& entry : pending) deliver(entry);
        pending.clear();
        break;
      }
      if (pending.empty()) {
        if (!conn.sock.wait_readable(50)) continue;
      } else {
        // Block on the oldest answer, not on the socket: its completion
        // wakes this thread at once and goes out on the next flush. A
        // frame that arrived meanwhile is read with a zero-wait poll.
        pending.front().future.wait_for(std::chrono::milliseconds(1));
        flush_ready();
        if (!conn.sock.wait_readable(0)) continue;
      }
      const auto frame = recv_frame(conn.sock, config_.io_timeout_ms);
      if (!frame) break;  // peer closed cleanly
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++counters_.frames_in;
        counters_.bytes_in += kHeaderBytes + frame->payload.size();
      }
      handle_frame(conn, *frame, pending);
    }
  } catch (const fault::Kill& e) {
    // Models the connection's process/link dying mid-exchange: abrupt
    // close, no drain — the client sees EOF / a torn frame.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.killed_connections;
  } catch (const CrcError& e) {
    GS_WARN("rpc connection dropped: " << e.what());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.crc_errors;
  } catch (const IoError& e) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.io_errors;
  } catch (const std::exception& e) {
    GS_WARN("rpc connection worker failed: " << e.what());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counters_.io_errors;
  }
  // Requests abandoned by a dying connection (kill/io error with futures
  // still pending) are no longer in flight from the load signal's view.
  for (const Pending& entry : pending) {
    if (!entry.settled) inflight_.fetch_sub(1);
  }
  {
    // Close under write_mu: a concurrent bridge send either completes
    // on the still-open fd first or finds the socket closed and throws
    // IoError — it can never write into a kernel-reused fd.
    std::lock_guard<std::mutex> lock(conn.write_mu);
    conn.subscribed.store(false);
    conn.sock.close();
  }
  conn.done.store(true);
}

std::vector<std::shared_ptr<Server::Conn>> Server::subscriber_snapshot()
    const {
  std::vector<std::shared_ptr<Conn>> out;
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const auto& conn : conns_) {
    if (!conn->done.load() && conn->subscribed.load()) out.push_back(conn);
  }
  return out;
}

void Server::bridge_main() try {
  bp::StreamReader reader(*live_stream_);
  while (auto step = reader.next_step()) {
    Frame frame;
    frame.type = FrameType::stream_step;
    frame.payload = encode_stream_step(*step);

    // Fan out from a snapshot, conns_mu_ released: one stalled
    // subscriber blocking in send for up to io_timeout_ms must not
    // freeze admission (acceptor reap, capacity check, stats).
    for (const auto& conn : subscriber_snapshot()) {
      if (conn->credits.load() <= 0) {
        // Slow-consumer policy: drop, never stall the simulation. The
        // client sees the gap in sequence numbers and the final count.
        conn->dropped_steps.fetch_add(1);
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++counters_.steps_dropped;
        continue;
      }
      conn->credits.fetch_sub(1);
      try {
        send_locked(*conn, frame);
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++counters_.steps_streamed;
      } catch (const fault::Kill&) {
        conn->subscribed.store(false);
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++counters_.killed_connections;
      } catch (const std::exception&) {
        // IoError (timeout, peer gone, worker closed the socket) or any
        // other failure: unsubscribe; the worker reaps the connection.
        conn->subscribed.store(false);
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++counters_.io_errors;
      }
    }
  }

  // End-of-stream (clean close or abandon): tell every subscriber what
  // it missed.
  StreamEnd end;
  end.reason =
      live_stream_->abandoned() ? "stream abandoned" : "end of stream";
  for (const auto& conn : subscriber_snapshot()) {
    end.dropped = conn->dropped_steps.load();
    Frame frame;
    frame.type = FrameType::stream_end;
    frame.payload = encode_stream_end(end);
    try {
      send_locked(*conn, frame);
    } catch (const fault::Kill&) {
    } catch (const std::exception&) {
    }
    conn->subscribed.store(false);
  }
} catch (const std::exception& e) {
  // Last line of defense: an escaped exception would std::terminate the
  // whole daemon from this thread. Queries keep being served; only the
  // live fan-out ends.
  GS_WARN("rpc stream bridge stopped: " << e.what());
}

void Server::shutdown() {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (shut_down_) return;
  shut_down_ = true;

  stopping_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();

  if (live_stream_ != nullptr) {
    // Unblocks the bridge (and any producer stuck on backpressure) when
    // the stream is still live; a no-op after a clean end-of-stream.
    live_stream_->consumer_detached();
  }
  if (bridge_.joinable()) bridge_.join();

  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto& conn : conns_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  conns_.clear();
}

ServerStats Server::stats() const {
  const std::uint64_t active = active_connections();
  const std::size_t queued = handler_->queue_depth();
  const double now = seconds_between(epoch_, SteadyClock::now());
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats out = counters_;
  out.active = active;
  out.queue_depth = queued;
  out.inflight = inflight_.load();
  out.rate_rps = rate_.rate(now);
  out.latency_count = latencies_.count();
  out.latency_p50 = latencies_.percentile(50.0);
  out.latency_p95 = latencies_.percentile(95.0);
  out.latency_p99 = latencies_.percentile(99.0);
  return out;
}

json::Value Server::stats_json() const {
  json::Value v = handler_->stats_json();
  json::Object& obj = v.as_object();
  obj["endpoint"] = json::Value(endpoint_.str());
  obj["rpc"] = stats().to_json();
  return v;
}

}  // namespace gs::rpc
