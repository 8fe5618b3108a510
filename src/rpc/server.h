// gs::rpc server — the transport in front of gs::svc: an acceptor thread
// plus one worker thread per connection, speaking the wire protocol of
// rpc/wire.h. Execution stays inside the svc admission queue (workers
// submit() and the service applies its own backpressure/deadlines); the
// rpc layer adds connection-level admission (max_connections), framed
// request-id multiplexing (a client may pipeline requests and responses
// return as they complete), an optional live bp::Stream subscription
// fan-out with a per-connection credit window, and graceful drain on
// shutdown (in-flight responses are delivered before sockets close).
//
// Slow-consumer policy (documented contract): a subscribed connection
// with zero credits DROPS steps rather than stalling the producer — the
// simulation never waits for a lagging dashboard. Dropped steps are
// counted per connection, visible as sequence-number gaps, and reported
// in the final stream_end frame.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bp/stream.h"
#include "common/stats.h"
#include "config/json.h"
#include "config/settings.h"
#include "prof/profiler.h"
#include "rpc/socket.h"
#include "rpc/wire.h"
#include "svc/service.h"

namespace gs::rpc {

struct ServerConfig {
  /// Address to bind: "host:port" (port 0 = ephemeral) or "unix:/path".
  std::string listen = "127.0.0.1:0";
  std::int64_t backlog = 64;
  /// Connections admitted concurrently; the acceptor answers further
  /// dials with an error_reply frame and closes (counted, never hung).
  std::int64_t max_connections = 64;
  /// Per-frame read/write deadline, ms (Settings::rpc_io_timeout_ms).
  std::int64_t io_timeout_ms = 5000;
  /// Shared trace sink; may be null (Profiler::record is thread-safe).
  prof::Profiler* profiler = nullptr;
  /// Shared secret for the reload_map admin RPC. Empty (the default)
  /// disables the verb entirely — remote epoch bumps are opt-in.
  std::string admin_token;
  /// Runs on a correctly-authenticated reload_map frame (on the
  /// connection's thread): re-reads the shard map and adopts it,
  /// returning the JSON reload report. A throw becomes an error_reply —
  /// the old epoch keeps serving. Typically MapWatcher::reload_now.
  std::function<json::Value()> reload_hook;
};

/// Lifts the rpc_* knobs (already env-overridden by Settings) into a
/// server config listening on 127.0.0.1:<rpc_port>.
ServerConfig config_from_settings(const Settings& settings);

/// Point-in-time transport counters (cumulative since start).
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_capacity = 0;  ///< dials refused at max_connections
  std::uint64_t active = 0;             ///< connections open right now
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t requests = 0;   ///< query frames decoded and submitted
  std::uint64_t responses = 0;  ///< response frames delivered
  std::uint64_t bad_frames = 0; ///< undecodable payloads (error_reply sent)
  std::uint64_t crc_errors = 0; ///< torn/corrupt frames detected
  std::uint64_t io_errors = 0;  ///< connections dropped on transport error
  std::uint64_t killed_connections = 0;  ///< fault::Kill at an rpc site
  std::uint64_t subscribers = 0;         ///< live-stream subscriptions made
  std::uint64_t steps_streamed = 0;      ///< step fan-out deliveries
  std::uint64_t steps_dropped = 0;       ///< slow-consumer drops
  std::uint64_t reloads = 0;             ///< reload_map RPCs that applied
  std::uint64_t reloads_refused = 0;     ///< bad token / disabled / rejected
  // Load signals (append-only: version-1 stats consumers that ignore
  // unknown members keep working). These are the gs::ctrl controller's
  // primary input — instantaneous pressure, not lifetime counters.
  std::uint64_t queue_depth = 0;  ///< handler admission queue, right now
  std::uint64_t inflight = 0;     ///< requests admitted, response not sent
  double rate_rps = 0.0;          ///< decayed requests/sec (DecayedRate)
  /// Server-side request latency (decode -> response frame on the wire).
  std::size_t latency_count = 0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;

  json::Value to_json() const;
  std::string report() const;  ///< human-readable table
};

/// What a Server serves: anything that answers svc Requests through a
/// future and describes itself for the stats RPC. gs::svc::Service is
/// one (via ServiceHandler); the gs::shard scatter-gather Router is
/// another — the wire protocol cannot tell them apart, which is the
/// point: clients speak to a router exactly as to a single daemon.
class Handler {
 public:
  virtual ~Handler() = default;

  /// Must ALWAYS yield a Response: rejections (busy, shutting down)
  /// resolve the future with the corresponding status, never block.
  virtual std::future<svc::Response> submit(svc::Request request) = 0;

  /// The handler's half of the stats RPC JSON. Must contain a "dataset"
  /// member (remote tools identify the served dataset through it).
  virtual json::Value stats_json() const = 0;

  /// Requests admitted but not yet executing — the svc admission queue
  /// for a daemon, the routing queue for a Router. Surfaced as the
  /// ServerStats "queue_depth" load signal; 0 when the handler has no
  /// queue of its own.
  virtual std::size_t queue_depth() const { return 0; }
};

/// Adapts an in-process svc::Service to the Handler interface.
class ServiceHandler : public Handler {
 public:
  explicit ServiceHandler(svc::Service& service) : service_(&service) {}

  std::future<svc::Response> submit(svc::Request request) override {
    return service_->submit(std::move(request));
  }
  json::Value stats_json() const override;
  std::size_t queue_depth() const override;

 private:
  svc::Service* service_;
};

/// One serving endpoint over a Handler. Starts the acceptor on
/// construction; destruction (or shutdown()) drains and joins.
class Server {
 public:
  /// When `live_stream` is non-null a bridge thread consumes it and fans
  /// steps out to subscribed connections; the Server becomes the
  /// stream's single consumer (reads it to end-of-stream or abandons it
  /// at shutdown so blocked producers fail cleanly).
  explicit Server(svc::Service& service, ServerConfig config = {},
                  bp::Stream* live_stream = nullptr);
  /// Serve an arbitrary Handler (e.g. the gs::shard Router). The handler
  /// must outlive the server.
  explicit Server(Handler& handler, ServerConfig config = {},
                  bp::Stream* live_stream = nullptr);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound address with the kernel-resolved port.
  const Endpoint& endpoint() const { return endpoint_; }

  /// Stops accepting, drains in-flight requests (responses are still
  /// delivered), ends the live bridge, joins every thread. Idempotent.
  void shutdown();

  ServerStats stats() const;

  /// The stats RPC payload: transport counters + svc metrics + dataset.
  json::Value stats_json() const;

 private:
  struct Conn {
    explicit Conn(Socket s) : sock(std::move(s)) {}
    Socket sock;
    std::thread thread;
    /// Serializes conn worker vs. bridge sends — and the worker's final
    /// sock.close(), so the bridge never writes into a closed (or
    /// kernel-reused) fd: it either finishes its send first or observes
    /// the closed socket and gets an IoError.
    std::mutex write_mu;
    std::atomic<std::int64_t> credits{0};
    std::atomic<bool> subscribed{false};
    std::atomic<std::uint64_t> dropped_steps{0};
    std::atomic<bool> done{false};
  };

  struct Pending;  ///< an admitted request awaiting its svc future

  void start();  ///< shared ctor tail: validate, bind, spawn threads
  void acceptor_main();
  void conn_main(Conn& conn);
  void bridge_main();
  void handle_frame(Conn& conn, const Frame& frame,
                    std::deque<Pending>& pending);
  std::uint64_t active_connections() const;
  void send_locked(Conn& conn, const Frame& frame);
  /// Live subscribers at this instant; shared ownership keeps each Conn
  /// alive across a fan-out send performed without conns_mu_ held.
  std::vector<std::shared_ptr<Conn>> subscriber_snapshot() const;

  std::unique_ptr<Handler> owned_handler_;  ///< set by the Service ctor
  Handler* handler_;
  ServerConfig config_;
  bp::Stream* live_stream_;
  Listener listener_;
  Endpoint endpoint_;
  std::chrono::steady_clock::time_point epoch_;  ///< profiler time base

  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::thread bridge_;

  mutable std::mutex conns_mu_;
  std::list<std::shared_ptr<Conn>> conns_;

  std::mutex shutdown_mu_;  ///< serializes concurrent shutdown() calls
  bool shut_down_ = false;

  // Counters (stats_mu_ guards the non-atomic aggregates).
  mutable std::mutex stats_mu_;
  ServerStats counters_;
  LatencyHistogram latencies_;  ///< seconds, decode -> response sent
  /// Requests admitted (decoded + submitted) whose response frame has
  /// not been sent yet, across all connections. Atomic: incremented on
  /// each connection's worker, read by stats().
  std::atomic<std::uint64_t> inflight_{0};
  DecayedRate rate_{/*halflife_seconds=*/10.0};  ///< under stats_mu_
};

}  // namespace gs::rpc
