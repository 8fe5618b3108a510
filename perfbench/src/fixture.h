// Workload inputs and deployments: seeded datasets and query mixes, the
// in-process equivalents of gsserved and gsrouter, ground truth, and the
// closed-loop client that drives them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "config/settings.h"
#include "report.h"
#include "rpc/server.h"
#include "shard/router.h"
#include "svc/service.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work;  ///< scratch directory (relative: unix socket paths)
};

/// Closed-loop client threads, each with its own connection.
inline constexpr int kClients = 4;
/// Set-up repeats at least kMinSetups times and until kSetupSeconds are
/// spent (at most kMaxSetups: interactive's untimed teardowns take about
/// 0.4 s, eight times its set-up, and its runs must stay short); setup_s
/// is the median repetition.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 20;
inline constexpr double kSetupSeconds = 5.0;

enum class Mix { scan, interactive };

/// Producer settings of each workload's dataset and of the produce job
/// (host_reference backend, uncompressed double output, one gs::par lane
/// per rank). `seed` seeds the simulation's noise.
gs::Settings scan_settings(const std::string& output, std::uint64_t seed);
gs::Settings interactive_settings(const std::string& output,
                                  std::uint64_t seed);
gs::Settings produce_settings(const std::string& output, std::uint64_t seed);
inline constexpr int kScanRanks = 8;
inline constexpr int kInteractiveRanks = 8;
inline constexpr int kProduceRanks = 4;

/// A generated request and the identity CRC its answer must have.
struct Query {
  gs::svc::Request request;
  std::uint32_t crc = 0;
};

/// `n` requests of the mix drawn from `seed`.
std::vector<gs::svc::Request> make_requests(Mix mix, std::uint64_t seed,
                                            std::size_t n,
                                            const gs::Settings& dataset);

/// Ground truth: answers every request once through an in-process
/// svc::Service (identical requests are answered once) and keeps the
/// identity CRC of each answer.
std::vector<Query> ground_truth(const std::string& dataset,
                                std::vector<gs::svc::Request> requests);

std::uint32_t identity_crc(const gs::svc::Response& response);

/// An answer is correct when ok, not degraded, and its identity CRC
/// matches; `wrong` marks an ok, undegraded answer with the wrong bytes.
struct Check {
  bool correct = false;
  bool wrong = false;
};
Check check(const gs::svc::Response& response, std::uint32_t crc);

/// gsserved equivalent: svc::Service (2 workers) behind an rpc::Server.
struct Daemon {
  Daemon(const std::string& dataset, const std::string& listen,
         std::shared_ptr<const gs::shard::ShardMap> map = nullptr,
         std::string shard_id = "");
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  std::unique_ptr<gs::svc::Service> service;
  std::unique_ptr<gs::rpc::Server> server;
};

/// gsrouter equivalent on loopback TCP (4 workers) in front of 3 shard
/// daemons on unix sockets under `dir`.
struct Cluster {
  Cluster(const std::string& dataset, const std::string& dir);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  std::shared_ptr<const gs::shard::ShardMap> map;
  std::vector<std::unique_ptr<Daemon>> shards;
  std::unique_ptr<gs::shard::Router> router;
  std::unique_ptr<gs::rpc::Server> front;
};
inline constexpr int kShards = 3;

/// Runs fn(0) ... fn(n-1) on n threads, joins them all, then rethrows the
/// first exception any of them raised.
void run_threads(int n, const std::function<void(int)>& fn);

/// Outcome of a closed-loop phase.
struct LoopResult {
  SampleSet latency;  ///< seconds, correct answers only
  std::uint64_t attempted = 0;
  std::uint64_t correct = 0;
  std::uint64_t wrong = 0;   ///< timed and warm-up answers alike
  std::uint64_t failed = 0;  ///< wrong + non-ok + degraded + transport
  /// Block fetches of the timed answers: first touches (mmap route) or
  /// cache misses, and the fetches served warm.
  std::uint64_t block_misses = 0;
  std::uint64_t block_hits = 0;
  double elapsed = 0.0;
  void merge(const LoopResult& other);  ///< all but elapsed
};

/// kClients threads, each with its own rpc::Client to `endpoint`, send
/// requests drawn (seeded per thread) from `pool` back to back for
/// `seconds`, after `warmup` untimed requests each. Warm-up answers are
/// checked too: a wrong one counts in `wrong`, nowhere else. With a
/// tracer, every timed request is recorded as one span.
LoopResult closed_loop(const gs::rpc::Endpoint& endpoint,
                       const std::vector<Query>& pool, std::uint64_t seed,
                       double seconds, int warmup, Tracer* tracer);

/// Deterministic 64-bit generator for request streams.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

}  // namespace perfbench
