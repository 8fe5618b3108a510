#include "fixture.h"

#include <algorithm>
#include <exception>
#include <latch>
#include <map>
#include <mutex>
#include <span>
#include <thread>

#include "common/checksum.h"
#include "common/error.h"
#include "rpc/client.h"
#include "rpc/wire.h"

namespace perfbench {

namespace {

gs::Settings base_settings(const std::string& output, std::uint64_t seed) {
  gs::Settings s;
  s.backend = gs::KernelBackend::host_reference;
  s.precision = "double";
  s.compress = false;
  s.plotgap = 10;
  s.output = output;
  s.seed = seed;
  // One gs::par lane per rank: the ranks fill the cores, and a job runs no
  // more threads than it has ranks. With the default (one lane per core,
  // shared by every rank) the ranks queue for the pool's region lock and
  // wake its workers every sweep, and a job runs ranks + lanes - 1 threads
  // on the cores.
  s.threads = 1;
  return s;
}

}  // namespace

std::uint64_t Rng::next() {
  // SplitMix64.
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

gs::Settings scan_settings(const std::string& output, std::uint64_t seed) {
  gs::Settings s = base_settings(output, seed);
  s.L = 128;
  s.steps = 40;  // 4 output steps x {U,V} x 8 blocks of 2 MiB = 128 MiB
  s.ranks_per_node = 8;
  return s;
}

gs::Settings interactive_settings(const std::string& output,
                                  std::uint64_t seed) {
  gs::Settings s = base_settings(output, seed);
  s.L = 32;
  // 5 output steps x {U,V} x 8 blocks of 32 KiB, one step apart: a step
  // at L=32 is a few us of stencil per rank and mostly halo hand-offs
  // between 8 rank threads, which is not work worth timing in set-up.
  s.steps = 5;
  s.plotgap = 1;
  s.ranks_per_node = 8;
  return s;
}

gs::Settings produce_settings(const std::string& output, std::uint64_t seed) {
  gs::Settings s = base_settings(output, seed);
  s.L = 128;
  s.steps = 20;  // two output steps of 4 blocks x 4 MiB per variable
  s.ranks_per_node = 2;
  return s;
}

std::vector<gs::svc::Request> make_requests(Mix mix, std::uint64_t seed,
                                            std::size_t n,
                                            const gs::Settings& dataset) {
  using namespace gs::svc;
  Rng rng(seed ^ 0x51CA11ull);
  const auto steps =
      static_cast<std::uint64_t>(dataset.steps / dataset.plotgap);
  const auto L = static_cast<std::uint64_t>(dataset.L);
  const char* vars[] = {"U", "V"};
  std::vector<Request> out;
  out.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    Request r;
    const auto step = static_cast<std::int64_t>(rng.below(steps));
    const char* var = vars[rng.below(2)];
    if (mix == Mix::scan) {
      // Whole-field reductions and slices, in equal shares.
      switch (q % 3) {
        case 0:
          r.body = FieldStatsQ{var, step};
          break;
        case 1:
          r.body = HistogramQ{var, step, 64};
          break;
        default:
          r.body = Slice2DQ{var, step, static_cast<int>(rng.below(3)),
                            static_cast<std::int64_t>(rng.below(L))};
          break;
      }
    } else {
      // The five notebook verbs in equal shares, shaped as
      // extension_shard_scaling sends them.
      const auto half = static_cast<std::int64_t>(L / 2);
      switch (q % 5) {
        case 0:
          r.body = ListVariablesQ{};
          break;
        case 1:
          r.body = FieldStatsQ{var, step};
          break;
        case 2:
          r.body = HistogramQ{var, step, 32};
          break;
        case 3:
          r.body = Slice2DQ{"U", step, 2,
                            static_cast<std::int64_t>(rng.below(L))};
          break;
        default:
          r.body = ReadBoxQ{
              "V", step,
              gs::Box3{{0, 0,
                        static_cast<std::int64_t>(
                            rng.below(static_cast<std::uint64_t>(half)))},
                       {half, half, half}}};
          break;
      }
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::uint32_t identity_crc(const gs::svc::Response& response) {
  const auto bytes = gs::rpc::encode_answer_identity(response);
  return gs::crc32(std::span<const std::byte>(bytes.data(), bytes.size()));
}

std::vector<Query> ground_truth(const std::string& dataset,
                                std::vector<gs::svc::Request> requests) {
  gs::svc::Service service(dataset, gs::svc::ServiceConfig{});
  std::map<std::string, std::uint32_t> known;
  std::vector<Query> out;
  out.reserve(requests.size());
  for (auto& request : requests) {
    const auto bytes = gs::rpc::encode_request(request);
    std::string key(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    auto it = known.find(key);
    if (it == known.end()) {
      const gs::svc::Response response = service.call(request);
      if (!response.status.ok() || response.degraded) {
        throw std::runtime_error("ground truth query failed: " +
                                 response.status.message);
      }
      it = known.emplace(std::move(key), identity_crc(response)).first;
    }
    out.push_back(Query{std::move(request), it->second});
  }
  return out;
}

Check check(const gs::svc::Response& response, std::uint32_t crc) {
  Check c;
  if (!response.status.ok() || response.degraded) return c;
  c.correct = identity_crc(response) == crc;
  c.wrong = !c.correct;
  return c;
}

Daemon::Daemon(const std::string& dataset, const std::string& listen,
               std::shared_ptr<const gs::shard::ShardMap> map,
               std::string shard_id) {
  gs::svc::ServiceConfig config;
  config.threads = 2;  // the gsserved default
  config.shard_map = std::move(map);
  config.shard_id = std::move(shard_id);
  service = std::make_unique<gs::svc::Service>(dataset, std::move(config));
  gs::rpc::ServerConfig server_config;
  server_config.listen = listen;
  server = std::make_unique<gs::rpc::Server>(*service, server_config);
}

Daemon::~Daemon() {
  server->shutdown();
  service->shutdown();
}

Cluster::Cluster(const std::string& dataset, const std::string& dir) {
  std::vector<gs::shard::ShardInfo> infos;
  for (int i = 0; i < kShards; ++i) {
    // Built by append: GCC 12 warns falsely on "literal" + std::string.
    const std::string id = std::string("s").append(std::to_string(i));
    infos.push_back(gs::shard::ShardInfo{
        id, std::string("unix:").append(dir).append("/").append(id).append(
                ".sock")});
  }
  map = std::make_shared<const gs::shard::ShardMap>(1, 64, std::move(infos));
  for (const auto& info : map->shards()) {
    shards.push_back(
        std::make_unique<Daemon>(dataset, info.endpoint, map, info.id));
  }
  router = std::make_unique<gs::shard::Router>(map, gs::shard::RouterConfig{});
  front = std::make_unique<gs::rpc::Server>(*router, gs::rpc::ServerConfig{});
}

Cluster::~Cluster() {
  front->shutdown();
  router->shutdown();
  shards.clear();
}

void run_threads(int n, const std::function<void(int)>& fn) {
  std::mutex mu;
  std::exception_ptr first;
  std::vector<std::thread> threads;
  for (int t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  if (first) std::rethrow_exception(first);
}

void LoopResult::merge(const LoopResult& other) {
  latency.append(other.latency);
  attempted += other.attempted;
  correct += other.correct;
  wrong += other.wrong;
  failed += other.failed;
  block_misses += other.block_misses;
  block_hits += other.block_hits;
}

LoopResult closed_loop(const gs::rpc::Endpoint& endpoint,
                       const std::vector<Query>& pool, std::uint64_t seed,
                       double seconds, int warmup, Tracer* tracer) {
  std::vector<LoopResult> per(kClients);
  std::vector<Clock::time_point> starts(kClients), ends(kClients);
  std::latch ready(kClients);
  run_threads(kClients, [&](int t) {
    LoopResult& r = per[static_cast<std::size_t>(t)];
    gs::rpc::Client client(endpoint);
    Rng rng(seed * 1000003ull + static_cast<std::uint64_t>(t));
    auto send = [&](bool timed, std::uint64_t seq) {
      const Query& q = pool[rng.below(pool.size())];
      const auto a = Clock::now();
      try {
        const gs::svc::Response response = client.call(q.request);
        const auto b = Clock::now();
        const Check c = check(response, q.crc);
        if (c.wrong) ++r.wrong;
        if (!timed) return;
        ++r.attempted;
        r.block_misses += response.cache_misses;
        r.block_hits += response.cache_hits;
        if (tracer != nullptr) {
          tracer->record(gs::svc::to_string(response.verb), a, b, 0,
                         (static_cast<std::uint64_t>(t) + 1) << 32 | seq);
        }
        if (c.correct) {
          ++r.correct;
          r.latency.add(seconds_between(a, b));
        } else {
          ++r.failed;
        }
      } catch (const gs::Error&) {
        if (!timed) return;
        ++r.attempted;
        ++r.failed;
      }
    };
    try {
      for (int i = 0; i < warmup; ++i) send(false, 0);
    } catch (...) {
      ready.count_down();  // never leave the other clients at the latch
      throw;
    }
    ready.arrive_and_wait();
    const auto start = Clock::now();
    starts[static_cast<std::size_t>(t)] = start;
    std::uint64_t seq = 0;
    while (seconds_between(start, Clock::now()) < seconds) {
      send(true, ++seq);
    }
    ends[static_cast<std::size_t>(t)] = Clock::now();
  });
  LoopResult total;
  for (const auto& r : per) total.merge(r);
  total.elapsed = seconds_between(*std::min_element(starts.begin(), starts.end()),
                                  *std::max_element(ends.begin(), ends.end()));
  return total;
}

}  // namespace perfbench
