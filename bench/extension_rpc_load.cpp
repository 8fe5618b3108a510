// extension_rpc_load — closed-loop load test of the gs::rpc serving
// layer over real loopback sockets: the out-of-process twin of
// extension_service_load. Many remote analysts hammer one gsserved-style
// endpoint through the full wire path (framing, CRC, request-id
// multiplexing, reconnect-and-retry) and every answer is checked against
// the in-process service bit for bit.
//
// Phases:
//   1. generate a real solver dataset (8 ranks through the workflow) and
//      precompute the answer-identity CRC of every query in the request
//      space via the in-process service — the ground truth;
//   2. sweep 1/8/64 concurrent TCP clients, each issuing its
//      deterministic request stream; every remote answer's identity CRC
//      must equal the precomputed one (zero wrong or torn responses);
//   3. chaos pass: random transport faults (torn writes) plus killed
//      connections at accept while 16 clients run — client retry loops
//      must absorb every fault with, again, zero wrong answers;
//   4. drain: after each pass the server shuts down cleanly with no
//      connection left active and every request accounted.
//
// Gates (exit nonzero on violation — a regression gate, not a demo):
//   * zero identity mismatches and zero exhausted-retry failures,
//   * p99 latency bounded by max(100 x p50, 1 s),
//   * same-run ratio: the 1-client remote p50 is at most 20 x the p50 of
//     the same request stream answered by the in-process service (the
//     p99 gate above is relative to p50, so a uniform stall such as the
//     ~40 ms delayed-ACK floor passes it; this one it cannot),
//   * chaos pass observed at least one injected fault (else it tested
//     nothing), and the server counted it,
//   * clean drain after every pass.
//
// Default scale finishes in seconds (CI smoke); pass a multiplier to
// scale requests per client, e.g. `extension_rpc_load 4`.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.h"
#include "common/format.h"
#include "common/stats.h"
#include "core/workflow.h"
#include "fault/fault.h"
#include "mpi/runtime.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "svc/service.h"

namespace {

constexpr const char* kDataset = "/tmp/gs_rpc_load.bp";
constexpr std::size_t kQuerySpace = 64;  ///< distinct queries in the mix

struct Lcg {
  std::uint64_t state;
  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

/// Deterministic query q -> request body, shared by the ground-truth
/// pass and every client (same q, same bytes expected back).
gs::svc::Request make_query(std::size_t q, std::int64_t n_steps,
                            std::int64_t L) {
  Lcg rng{0xABCDEF12345678ull ^ (q * 2654435761ull)};
  const std::int64_t step = static_cast<std::int64_t>(rng.next() %
                                                      static_cast<std::uint64_t>(n_steps));
  gs::svc::Request request;
  switch (q % 4) {
    case 0:
      request.body = gs::svc::FieldStatsQ{"U", step};
      break;
    case 1:
      request.body = gs::svc::HistogramQ{"V", step, 32};
      break;
    case 2:
      request.body = gs::svc::Slice2DQ{
          "U", step, 2,
          static_cast<std::int64_t>(rng.next() %
                                    static_cast<std::uint64_t>(L))};
      break;
    default: {
      const std::int64_t half = L / 2;
      request.body = gs::svc::ReadBoxQ{
          "V", step,
          gs::Box3{{0, 0, static_cast<std::int64_t>(
                              rng.next() % static_cast<std::uint64_t>(half))},
                   {half, half, half}}};
      break;
    }
  }
  return request;
}

std::uint32_t identity_crc(const gs::svc::Response& response) {
  const auto bytes = gs::rpc::encode_answer_identity(response);
  return gs::crc32(std::span<const std::byte>(bytes.data(), bytes.size()));
}

struct PassResult {
  double elapsed = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t wrong = 0;   ///< identity CRC mismatch (torn/corrupt answer)
  std::uint64_t failed = 0;  ///< exhausted retries
  gs::Samples latencies;
};

/// Client c's deterministic request stream (shared by the remote passes
/// and the in-process baseline).
Lcg client_stream(std::size_t c) { return Lcg{0x9e3779b97f4a7c15ull ^ (c + 1)}; }

/// Client 0's request stream answered by the in-process service: the
/// denominator of the remote/in-process ratio gate.
PassResult run_inprocess(gs::svc::Service& service, std::size_t reqs,
                         const std::vector<std::uint32_t>& expected,
                         std::int64_t n_steps, std::int64_t L) {
  PassResult result;
  Lcg rng = client_stream(0);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reqs; ++r) {
    const std::size_t q = rng.next() % kQuerySpace;
    const auto a = std::chrono::steady_clock::now();
    const gs::svc::Response response = service.call(make_query(q, n_steps, L));
    const auto b = std::chrono::steady_clock::now();
    if (!response.status.ok() || identity_crc(response) != expected[q]) {
      ++result.wrong;
    } else {
      ++result.ok;
      result.latencies.add(std::chrono::duration<double>(b - a).count());
    }
  }
  result.elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return result;
}

/// One closed-loop pass of `n_clients` rpc::Clients against `endpoint`.
PassResult run_pass(const gs::rpc::Endpoint& endpoint, std::size_t n_clients,
                    std::size_t reqs_per_client,
                    const std::vector<std::uint32_t>& expected,
                    std::int64_t n_steps, std::int64_t L) {
  std::vector<PassResult> per(n_clients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      gs::rpc::ClientConfig config;
      config.retries = 6;
      config.backoff_ms = 1.0;
      gs::rpc::Client client(endpoint, config);
      Lcg rng = client_stream(c);
      for (std::size_t r = 0; r < reqs_per_client; ++r) {
        const std::size_t q = rng.next() % kQuerySpace;
        const auto a = std::chrono::steady_clock::now();
        try {
          const gs::svc::Response response =
              client.call(make_query(q, n_steps, L));
          const auto b = std::chrono::steady_clock::now();
          if (!response.status.ok() || identity_crc(response) != expected[q]) {
            ++per[c].wrong;
          } else {
            ++per[c].ok;
            per[c].latencies.add(
                std::chrono::duration<double>(b - a).count());
          }
        } catch (const gs::IoError&) {
          ++per[c].failed;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  PassResult result;
  result.elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& p : per) {
    result.ok += p.ok;
    result.wrong += p.wrong;
    result.failed += p.failed;
    for (const double x : p.latencies.values()) result.latencies.add(x);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t scale = argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 1;
  const std::size_t reqs_per_client = 16 * (scale ? scale : 1);
  bool failed = false;

  std::printf("==============================================================\n");
  std::printf("Extension — gs::rpc remote-serving load over loopback TCP\n");
  std::printf("==============================================================\n\n");

  // Phase 1: real dataset + in-process ground truth.
  gs::Settings settings;
  settings.L = 32;
  settings.steps = 20;
  settings.plotgap = 4;
  settings.noise = 0.1;
  settings.output = kDataset;
  settings.ranks_per_node = 4;
  std::filesystem::remove_all(kDataset);
  gs::mpi::run(8, [&](gs::mpi::Comm& world) {
    gs::core::Workflow wf(settings, world);
    wf.run();
  });
  const std::int64_t n_steps = settings.steps / settings.plotgap;

  gs::svc::ServiceConfig svc_config;
  svc_config.threads = 4;
  gs::svc::Service service(kDataset, std::move(svc_config));
  std::vector<std::uint32_t> expected(kQuerySpace);
  for (std::size_t q = 0; q < kQuerySpace; ++q) {
    const auto response = service.call(make_query(q, n_steps, settings.L));
    if (!response.status.ok()) {
      std::printf("FAIL: ground-truth query %zu failed: %s\n", q,
                  response.status.message.c_str());
      return 1;
    }
    expected[q] = identity_crc(response);
  }
  std::printf("dataset: %s  (%zu-query ground truth precomputed)\n\n",
              kDataset, kQuerySpace);

  // Phase 2: clean client sweep, after the in-process baseline.
  const PassResult inproc =
      run_inprocess(service, reqs_per_client, expected, n_steps, settings.L);
  if (inproc.wrong != 0) {
    std::printf("FAIL: in-process baseline answered %llu queries wrong\n",
                (unsigned long long)inproc.wrong);
    failed = true;
  }
  double remote_p50 = 0.0;  ///< the 1-client pass
  gs::TableFormatter table(
      {"clients", "req/s", "p50", "p95", "p99", "wrong", "failed"});
  table.row({"in-process",
             gs::format_fixed(
                 inproc.elapsed > 0 ? inproc.ok / inproc.elapsed : 0.0, 1),
             gs::format_seconds(inproc.latencies.percentile(50)),
             gs::format_seconds(inproc.latencies.percentile(95)),
             gs::format_seconds(inproc.latencies.percentile(99)),
             std::to_string(inproc.wrong), "0"});
  for (const std::size_t n_clients : {1u, 8u, 64u}) {
    gs::rpc::ServerConfig config;
    config.max_connections = 128;
    gs::rpc::Server server(service, config);
    const auto r = run_pass(server.endpoint(), n_clients, reqs_per_client,
                            expected, n_steps, settings.L);
    server.shutdown();
    const auto stats = server.stats();
    table.row({std::to_string(n_clients),
               gs::format_fixed(r.elapsed > 0 ? r.ok / r.elapsed : 0.0, 1),
               gs::format_seconds(r.latencies.percentile(50)),
               gs::format_seconds(r.latencies.percentile(95)),
               gs::format_seconds(r.latencies.percentile(99)),
               std::to_string(r.wrong), std::to_string(r.failed)});
    if (r.wrong != 0 || r.failed != 0 ||
        r.ok != n_clients * reqs_per_client) {
      std::printf("FAIL: %zu-client pass lost answers (ok=%llu wrong=%llu "
                  "failed=%llu)\n",
                  n_clients, (unsigned long long)r.ok,
                  (unsigned long long)r.wrong, (unsigned long long)r.failed);
      failed = true;
    }
    const double p50 = r.latencies.percentile(50);
    const double p99 = r.latencies.percentile(99);
    if (n_clients == 1) remote_p50 = p50;
    if (p99 > std::max(100.0 * p50, 1.0)) {
      std::printf("FAIL: %zu-client p99 %.3fs exceeds max(100 x p50, 1s) "
                  "(p50 %.6fs)\n",
                  n_clients, p99, p50);
      failed = true;
    }
    if (stats.active != 0) {
      std::printf("FAIL: %llu connections still active after drain\n",
                  (unsigned long long)stats.active);
      failed = true;
    }
  }
  std::printf("%s\n", table.str().c_str());

  constexpr double kMaxRemoteToInproc = 20.0;
  const double inproc_p50 = inproc.latencies.percentile(50);
  const double ratio = remote_p50 / inproc_p50;
  std::printf("1-client remote p50 / in-process p50: %s / %s = %.1fx "
              "(gate <= %.0fx)\n\n",
              gs::format_seconds(remote_p50).c_str(),
              gs::format_seconds(inproc_p50).c_str(), ratio,
              kMaxRemoteToInproc);
  if (ratio > kMaxRemoteToInproc) {
    std::printf("FAIL: remote p50 is %.1fx the in-process p50 for the same "
                "requests (gate %.0fx): the transport stalls\n",
                ratio, kMaxRemoteToInproc);
    failed = true;
  }

  // Phase 3: chaos — torn writes on the shared wire path plus killed
  // connections at accept, absorbed by client retry loops.
  {
    gs::rpc::ServerConfig config;
    config.max_connections = 128;
    gs::rpc::Server server(service, config);
    gs::fault::Plan plan;
    plan.arm_random("rpc.write", 0.01, gs::fault::Kind::fail,
                    /*seed=*/42, /*horizon=*/1 << 16, /*budget=*/48);
    plan.kill_at("rpc.accept", 3);
    plan.kill_at("rpc.accept", 11);
    gs::fault::ScopedPlan scoped(plan);

    const auto r = run_pass(server.endpoint(), 16, reqs_per_client, expected,
                            n_steps, settings.L);
    server.shutdown();
    const auto stats = server.stats();
    const std::uint64_t observed = gs::fault::Injector::instance().injected();
    std::printf("chaos: %llu injected faults, server counters: io_errors "
                "%llu, killed %llu, crc %llu\n",
                (unsigned long long)observed,
                (unsigned long long)stats.io_errors,
                (unsigned long long)stats.killed_connections,
                (unsigned long long)stats.crc_errors);
    if (observed == 0) {
      std::printf("FAIL: chaos pass injected nothing — gate is vacuous\n");
      failed = true;
    }
    if (r.wrong != 0) {
      std::printf("FAIL: chaos pass produced %llu wrong/torn answers\n",
                  (unsigned long long)r.wrong);
      failed = true;
    }
    if (r.failed != 0 || r.ok != 16 * reqs_per_client) {
      std::printf("FAIL: retries did not absorb the faults (ok=%llu "
                  "failed=%llu)\n",
                  (unsigned long long)r.ok, (unsigned long long)r.failed);
      failed = true;
    }
    if (stats.active != 0) {
      std::printf("FAIL: chaos pass left connections active after drain\n");
      failed = true;
    }
  }

  service.shutdown();
  std::filesystem::remove_all(kDataset);
  std::printf("\n%s\n", failed ? "FAILED" : "OK");
  return failed ? 1 : 0;
}
