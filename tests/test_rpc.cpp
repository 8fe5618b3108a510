// Tests for gs::rpc — the real-socket serving layer. The wire codecs
// must round-trip every svc type bitwise, framing must reject torn and
// corrupted frames, a loopback server must answer byte-for-byte what the
// in-process service answers (TCP and Unix sockets), request-id
// multiplexing must survive pipelining, injected transport faults must
// be absorbed by client retries and counted by the server, and the live
// subscription channel must deliver in order, drop (never stall) on
// slow consumers, and fail producers cleanly at shutdown.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "bp/stream.h"
#include "bp/writer.h"
#include "fault/fault.h"
#include "grid/decomp.h"
#include "mpi/runtime.h"
#include "rpc/client.h"
#include "rpc/pool.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "svc/service.h"

namespace {

namespace fs = std::filesystem;
using gs::Box3;
using gs::Decomposition;
using gs::Index3;
using namespace gs::rpc;
namespace svc = gs::svc;

constexpr std::int64_t kL = 16;
constexpr int kSteps = 3;

std::string temp_path(const std::string& name) {
  static const std::string pid = std::to_string(::getpid());
  return (fs::path(testing::TempDir()) / (name + "." + pid)).string();
}

double cell_value(const Index3& g, const Index3& shape, std::int64_t step) {
  return static_cast<double>(gs::linear_index(g, shape)) +
         1e6 * static_cast<double>(step);
}

/// Writes kSteps of L^3 "U" and "V" with 4 ranks; returns the path.
std::string write_dataset(const std::string& name) {
  const std::string path = temp_path(name) + ".bp";
  fs::remove_all(path);
  gs::mpi::run(4, [&](gs::mpi::Comm& world) {
    const Decomposition d = Decomposition::cube(kL, world.size());
    const Box3 box = d.local_box(world.rank());
    const Index3 shape{kL, kL, kL};
    gs::bp::Writer w(path, world, 2);
    for (int s = 0; s < kSteps; ++s) {
      std::vector<double> block(static_cast<std::size_t>(box.volume()));
      std::size_t n = 0;
      for (std::int64_t k = box.start.k; k < box.end().k; ++k) {
        for (std::int64_t j = box.start.j; j < box.end().j; ++j) {
          for (std::int64_t i = box.start.i; i < box.end().i; ++i) {
            block[n++] = cell_value({i, j, k}, shape, s);
          }
        }
      }
      w.begin_step();
      w.put("U", shape, box, block);
      w.put("V", shape, box, block);
      w.put_scalar("step", 10 * s);
      w.end_step();
    }
    w.close();
  });
  return path;
}

const std::string& dataset() {
  static const std::string path = write_dataset("rpc_shared");
  return path;
}

/// A connected AF_UNIX socket pair wrapped in rpc::Socket, for driving
/// the framing layer without a server.
struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
  Socket a, b;
};

svc::Request stats_request(const std::string& var, std::int64_t step) {
  svc::Request request;
  request.body = svc::FieldStatsQ{var, step};
  return request;
}

// ---- wire codecs ---------------------------------------------------------

TEST(RpcWire, RequestRoundTripsEveryVerb) {
  const Box3 box{{1, 2, 3}, {4, 5, 6}};
  const std::vector<svc::QueryBody> bodies = {
      svc::ListVariablesQ{},
      svc::FieldStatsQ{"U", 2},
      svc::HistogramQ{"V", 1, 32},
      svc::Slice2DQ{"U", 0, 2, 7},
      svc::ReadBoxQ{"V", 1, box},
  };
  for (const auto& body : bodies) {
    svc::Request request;
    request.body = body;
    request.timeout_seconds = 1.5;
    const auto bytes = encode_request(request);
    const svc::Request back = decode_request(bytes);
    EXPECT_EQ(back.timeout_seconds, 1.5);
    EXPECT_EQ(back.body.index(), body.index());
    // Re-encoding the decoded request must reproduce the exact bytes.
    EXPECT_EQ(encode_request(back), bytes);
  }
}

TEST(RpcWire, ResponseRoundTripIsBitwise) {
  svc::Response response;
  response.id = 42;  // NOT on the wire; the frame header carries it
  response.verb = svc::Verb::slice2d;
  response.status = svc::Status{svc::StatusCode::ok, ""};
  svc::Slice2DR body;
  body.slice.nx = 2;
  body.slice.ny = 3;
  body.slice.values = {1.0, -2.5, 3.25, 0.0, 1e-300, 6.0};
  body.slice.min = -2.5;
  body.slice.max = 6.0;
  response.body = body;
  response.degraded = true;
  response.bad_blocks = 2;
  response.exec_seconds = 0.125;
  response.cache_hits = 7;

  const auto bytes = encode_response(response);
  svc::Response back = decode_response(bytes);
  EXPECT_EQ(back.id, 0u) << "decoder must leave id for the caller";
  back.id = response.id;
  EXPECT_EQ(encode_response(back), bytes);
  EXPECT_EQ(encode_answer_identity(back), encode_answer_identity(response));
  const auto& slice = std::get<svc::Slice2DR>(back.body).slice;
  EXPECT_EQ(slice.values, body.slice.values);
}

TEST(RpcWire, AnswerIdentityIgnoresTimingsButNotBody) {
  svc::Response a;
  a.verb = svc::Verb::field_stats;
  a.status = svc::Status{svc::StatusCode::ok, ""};
  a.body = svc::FieldStatsR{{10, -1.0, 2.0, 0.5, 0.1}};
  svc::Response b = a;
  b.exec_seconds = 99.0;
  b.cache_hits = 123;
  EXPECT_EQ(encode_answer_identity(a), encode_answer_identity(b));
  std::get<svc::FieldStatsR>(b.body).stats.mean = 0.6;
  EXPECT_NE(encode_answer_identity(a), encode_answer_identity(b));
}

TEST(RpcWire, TruncatedPayloadThrowsParseError) {
  const auto bytes = encode_request(stats_request("U", 1));
  for (const std::size_t keep : {std::size_t{0}, bytes.size() / 2}) {
    EXPECT_THROW(
        decode_request(std::span<const std::byte>(bytes.data(), keep)),
        gs::ParseError);
  }
}

TEST(RpcWire, StreamStepRoundTrips) {
  gs::bp::StreamStep step;
  step.sequence = 7;
  step.scalars["step"] = 70;
  gs::bp::StreamStep::ArrayVar var;
  var.shape = {4, 4, 4};
  var.blocks.push_back({1, Box3{{0, 0, 0}, {4, 4, 2}}, {1.0, 2.0, 3.0}});
  var.blocks.push_back({2, Box3{{0, 0, 2}, {4, 4, 2}}, {-4.0, 5.5}});
  step.arrays["U"] = var;

  const auto bytes = encode_stream_step(step);
  const gs::bp::StreamStep back = decode_stream_step(bytes);
  EXPECT_EQ(back.sequence, 7);
  EXPECT_EQ(back.scalars.at("step"), 70);
  ASSERT_EQ(back.arrays.at("U").blocks.size(), 2u);
  EXPECT_EQ(back.arrays.at("U").blocks[1].data,
            std::vector<double>({-4.0, 5.5}));
  EXPECT_EQ(encode_stream_step(back), bytes);
}

TEST(RpcWire, FramesCarryTypeIdAndPayload) {
  SocketPair pair;
  Frame frame;
  frame.type = FrameType::request;
  frame.id = 0xDEADBEEFCAFEull;
  frame.payload = encode_request(stats_request("U", 0));
  const std::size_t wire_bytes = send_frame(pair.a, frame, 1000);
  EXPECT_EQ(wire_bytes, kHeaderBytes + frame.payload.size());

  const auto got = recv_frame(pair.b, 1000);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, FrameType::request);
  EXPECT_EQ(got->id, frame.id);
  EXPECT_EQ(got->payload, frame.payload);

  pair.a.close();
  EXPECT_FALSE(recv_frame(pair.b, 1000).has_value()) << "clean EOF";
}

TEST(RpcWire, BadMagicAndTornFramesRejected) {
  {
    SocketPair pair;
    std::vector<std::byte> junk(kHeaderBytes, std::byte{0x5A});
    pair.a.write_all(junk, 1000);
    EXPECT_THROW(recv_frame(pair.b, 1000), gs::IoError);
  }
  {
    SocketPair pair;
    Frame frame;
    frame.type = FrameType::stats_reply;
    frame.payload = encode_text("{}");
    // A fail at rpc.write lands between header and payload: the peer
    // sees a torn frame (header promises bytes that never arrive).
    gs::fault::Plan plan;
    plan.fail_at("rpc.write", 0);
    gs::fault::ScopedPlan scoped(plan);
    EXPECT_THROW(send_frame(pair.a, frame, 1000), gs::fault::InjectedFault);
    pair.a.close();
    EXPECT_THROW(recv_frame(pair.b, 1000), gs::IoError);
  }
}

TEST(RpcWire, CorruptedPayloadFailsCrc) {
  SocketPair pair;
  Frame frame;
  frame.type = FrameType::stats_reply;
  frame.payload = encode_text("the payload the CRC signed");
  gs::fault::Plan plan;
  plan.corrupt_at("rpc.frame_corrupt", 0, /*byte_offset=*/3);
  gs::fault::ScopedPlan scoped(plan);
  send_frame(pair.a, frame, 1000);
  EXPECT_THROW(recv_frame(pair.b, 1000), CrcError);
}

TEST(RpcWire, OversizedClientFrameRejectedBeforePayloadArrives) {
  // A header-only attack: 24 bytes promising a huge subscribe payload
  // must be rejected up front (per-type cap), not buffered for 1 GiB.
  SocketPair pair;
  ByteWriter header;
  header.u32(kMagic);
  header.u16(kVersion);
  header.u16(static_cast<std::uint16_t>(FrameType::subscribe));
  header.u64(7);
  header.u32(1u << 20);  // payload_len far above the subscribe cap
  header.u32(0);         // crc (never checked: rejected earlier)
  pair.a.write_all(header.bytes(), 1000);
  EXPECT_THROW(recv_frame(pair.b, 1000), gs::IoError);
}

TEST(RpcWire, PerTypeCapsAdmitRealTrafficAndBoundControlFrames) {
  EXPECT_GE(max_payload_of(FrameType::request), 1u << 16);
  EXPECT_LE(max_payload_of(FrameType::subscribe), 1u << 16);
  EXPECT_LE(max_payload_of(FrameType::credit), 1u << 16);
  EXPECT_LE(max_payload_of(FrameType::ping), 1u << 16);
  EXPECT_GE(max_payload_of(FrameType::response), kMaxPayload - 1);
  EXPECT_GE(max_payload_of(FrameType::stream_step), kMaxPayload - 1);
}

TEST(RpcSocket, ZeroTimeoutWaitReadablePollsWithoutBlocking) {
  SocketPair pair;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(pair.b.wait_readable(0));   // nothing pending: immediate no
  EXPECT_FALSE(pair.b.wait_readable(-5));  // negative behaves the same
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(2)) << "zero-timeout poll blocked";

  const std::byte one[1] = {std::byte{42}};
  pair.a.write_all(one, 1000);
  EXPECT_TRUE(pair.b.wait_readable(0));  // pending data visible at once
}

TEST(RpcSocket, IdleWaitReadableSleepsInsteadOfSpinning) {
  // A 1 ms wait must sleep in poll(2), not spin poll(0) until the
  // deadline: 200 of them should cost next to no CPU.
  SocketPair pair;
  const auto cpu_seconds = [] {
    rusage u{};
    ::getrusage(RUSAGE_THREAD, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  };
  const double before = cpu_seconds();
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(pair.b.wait_readable(1));
  EXPECT_LT(cpu_seconds() - before, 0.050);
}

TEST(RpcSocket, ClosedSocketOperationsThrowIoError) {
  SocketPair pair;
  pair.a.close();
  const std::byte one[1] = {std::byte{42}};
  EXPECT_THROW(pair.a.write_all(one, 100), gs::IoError);
  EXPECT_THROW(pair.a.wait_readable(100), gs::IoError);
  std::byte buf[1];
  EXPECT_THROW(pair.a.read_exact(buf, 100), gs::IoError);
}

// ---- loopback serving ----------------------------------------------------

/// Compares every verb answered remotely against the in-process service,
/// by canonical answer-identity bytes (verb + status + body).
void expect_bitwise_identical(const std::string& listen) {
  gs::svc::Service service(dataset());
  ServerConfig config;
  config.listen = listen;
  Server server(service, config);
  Client remote(server.endpoint());

  const Box3 box{{1, 1, 1}, {6, 5, 4}};
  const std::vector<std::pair<const char*, svc::QueryBody>> queries = {
      {"ls", svc::ListVariablesQ{}},
      {"stats0", svc::FieldStatsQ{"U", 0}},
      {"stats2", svc::FieldStatsQ{"U", 2}},
      {"hist", svc::HistogramQ{"V", 1, 16}},
      {"slice", svc::Slice2DQ{"U", 2, 2, 8}},
      {"read", svc::ReadBoxQ{"V", 1, box}},
  };
  for (const auto& [what, body] : queries) {
    svc::Request request;
    request.body = body;
    const svc::Response via_wire = remote.call(request);
    const svc::Response in_process = service.call(request);
    ASSERT_TRUE(via_wire.status.ok()) << via_wire.status.message;
    EXPECT_EQ(encode_answer_identity(via_wire),
              encode_answer_identity(in_process))
        << what << " over " << listen;
  }
  server.shutdown();
}

TEST(RpcServer, TcpAnswersAreBitwiseIdentical) {
  expect_bitwise_identical("127.0.0.1:0");
}

TEST(RpcServer, UnixSocketAnswersAreBitwiseIdentical) {
  expect_bitwise_identical("unix:" + temp_path("rpc_eq.sock"));
}

TEST(RpcServer, TcpRoundTripIsFarBelowTheDelayedAckFloor) {
  // Nagle plus the peer's delayed ACK held every small reply for about
  // 40 ms, and a 1 ms poll tick delayed it further. A loopback query on
  // a tiny dataset computes in microseconds.
  gs::svc::Service service(dataset());
  Server server(service);
  Client remote(server.endpoint());
  ASSERT_TRUE(remote.field_stats("U", 0).ok());  // dial outside the timing
  std::vector<double> seconds;
  for (int i = 0; i < 50; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(remote.field_stats(i % 2 ? "U" : "V", i % kSteps).ok());
    seconds.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  std::nth_element(seconds.begin(), seconds.begin() + 25, seconds.end());
  EXPECT_LT(seconds[25], 0.005) << "median round-trip";
  server.shutdown();
}

TEST(RpcServer, ErrorStatusesCrossTheWire) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());

  const auto bad = client.field_stats("NO_SUCH_VAR", 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code, svc::StatusCode::bad_request);
  EXPECT_FALSE(bad.status().message.empty());

  ClientConfig expired_config;
  expired_config.default_timeout_seconds = -1.0;  // already expired
  Client expired(server.endpoint(), expired_config);
  const auto late = expired.field_stats("U", 0);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code, svc::StatusCode::deadline_exceeded);
  server.shutdown();
}

TEST(RpcServer, PipelinedRequestsMultiplexById) {
  gs::svc::Service service(dataset());
  Server server(service);
  Socket sock = dial(server.endpoint(), 2000);

  constexpr std::uint64_t kFirstId = 100;
  constexpr int kPipelined = 12;
  for (int i = 0; i < kPipelined; ++i) {
    Frame frame;
    frame.type = FrameType::request;
    frame.id = kFirstId + static_cast<std::uint64_t>(i);
    frame.payload =
        encode_request(stats_request(i % 2 ? "U" : "V", i % kSteps));
    send_frame(sock, frame, 2000);
  }
  std::vector<bool> seen(kPipelined, false);
  for (int i = 0; i < kPipelined; ++i) {
    const auto reply = recv_frame(sock, 5000);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, FrameType::response);
    ASSERT_GE(reply->id, kFirstId);
    const auto slot = static_cast<std::size_t>(reply->id - kFirstId);
    ASSERT_LT(slot, seen.size());
    EXPECT_FALSE(seen[slot]) << "duplicate response id";
    seen[slot] = true;
    const svc::Response response = decode_response(reply->payload);
    EXPECT_TRUE(response.status.ok()) << response.status.message;
  }
  sock.close();
  server.shutdown();
  EXPECT_EQ(server.stats().responses, static_cast<std::uint64_t>(kPipelined));
}

TEST(RpcServer, ConnectionLimitRejectsWithReason) {
  gs::svc::Service service(dataset());
  ServerConfig config;
  config.max_connections = 1;
  Server server(service, config);

  Client first(server.endpoint());
  first.ping();  // occupy the only slot

  Socket second = dial(server.endpoint(), 2000);
  const auto reply = recv_frame(second, 5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::error_reply);
  EXPECT_NE(decode_text(reply->payload).find("busy"), std::string::npos);

  first.disconnect();
  server.shutdown();
  EXPECT_GE(server.stats().rejected_capacity, 1u);
}

TEST(RpcServer, StatsRpcReportsTransportAndService) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  ASSERT_TRUE(client.field_stats("U", 0).ok());

  const gs::json::Value doc = client.server_stats();
  EXPECT_EQ(doc.at("dataset").as_string(), dataset());
  EXPECT_EQ(doc.at("endpoint").as_string(), server.endpoint().str());
  const auto& rpc = doc.at("rpc");
  EXPECT_GE(rpc.at("requests").as_int(), 1);
  EXPECT_GE(rpc.at("latency_count").as_int(), 1);
  EXPECT_GE(rpc.at("latency_p99").as_double(),
            rpc.at("latency_p50").as_double());
  EXPECT_GE(doc.at("service").at("completed_ok").as_int(), 1);
  server.shutdown();
}

TEST(RpcServer, LoadSignalsReportQueueInflightAndDecayedRate) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.field_stats("U", 0).ok());
  }

  // The PR 10 load signals the resharding controller polls: admission
  // queue depth, settled in-flight count, and a decayed request rate
  // that must still be warm right after a burst.
  const auto stats = server.stats();
  EXPECT_GE(stats.requests, 8u);
  EXPECT_EQ(stats.inflight, 0u)
      << "every answered request must settle its in-flight count";
  EXPECT_GT(stats.rate_rps, 0.0)
      << "the decayed rate must reflect the burst that just finished";

  // The same three fields ride the stats RPC document (append-only JSON:
  // existing consumers keep working, the collector reads the new keys).
  const gs::json::Value doc = client.server_stats();
  const auto& rpc = doc.at("rpc");
  EXPECT_EQ(rpc.at("queue_depth").as_int(), 0);
  EXPECT_EQ(rpc.at("inflight").as_int(), 0);
  EXPECT_GT(rpc.at("rate_rps").as_double(), 0.0);
  // The serving epoch rides along too (0 = unsharded standalone daemon).
  EXPECT_EQ(doc.at("epoch").as_int(), 0);
  server.shutdown();
}

TEST(RpcServer, ShutdownDrainsInFlightRequests) {
  std::atomic<bool> release{false};
  gs::svc::ServiceConfig svc_config;
  svc_config.threads = 1;
  svc_config.before_execute = [&](const svc::Request&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  gs::svc::Service service(dataset(), std::move(svc_config));
  Server server(service);

  Client client(server.endpoint());
  std::optional<svc::Expected<svc::FieldStatsR>> result;
  std::thread caller([&] { result = client.field_stats("U", 1); });
  // Wait until the request is parked inside the service worker.
  while (service.metrics().submitted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&] { server.shutdown(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release = true;
  stopper.join();
  caller.join();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok()) << "in-flight request dropped at shutdown: "
                            << result->status().message;
}

// ---- injected transport faults ------------------------------------------

TEST(RpcFault, CorruptFrameDetectedCountedRetried) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  client.ping();  // establish the connection before arming the plan

  gs::fault::Plan plan;
  // Op 0 is the client's next request frame: it reaches the server with
  // a flipped payload byte, the server detects the CRC mismatch and
  // drops the connection, and the client's retry loop reconnects.
  plan.corrupt_at("rpc.frame_corrupt", 0, /*byte_offset=*/5);
  gs::fault::ScopedPlan scoped(plan);

  const auto r = client.field_stats("U", 0);
  ASSERT_TRUE(r.ok()) << r.status().message;
  EXPECT_GE(server.stats().crc_errors, 1u);
  server.shutdown();
}

TEST(RpcFault, TornServerWriteIsRetriedByClient) {
  gs::svc::Service service(dataset());
  Server server(service);
  Client client(server.endpoint());
  client.ping();

  gs::fault::Plan plan;
  // Op 0: the client's request goes out intact. Op 1: the server's
  // response tears between header and payload; the worker drops the
  // connection and the client reconnects and retries.
  plan.fail_at("rpc.write", 1);
  gs::fault::ScopedPlan scoped(plan);

  const auto r = client.field_stats("V", 1);
  ASSERT_TRUE(r.ok()) << r.status().message;
  EXPECT_GE(server.stats().io_errors, 1u);
  server.shutdown();
}

TEST(RpcFault, KilledConnectionIsCountedAndSurvived) {
  gs::svc::Service service(dataset());
  Server server(service);

  gs::fault::Plan plan;
  plan.kill_at("rpc.accept", 0);  // first accepted connection dies
  gs::fault::ScopedPlan scoped(plan);

  Client client(server.endpoint());
  client.ping();  // first dial is killed server-side; the retry succeeds
  EXPECT_GE(server.stats().killed_connections, 1u);
  server.shutdown();
}

// ---- live subscriptions --------------------------------------------------

gs::bp::StreamStep make_step(std::int64_t sequence) {
  gs::bp::StreamStep step;
  step.sequence = sequence;
  step.scalars["step"] = sequence * 10;
  gs::bp::StreamStep::ArrayVar var;
  var.shape = {2, 2, 1};
  var.blocks.push_back({0, Box3{{0, 0, 0}, {2, 2, 1}},
                        {0.0 + static_cast<double>(sequence), 1.0, 2.0, 3.0}});
  step.arrays["U"] = var;
  return step;
}

TEST(RpcStream, SubscriptionDeliversStepsInOrder) {
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(4);
  Server server(service, {}, &stream);
  Client client(server.endpoint());
  client.subscribe(/*credits=*/8);

  constexpr std::int64_t kPushed = 5;
  std::thread producer([&] {
    for (std::int64_t s = 0; s < kPushed; ++s) stream.push(make_step(s));
    stream.close();
  });

  std::int64_t expected = 0;
  while (const auto step = client.next_step(10000)) {
    EXPECT_EQ(step->sequence, expected);
    EXPECT_EQ(step->scalars.at("step"), expected * 10);
    EXPECT_EQ(step->arrays.at("U").blocks[0].data[0],
              static_cast<double>(expected));
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kPushed);
  EXPECT_EQ(client.gaps_detected(), 0u);
  EXPECT_EQ(client.stream_end().dropped, 0u);
  EXPECT_EQ(client.stream_end().reason, "end of stream");
  server.shutdown();
}

TEST(RpcStream, SlowConsumerDropsStepsInsteadOfStalling) {
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(2);
  Server server(service, {}, &stream);
  Client client(server.endpoint());
  client.subscribe(/*credits=*/1);

  constexpr std::int64_t kPushed = 6;
  std::atomic<bool> producer_done{false};
  std::thread producer([&] {
    for (std::int64_t s = 0; s < kPushed; ++s) stream.push(make_step(s));
    stream.close();
    producer_done = true;
  });
  // The client reads nothing yet; with one credit the bridge delivers
  // one step and must DROP the rest — the producer never blocks on a
  // lagging consumer.
  producer.join();
  EXPECT_TRUE(producer_done.load());

  std::uint64_t received = 0;
  while (client.next_step(10000)) ++received;
  EXPECT_EQ(received, 1u);
  EXPECT_EQ(client.stream_end().dropped,
            static_cast<std::uint64_t>(kPushed) - received);
  const auto stats = server.stats();
  EXPECT_EQ(stats.steps_streamed, received);
  EXPECT_EQ(stats.steps_dropped,
            static_cast<std::uint64_t>(kPushed) - received);
  server.shutdown();
}

// ---- tenant tag on the wire ----------------------------------------------

TEST(RpcWire, TenantTagRoundTripsAndVersionOneFramesStillDecode) {
  svc::Request request = stats_request("U", 1);
  request.tenant = "alice";
  const svc::Request back = decode_request(encode_request(request));
  EXPECT_EQ(back.tenant, "alice");
  ASSERT_TRUE(std::holds_alternative<svc::FieldStatsQ>(back.body));
  EXPECT_EQ(std::get<svc::FieldStatsQ>(back.body).variable, "U");

  // A frame from a pre-tenant peer simply ends earlier; the trailer is
  // append-only and its absence means "no tenant".
  auto bytes = encode_request(stats_request("U", 1));
  ASSERT_GE(bytes.size(), 1u);
  bytes.pop_back();  // strip the tenant-presence flag
  EXPECT_TRUE(decode_request(bytes).tenant.empty());
}

// ---- connection pool -----------------------------------------------------

TEST(RpcClientPool, ConcurrentLeaseReturnDiscardNeverDoubleLeases) {
  gs::svc::Service service(dataset());
  Server server(service);
  ClientPool pool(server.endpoint(), ClientConfig{}, /*max_idle=*/4);

  constexpr int kThreads = 8;
  constexpr int kIters = 24;
  std::mutex mu;
  std::set<Client*> leased;  // clients currently out on lease
  std::atomic<int> ok{0};
  std::atomic<int> discards{0};
  std::atomic<bool> double_lease{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        auto lease = pool.acquire();
        {
          const std::lock_guard<std::mutex> lock(mu);
          // The same Client handed to two leases at once would insert a
          // duplicate here.
          if (!leased.insert(&*lease).second) double_lease = true;
        }
        if (lease->field_stats("U", i % kSteps).ok()) ++ok;
        if ((t + i) % 5 == 0) {
          lease.discard();  // suspect connection: must not be pooled
          ++discards;
        }
        {
          const std::lock_guard<std::mutex> lock(mu);
          leased.erase(&*lease);
        }
        // ~Lease here: give_back happens-after the erase above, so a
        // recycled pointer can never look double-leased.
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_FALSE(double_lease.load());
  EXPECT_EQ(ok.load(), kThreads * kIters);
  EXPECT_TRUE(leased.empty());

  const auto st = pool.stats();
  // Every acquire was either a fresh dial or an idle-list pop, and every
  // discard really dropped its client (discarded clients are the only
  // ones that leave the pool besides the max_idle overflow trim).
  EXPECT_EQ(st.created + st.reused,
            static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(st.discarded, static_cast<std::uint64_t>(discards.load()));
  EXPECT_GT(st.reused, 0u);
  EXPECT_LE(st.idle, 4u);

  // The pool still serves healthy connections after all that churn.
  auto lease = pool.acquire();
  EXPECT_TRUE(lease->field_stats("V", 0).ok());
  server.shutdown();
}

TEST(RpcClientPool, RetiredPoolDiscardsEveryLeaseAndStillDialsFresh) {
  gs::svc::Service service(dataset());
  Server server(service);
  ClientPool pool(server.endpoint(), ClientConfig{}, /*max_idle=*/4);

  {
    auto lease = pool.acquire();
    lease->ping();
  }
  EXPECT_EQ(pool.stats().idle, 1u);

  {
    auto held = pool.acquire();  // in flight when the epoch retires
    held->ping();
    pool.retire();
    EXPECT_TRUE(pool.retired());
    EXPECT_EQ(pool.stats().idle, 0u) << "idle connections close immediately";
    // The lease keeps working mid-flip — the query pinned to the old
    // epoch completes on its old connection...
    EXPECT_TRUE(held->field_stats("U", 0).ok());
  }
  // ...but on return it is DISCARDED, never pooled: a connection leased
  // under a retired epoch can never resurface to serve the next one.
  EXPECT_EQ(pool.stats().idle, 0u);
  EXPECT_EQ(pool.stats().discarded, 1u);

  // acquire() still works (each call dials fresh) so mid-flip failover
  // keeps its transport; the fresh connection is discarded on return too.
  {
    auto fresh = pool.acquire();
    EXPECT_TRUE(fresh->field_stats("V", 0).ok());
  }
  EXPECT_EQ(pool.stats().idle, 0u);
  EXPECT_EQ(pool.stats().discarded, 2u);
  server.shutdown();
}

// ---- reload_map admin RPC ------------------------------------------------

TEST(RpcAdmin, ReloadMapRequiresTokenAndHook) {
  gs::svc::Service service(dataset());
  // A refusal surfaces as IoError, which the client's transport retry
  // loop would re-send; one attempt keeps the refusal counters exact.
  ClientConfig once;
  once.retries = 1;

  // No admin token configured: the verb is disabled outright.
  {
    Server server(service);
    Client client(server.endpoint(), once);
    EXPECT_THROW(client.reload_map("any"), gs::IoError);
    EXPECT_EQ(server.stats().reloads_refused, 1u);
    EXPECT_EQ(server.stats().reloads, 0u);
    server.shutdown();
  }

  std::atomic<int> hook_calls{0};
  std::atomic<bool> hook_throws{false};
  ServerConfig config;
  config.admin_token = "sesame";
  config.reload_hook = [&]() -> gs::json::Value {
    ++hook_calls;
    if (hook_throws.load()) {
      GS_THROW(gs::Error, "candidate map rejected");
    }
    gs::json::Object o;
    o["epoch_to"] = gs::json::Value(std::int64_t{2});
    return gs::json::Value(std::move(o));
  };
  Server server(service, config);
  Client client(server.endpoint(), once);

  // Wrong token: refused BEFORE the hook runs.
  EXPECT_THROW(client.reload_map("wrong"), gs::IoError);
  EXPECT_EQ(hook_calls.load(), 0);
  EXPECT_EQ(server.stats().reloads_refused, 1u);

  // Right token: the hook's JSON report comes back verbatim.
  const gs::json::Value report = client.reload_map("sesame");
  EXPECT_EQ(report.at("epoch_to").as_int(), 2);
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_EQ(server.stats().reloads, 1u);

  // A hook that throws (map rejected) surfaces the reason to the admin
  // and counts as refused — the old epoch keeps serving.
  hook_throws = true;
  try {
    client.reload_map("sesame");
    FAIL() << "a rejected reload must surface as an error";
  } catch (const gs::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("rejected"), std::string::npos);
  }
  EXPECT_EQ(server.stats().reloads_refused, 2u);
  EXPECT_EQ(server.stats().reloads, 1u);

  // The connection survives a refusal: normal queries keep flowing.
  EXPECT_TRUE(client.field_stats("U", 0).ok());
  server.shutdown();
}

TEST(RpcStream, SubscribeWithoutLiveStreamIsRefused) {
  gs::svc::Service service(dataset());
  Server server(service);  // no live stream
  Client client(server.endpoint());
  EXPECT_THROW(client.subscribe(), gs::IoError);
  server.shutdown();
}

TEST(RpcStream, ShutdownAbandonsStreamSoProducersFailCleanly) {
  gs::svc::Service service(dataset());
  gs::bp::Stream stream(1);
  auto server = std::make_unique<Server>(service, ServerConfig{}, &stream);

  std::atomic<bool> caught{false};
  std::thread producer([&] {
    try {
      for (std::int64_t s = 0;; ++s) stream.push(make_step(s));
    } catch (const gs::IoError&) {
      caught = true;  // "stream abandoned: ..." — the clean failure mode
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->shutdown();
  producer.join();
  EXPECT_TRUE(caught.load());
  EXPECT_TRUE(stream.abandoned());
}

}  // namespace
