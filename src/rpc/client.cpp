#include "rpc/client.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "fault/fault.h"

namespace gs::rpc {

namespace {
using SteadyClock = std::chrono::steady_clock;

fault::RetryPolicy retry_policy(const ClientConfig& config) {
  fault::RetryPolicy policy;
  policy.attempts = config.retries;
  policy.backoff_seconds = config.backoff_ms / 1000.0;
  return policy;
}
}  // namespace

Client::Client(Endpoint endpoint, ClientConfig config)
    : endpoint_(std::move(endpoint)), config_(config) {}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  sock_.close();
  subscribed_ = false;
}

void Client::ensure_connected() {
  if (sock_.valid()) return;
  sock_ = dial(endpoint_, config_.connect_timeout_ms);
}

std::uint64_t Client::post(FrameType type, std::vector<std::byte> payload) {
  try {
    ensure_connected();
    Frame frame;
    frame.type = type;
    frame.id = next_id_++;
    frame.payload = std::move(payload);
    send_frame(sock_, frame, config_.io_timeout_ms);
    return frame.id;
  } catch (const IoError&) {
    disconnect();  // the next attempt reconnects from scratch
    throw;
  }
}

Frame Client::await(std::uint64_t id, FrameType want) try {
  const bool bounded = config_.call_timeout_ms > 0;
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(bounded ? config_.call_timeout_ms : 0);
  for (;;) {
    std::int64_t slice = 100;
    if (bounded) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - SteadyClock::now())
              .count();
      if (left <= 0) {
        GS_THROW(IoError, "rpc call timed out after "
                          << config_.call_timeout_ms
                          << " ms awaiting a " << to_string(want)
                          << " frame");
      }
      slice = std::min<std::int64_t>(slice, left);
    }
    if (!sock_.wait_readable(slice)) continue;
    auto frame = recv_frame(sock_, config_.io_timeout_ms);
    if (!frame) {
      GS_THROW(IoError, "connection closed while awaiting a "
                        << to_string(want) << " frame");
    }
    if (frame->type == FrameType::error_reply) {
      GS_THROW(IoError, "server error: " << decode_text(frame->payload));
    }
    if (frame->type == want && frame->id == id) return std::move(*frame);
    // Anything else is stale (a reply to an abandoned earlier attempt)
    // or an out-of-band push; drop it and keep waiting.
  }
} catch (const IoError&) {
  disconnect();
  throw;
}

Frame Client::transact(FrameType type, const std::vector<std::byte>& payload,
                       FrameType want) {
  std::optional<Frame> out;
  fault::with_retries(retry_policy(config_), "rpc.client",
                      [&] { out = await(post(type, payload), want); });
  return std::move(*out);
}

std::uint64_t Client::send(const svc::Request& request) {
  return post(FrameType::request, encode_request(request));
}

svc::Response Client::receive(std::uint64_t id) {
  const Frame reply = await(id, FrameType::response);
  svc::Response response = decode_response(reply.payload);
  response.id = id;
  return response;
}

svc::Response Client::call(svc::Request request) {
  svc::Response response;
  fault::with_retries(retry_policy(config_), "rpc.client",
                      [&] { response = receive(send(request)); });
  last_ = response;
  return response;
}

json::Value Client::server_stats() {
  const Frame reply =
      transact(FrameType::stats, {}, FrameType::stats_reply);
  return json::parse(decode_text(reply.payload));
}

json::Value Client::reload_map(const std::string& token) {
  const Frame reply = transact(FrameType::reload_map, encode_text(token),
                               FrameType::reload_reply);
  return json::parse(decode_text(reply.payload));
}

void Client::ping() { transact(FrameType::ping, {}, FrameType::pong); }

template <typename R>
svc::Expected<R> Client::roundtrip(svc::QueryBody body) {
  svc::Request request;
  request.body = std::move(body);
  request.timeout_seconds = config_.default_timeout_seconds;
  request.tenant = config_.tenant;
  svc::Response response = call(std::move(request));
  if (!response.status.ok()) return svc::Expected<R>(response.status);
  return svc::Expected<R>(std::get<R>(std::move(response.body)));
}

svc::Expected<svc::ListVariablesR> Client::list_variables() {
  return roundtrip<svc::ListVariablesR>(svc::ListVariablesQ{});
}

svc::Expected<svc::FieldStatsR> Client::field_stats(
    const std::string& variable, std::int64_t step) {
  return roundtrip<svc::FieldStatsR>(svc::FieldStatsQ{variable, step});
}

svc::Expected<svc::HistogramR> Client::histogram(const std::string& variable,
                                                 std::int64_t step,
                                                 std::size_t bins) {
  return roundtrip<svc::HistogramR>(svc::HistogramQ{variable, step, bins});
}

svc::Expected<svc::Slice2DR> Client::slice2d(const std::string& variable,
                                             std::int64_t step, int axis,
                                             std::int64_t coord) {
  return roundtrip<svc::Slice2DR>(svc::Slice2DQ{variable, step, axis, coord});
}

svc::Expected<svc::ReadBoxR> Client::read_box(const std::string& variable,
                                              std::int64_t step,
                                              const Box3& box) {
  return roundtrip<svc::ReadBoxR>(svc::ReadBoxQ{variable, step, box});
}

void Client::subscribe(std::uint64_t credits) {
  GS_REQUIRE(credits >= 1, "subscription needs at least one credit");
  transact(FrameType::subscribe, encode_u64(credits), FrameType::sub_ok);
  subscribed_ = true;
  ended_ = false;
  expected_seq_ = -1;
  gaps_ = 0;
  end_ = StreamEnd{};
}

std::optional<bp::StreamStep> Client::next_step(std::int64_t timeout_ms) {
  GS_REQUIRE(subscribed_, "next_step() without subscribe()");
  if (ended_) return std::nullopt;

  const bool bounded = timeout_ms > 0;
  const auto deadline =
      SteadyClock::now() +
      std::chrono::milliseconds(bounded ? timeout_ms : 0);
  for (;;) {
    std::int64_t slice = 100;
    if (bounded) {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - SteadyClock::now())
              .count();
      if (left <= 0) {
        GS_THROW(IoError, "timed out after " << timeout_ms
                          << " ms waiting for a live step");
      }
      slice = std::min<std::int64_t>(slice, left);
    }
    if (!sock_.wait_readable(slice)) continue;
    const auto frame = recv_frame(sock_, config_.io_timeout_ms);
    if (!frame) {
      ended_ = true;
      end_.reason = "connection closed";
      return std::nullopt;
    }
    if (frame->type == FrameType::stream_step) {
      bp::StreamStep step = decode_stream_step(frame->payload);
      if (expected_seq_ >= 0 && step.sequence > expected_seq_) {
        gaps_ += static_cast<std::uint64_t>(step.sequence - expected_seq_);
      }
      expected_seq_ = step.sequence + 1;
      // Replenish the window: one credit per consumed step keeps the
      // server's view of our capacity accurate.
      Frame credit;
      credit.type = FrameType::credit;
      credit.payload = encode_u64(1);
      send_frame(sock_, credit, config_.io_timeout_ms);
      return step;
    }
    if (frame->type == FrameType::stream_end) {
      end_ = decode_stream_end(frame->payload);
      ended_ = true;
      return std::nullopt;
    }
    // Stale query replies etc.: ignore.
  }
}

}  // namespace gs::rpc
