// gs::rpc wire protocol — length-prefixed, CRC-framed binary frames over
// a stream socket, carrying the gs::svc query types and live bp::Stream
// steps. The codecs reuse svc::query.h / bp::stream.h types directly so
// a decoded remote answer is the same C++ value as the in-process one —
// "bitwise-identical" is testable by encoding both and comparing bytes.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   ------  ----  ----------------------------------------------------
//        0     4  magic        0x47535250 ("GSRP" big-endian in memory)
//        4     2  version      protocol version (currently 1)
//        6     2  type         FrameType
//        8     8  id           request-id multiplexing token; a response
//                              echoes the request's id, push frames
//                              (stream_step, stream_end) carry 0
//       16     4  payload_len  bytes following the header (< 1 GiB
//                              globally; tighter per-type caps apply —
//                              see max_payload_of)
//       20     4  payload_crc  gs::crc32 of the payload bytes
//       24     …  payload      type-specific encoding (see codecs)
//
// Versioning: a receiver rejects frames whose magic or version mismatch
// with a clean IoError — old clients fail fast against new servers
// instead of misparsing. The payload encoding may only grow by appending
// fields within a version; incompatible changes bump `version`.
//
// Fault sites: "rpc.read" (before each frame receive), "rpc.write"
// (once per frame send; a frame normally leaves in one gather write, but
// one this site fires on sends its header first, so a `fail` here leaves
// a torn frame on the wire), "rpc.frame_corrupt" (flips a payload byte
// after the CRC is computed, so the receiver must detect it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bp/stream.h"
#include "common/error.h"
#include "rpc/socket.h"
#include "svc/query.h"

namespace gs::rpc {

inline constexpr std::uint32_t kMagic = 0x47535250;  // "GSRP"
inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::uint32_t kMaxPayload = 1u << 30;

/// CRC mismatch between a frame's header and its payload — a torn or
/// corrupted frame. An IoError (transient: resend/reconnect heals it),
/// counted separately by the server.
class CrcError : public IoError {
 public:
  explicit CrcError(const std::string& what) : IoError(what) {}
};

enum class FrameType : std::uint16_t {
  request = 1,      ///< svc::Request                  (client -> server)
  response = 2,     ///< svc::Response                 (server -> client)
  stats = 3,        ///< empty: ask for the stats JSON (client -> server)
  stats_reply = 4,  ///< UTF-8 JSON string             (server -> client)
  subscribe = 5,    ///< u64 initial credits           (client -> server)
  sub_ok = 6,       ///< empty: subscription accepted  (server -> client)
  stream_step = 7,  ///< bp::StreamStep                (server -> client)
  stream_end = 8,   ///< StreamEnd                     (server -> client)
  credit = 9,       ///< u64 additional credits        (client -> server)
  error_reply = 10, ///< UTF-8 reason string           (server -> client)
  ping = 11,        ///< empty                         (client -> server)
  pong = 12,        ///< empty                         (server -> client)
  reload_map = 13,  ///< admin token string: re-check the shard map file
                    ///  and adopt a new epoch          (client -> server)
  reload_reply = 14,  ///< UTF-8 JSON reload report    (server -> client)
};

const char* to_string(FrameType type);

/// Receiver-side payload cap for one frame type. Client-to-server frames
/// are tiny by construction (a request is a query description, subscribe
/// and credit carry one u64), so the server never trusts a header
/// promising more — without this, 24 header bytes per connection could
/// pin kMaxPayload of buffer each, a cheap remote memory-exhaustion
/// vector on a 0.0.0.0 listener. Bulk server-to-client frames (response,
/// stream_step, ...) keep the global kMaxPayload bound. Caps leave slack
/// over the current encodings so appending fields within a protocol
/// version stays compatible.
std::uint32_t max_payload_of(FrameType type);

struct Frame {
  FrameType type = FrameType::ping;
  std::uint64_t id = 0;
  std::vector<std::byte> payload;
};

/// End-of-subscription notice: how many steps this connection lost to
/// the slow-consumer drop policy, and why the stream ended.
struct StreamEnd {
  std::uint64_t dropped = 0;
  std::string reason;
};

// ---- byte-level encoding -------------------------------------------------

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);  ///< bit pattern, exact round-trip
  void str(const std::string& s);
  void doubles(std::span<const double> v);  ///< u64 count + raw payload

  const std::vector<std::byte>& bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked little-endian reader; throws gs::ParseError on overrun
/// (a short frame must never read garbage).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  std::vector<double> doubles();

  bool exhausted() const { return off_ == data_.size(); }

 private:
  std::span<const std::byte> need(std::size_t n);

  std::span<const std::byte> data_;
  std::size_t off_ = 0;
};

// ---- codecs --------------------------------------------------------------

std::vector<std::byte> encode_request(const svc::Request& request);
svc::Request decode_request(std::span<const std::byte> payload);

/// Response id is NOT on the wire — multiplexing uses the frame header
/// id; the decoder leaves Response::id at 0 for the caller to stamp.
std::vector<std::byte> encode_response(const svc::Response& response);
svc::Response decode_response(std::span<const std::byte> payload);

/// Canonical bytes of a response's *answer identity* — (verb, status
/// code, body) without ids or timings. Two responses answer a query
/// identically iff their identity bytes match; the load bench CRCs this.
std::vector<std::byte> encode_answer_identity(const svc::Response& response);

std::vector<std::byte> encode_stream_step(const bp::StreamStep& step);
bp::StreamStep decode_stream_step(std::span<const std::byte> payload);

std::vector<std::byte> encode_stream_end(const StreamEnd& end);
StreamEnd decode_stream_end(std::span<const std::byte> payload);

/// error_reply / stats_reply carry a bare UTF-8 string payload.
std::vector<std::byte> encode_text(const std::string& text);
std::string decode_text(std::span<const std::byte> payload);

std::vector<std::byte> encode_u64(std::uint64_t v);
std::uint64_t decode_u64(std::span<const std::byte> payload);

// ---- framed socket I/O ---------------------------------------------------

/// Sends one frame (header + CRC'd payload) within `timeout_ms`, as one
/// gather write of header and payload (no copy joins them). Returns
/// bytes put on the wire. Fault sites: "rpc.write" (torn frame),
/// "rpc.frame_corrupt" (payload byte flip the receiver must catch).
std::size_t send_frame(Socket& socket, const Frame& frame,
                       std::int64_t timeout_ms);

/// Receives one frame. nullopt on clean EOF before a header byte;
/// throws CrcError on payload corruption, gs::IoError on torn frames,
/// timeouts, or header mismatch. Fault site: "rpc.read".
std::optional<Frame> recv_frame(Socket& socket, std::int64_t timeout_ms);

}  // namespace gs::rpc
