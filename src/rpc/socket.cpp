#include "rpc/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace gs::rpc {

namespace {

using SteadyClock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  GS_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             "fcntl(O_NONBLOCK) failed: " << std::strerror(errno));
}

/// Disables Nagle on a TCP socket. Every frame leaves in one write, so
/// coalescing only ever delays it: with Nagle on, a small reply waits
/// for the peer's delayed ACK (about 40 ms on Linux). IoError on
/// failure: it concerns one connection, which callers already drop on
/// transport errors.
void set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    GS_THROW(IoError, "setsockopt(TCP_NODELAY) failed: "
                      << std::strerror(errno));
  }
}

/// Overall deadline for one logical operation, translated into per-poll
/// millisecond budgets. The two documented contracts for a non-positive
/// timeout differ, so the caller picks: `unbounded` (write_all /
/// read_exact / dial: no deadline) or `immediate` (wait_readable /
/// accept: a zero-budget deadline — poll once without waiting).
class Deadline {
 public:
  enum class ZeroMeans { unbounded, immediate };

  explicit Deadline(std::int64_t timeout_ms,
                    ZeroMeans zero = ZeroMeans::unbounded)
      : has_(timeout_ms > 0 || zero == ZeroMeans::immediate),
        end_(SteadyClock::now() + std::chrono::milliseconds(
                                      timeout_ms > 0 ? timeout_ms : 0)) {}

  bool expired() const { return has_ && SteadyClock::now() >= end_; }

  /// Remaining budget for poll(2): -1 = wait forever, 0 = expired.
  /// Rounds up: truncating a 0.9 ms remainder to 0 would spin poll(0)
  /// until the deadline instead of sleeping through it.
  int poll_ms() const {
    if (!has_) return -1;
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        end_ - SteadyClock::now());
    if (left.count() <= 0) return 0;
    return static_cast<int>(left.count());
  }

 private:
  bool has_;
  SteadyClock::time_point end_;
};

/// Waits for `events` on fd; true when ready, false on deadline expiry.
/// Always polls at least once, so an already-expired (zero-budget)
/// deadline still reports readiness that is pending right now.
bool poll_for(int fd, short events, const Deadline& deadline) {
  for (;;) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int rc = ::poll(&pfd, 1, deadline.poll_ms());
    if (rc > 0) return true;
    if (rc == 0) {
      if (deadline.expired()) return false;
      continue;  // woke a hair early: poll again for the remainder
    }
    if (errno == EINTR) continue;
    GS_THROW(IoError, "poll failed: " << std::strerror(errno));
  }
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  GS_REQUIRE(path.size() < sizeof(addr.sun_path),
             "unix socket path too long (" << path.size() << " bytes): "
                                           << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in inet_addr_of(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  GS_REQUIRE(::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) == 1,
             "not an IPv4 address: \"" << ep.host << "\"");
  return addr;
}

}  // namespace

// ---------------------------------------------------------------- Endpoint

Endpoint Endpoint::parse(const std::string& text) {
  Endpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.unix_domain = true;
    ep.path = text.substr(5);
    if (ep.path.empty()) {
      GS_THROW(ParseError, "empty unix socket path in \"" << text << "\"");
    }
    return ep;
  }
  const auto colon = text.rfind(':');
  if (colon == std::string::npos) {
    GS_THROW(ParseError, "endpoint \"" << text
                         << "\" is neither host:port nor unix:/path");
  }
  ep.host = text.substr(0, colon);
  if (ep.host.empty() || ep.host == "localhost") ep.host = "127.0.0.1";
  const std::string port_str = text.substr(colon + 1);
  char* end = nullptr;
  const long port = std::strtol(port_str.c_str(), &end, 10);
  if (port_str.empty() || *end != '\0' || port < 0 || port > 65535) {
    GS_THROW(ParseError, "bad port \"" << port_str << "\" in endpoint \""
                                       << text << "\"");
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::string Endpoint::str() const {
  if (unix_domain) return "unix:" + path;
  return host + ":" + std::to_string(port);
}

// ------------------------------------------------------------------ Socket

Socket::Socket(int fd) : fd_(fd) { set_nonblocking(fd_); }

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::write_all(std::span<const std::byte> data,
                       std::int64_t timeout_ms) {
  write_all(data, {}, timeout_ms);
}

void Socket::write_all(std::span<const std::byte> head,
                       std::span<const std::byte> body,
                       std::int64_t timeout_ms) {
  // IoError (not a bare requirement failure): racing against a close is
  // a transport condition callers already handle, not a programming bug.
  if (!valid()) GS_THROW(IoError, "write on a closed socket");
  const Deadline deadline(timeout_ms);
  const std::size_t total = head.size() + body.size();
  std::size_t off = 0;
  while (off < total) {
    // What is left of head, then what is left of body.
    iovec iov[2];
    std::size_t n_iov = 0;
    const auto push = [&](std::span<const std::byte> part) {
      if (part.empty()) return;
      iov[n_iov].iov_base = const_cast<std::byte*>(part.data());
      iov[n_iov].iov_len = part.size();
      ++n_iov;
    };
    if (off < head.size()) {
      push(head.subspan(off));
      push(body);
    } else {
      push(body.subspan(off - head.size()));
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n_iov;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!poll_for(fd_, POLLOUT, deadline)) {
        GS_THROW(IoError, "socket write timed out after " << timeout_ms
                          << " ms (" << off << "/" << total
                          << " bytes sent)");
      }
      continue;
    }
    GS_THROW(IoError, "socket write failed: " << std::strerror(errno));
  }
}

bool Socket::read_exact(std::span<std::byte> data, std::int64_t timeout_ms) {
  if (!valid()) GS_THROW(IoError, "read on a closed socket");
  const Deadline deadline(timeout_ms);
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::recv(fd_, data.data() + off, data.size() - off, 0);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (off == 0) return false;  // clean EOF between messages
      GS_THROW(IoError, "unexpected EOF mid-message (" << off << "/"
                        << data.size() << " bytes)");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_for(fd_, POLLIN, deadline)) {
        GS_THROW(IoError, "socket read timed out after " << timeout_ms
                          << " ms (" << off << "/" << data.size()
                          << " bytes received)");
      }
      continue;
    }
    GS_THROW(IoError, "socket read failed: " << std::strerror(errno));
  }
  return true;
}

bool Socket::wait_readable(std::int64_t timeout_ms) {
  if (!valid()) GS_THROW(IoError, "wait on a closed socket");
  return poll_for(fd_, POLLIN,
                  Deadline(timeout_ms, Deadline::ZeroMeans::immediate));
}

// ---------------------------------------------------------------- Listener

Listener::~Listener() { close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), endpoint_(std::move(other.endpoint_)) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    other.fd_ = -1;
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (endpoint_.unix_domain) ::unlink(endpoint_.path.c_str());
  }
}

Listener Listener::bind_listen(const Endpoint& endpoint, int backlog) {
  Listener listener;
  listener.endpoint_ = endpoint;
  const int domain = endpoint.unix_domain ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) {
    GS_THROW(IoError, "socket() failed: " << std::strerror(errno));
  }
  listener.fd_ = fd;
  int rc = 0;
  if (endpoint.unix_domain) {
    ::unlink(endpoint.path.c_str());  // replace a stale socket file
    const sockaddr_un addr = unix_addr(endpoint.path);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } else {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = inet_addr_of(endpoint);
    rc = ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0) {
    GS_THROW(IoError, "bind(" << endpoint.str()
                      << ") failed: " << std::strerror(errno));
  }
  if (::listen(fd, backlog) != 0) {
    GS_THROW(IoError, "listen(" << endpoint.str()
                      << ") failed: " << std::strerror(errno));
  }
  if (!endpoint.unix_domain) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    GS_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&bound),
                             &len) == 0,
               "getsockname failed: " << std::strerror(errno));
    listener.endpoint_.port = ntohs(bound.sin_port);
  }
  set_nonblocking(fd);
  return listener;
}

std::optional<Socket> Listener::accept(std::int64_t timeout_ms) {
  if (!valid()) GS_THROW(IoError, "accept on a closed listener");
  const Deadline deadline(timeout_ms, Deadline::ZeroMeans::immediate);
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      Socket sock(fd);
      if (!endpoint_.unix_domain) set_nodelay(fd);
      return sock;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!poll_for(fd_, POLLIN, deadline)) return std::nullopt;
      continue;
    }
    // Transient per-connection failures (peer gone between SYN and
    // accept) are not acceptor failures.
    if (errno == ECONNABORTED) continue;
    GS_THROW(IoError, "accept failed: " << std::strerror(errno));
  }
}

// -------------------------------------------------------------------- dial

Socket dial(const Endpoint& endpoint, std::int64_t timeout_ms) {
  const int domain = endpoint.unix_domain ? AF_UNIX : AF_INET;
  const int fd = ::socket(domain, SOCK_STREAM, 0);
  if (fd < 0) {
    GS_THROW(IoError, "socket() failed: " << std::strerror(errno));
  }
  Socket sock(fd);  // owns + nonblocking from here
  if (!endpoint.unix_domain) set_nodelay(fd);

  int rc = 0;
  if (endpoint.unix_domain) {
    const sockaddr_un addr = unix_addr(endpoint.path);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } else {
    const sockaddr_in addr = inet_addr_of(endpoint);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  }
  if (rc != 0 && errno != EINPROGRESS) {
    GS_THROW(IoError, "connect(" << endpoint.str()
                      << ") failed: " << std::strerror(errno));
  }
  if (rc != 0) {
    const Deadline deadline(timeout_ms);
    if (!poll_for(fd, POLLOUT, deadline)) {
      GS_THROW(IoError, "connect(" << endpoint.str() << ") timed out after "
                        << timeout_ms << " ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    GS_REQUIRE(::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0,
               "getsockopt(SO_ERROR) failed: " << std::strerror(errno));
    if (err != 0) {
      GS_THROW(IoError, "connect(" << endpoint.str()
                        << ") failed: " << std::strerror(err));
    }
  }
  return sock;
}

}  // namespace gs::rpc
