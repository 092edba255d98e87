#include "phes/server/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "net_util.hpp"
#include "phes/server/server.hpp"
#include "phes/util/timer.hpp"

namespace phes::server {

namespace {

using detail::make_unix_address;
using detail::ReadLine;
using detail::throw_errno;
using detail::write_line;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

/// Line bound for connections that have not authenticated yet: the
/// auth op is under 100 bytes, so nothing pre-auth may buffer the full
/// max_line_bytes — that would let a tokenless remote peer park MiBs
/// per connection.
constexpr std::size_t kPreAuthMaxLineBytes = 4096;

}  // namespace

bool tokens_equal(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  unsigned char diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<unsigned char>(
        diff | (static_cast<unsigned char>(a[i]) ^
                static_cast<unsigned char>(b[i])));
  }
  return diff == 0;
}

const std::string& Transport::auth_token() const noexcept {
  static const std::string empty;
  return empty;
}

// ---- UnixTransport ----------------------------------------------------

UnixTransport::UnixTransport(std::string path) : path_(std::move(path)) {}

int UnixTransport::open_listener() {
  const sockaddr_un addr = make_unix_address(path_);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  // A leftover socket file from a crashed server would fail the bind;
  // probe it with a connect so a *live* server is never displaced.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    if (errno != EADDRINUSE) {
      ::close(fd);
      throw_errno("bind(" + path_ + ")");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool alive =
        probe >= 0 &&
        ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0;
    if (probe >= 0) ::close(probe);
    if (alive) {
      ::close(fd);
      throw std::runtime_error("socket '" + path_ +
                               "' already has a live server");
    }
    ::unlink(path_.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
        0) {
      ::close(fd);
      throw_errno("bind(" + path_ + ")");
    }
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    ::unlink(path_.c_str());
    throw_errno("listen(" + path_ + ")");
  }
  try {
    set_nonblocking(fd);
  } catch (...) {
    // Leaking a bound listener would wedge every same-path restart:
    // the liveness probe would find it "alive" forever.
    ::close(fd);
    ::unlink(path_.c_str());
    throw;
  }
  bound_ = true;
  return fd;
}

void UnixTransport::close_listener() {
  if (bound_) {
    ::unlink(path_.c_str());
    bound_ = false;
  }
}

std::string UnixTransport::endpoint() const { return "unix:" + path_; }

// ---- TcpTransport -----------------------------------------------------

TcpTransport::TcpTransport(std::string host, std::uint16_t port,
                           std::string token)
    : host_(std::move(host)), port_(port), token_(std::move(token)) {}

int TcpTransport::open_listener() {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* info = nullptr;
  const std::string service = std::to_string(port_);
  const int rc = ::getaddrinfo(host_.empty() ? nullptr : host_.c_str(),
                               service.c_str(), &hints, &info);
  if (rc != 0) {
    throw std::runtime_error("getaddrinfo(" + host_ +
                             "): " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string error = "no usable address for '" + host_ + "'";
  for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error = std::string("socket(): ") + std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 128) == 0) {
      break;
    }
    error = "bind/listen(" + endpoint() + "): " + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(info);
  if (fd < 0) throw std::runtime_error(error);

  sockaddr_in bound_addr{};
  socklen_t len = sizeof bound_addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound_addr), &len) ==
      0) {
    bound_ = ntohs(bound_addr.sin_port);
  } else {
    bound_ = port_;
  }
  try {
    set_nonblocking(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return fd;
}

void TcpTransport::configure_connection(int fd) noexcept {
  // Request/response over discrete lines: never let Nagle hold a
  // response (or the tail of a partially-written one) for the ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::string TcpTransport::endpoint() const {
  return "tcp:" + host_ + ":" +
         std::to_string(bound_ != 0 ? bound_ : port_);
}

// ---- TransportServer --------------------------------------------------

TransportServer::TransportServer(
    JobServer& server, std::vector<std::unique_ptr<Transport>> transports,
    TransportLimits limits)
    : server_(server), transports_(std::move(transports)), limits_(limits) {
  if (transports_.empty()) {
    throw std::runtime_error("TransportServer: no transports");
  }
  resolve_instruments();
}

TransportServer::TransportServer(JobServer& server,
                                 std::unique_ptr<Transport> transport,
                                 TransportLimits limits)
    : server_(server), limits_(limits) {
  transports_.push_back(std::move(transport));
  resolve_instruments();
}

void TransportServer::resolve_instruments() {
  obs::MetricsRegistry& registry = server_.metrics_registry();
  accepted_ctr_ = &registry.counter("phes_transport_accepted_total");
  requests_ctr_ = &registry.counter("phes_transport_requests_total");
  auth_failures_ctr_ =
      &registry.counter("phes_transport_auth_failures_total");
  oversized_ctr_ = &registry.counter("phes_transport_oversized_lines_total");
  spawn_failures_ctr_ =
      &registry.counter("phes_transport_spawn_failures_total");
  open_connections_gauge_ =
      &registry.gauge("phes_transport_open_connections");
  accept_to_auth_hist_ =
      &registry.histogram("phes_transport_accept_to_auth_seconds");
  handle_hist_ = &registry.histogram("phes_transport_inline_handle_seconds");
}

TransportServer::~TransportServer() { stop(); }

void TransportServer::start() {
  listen_fds_.clear();
  // Any failure below must release everything already acquired: a
  // half-started server would leak fds AND leave a bound unix socket
  // file whose leaked listener answers the next start()'s liveness
  // probe, wedging every retry on that path.
  try {
    for (const auto& transport : transports_) {
      listen_fds_.push_back(transport->open_listener());
    }
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) throw_errno("eventfd()");
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    accept_thread_ = std::thread([this] { accept_loop(); });
  } catch (...) {
    for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
      ::close(listen_fds_[i]);
      transports_[i]->close_listener();
    }
    listen_fds_.clear();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (reserve_fd_ >= 0) ::close(reserve_fd_);
    wake_fd_ = reserve_fd_ = -1;
    throw;
  }
  started_ = true;
}

void TransportServer::stop() {
  if (!started_) return;
  if (!stopping_.exchange(true)) {
    wake();
    accept_thread_.join();
    for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
      ::close(listen_fds_[i]);
      transports_[i]->close_listener();
    }
    listen_fds_.clear();
    // Unblock every connection thread's read or write; each fd stays
    // open (so its number cannot be reused) until its thread is joined.
    for (Connection& conn : connections_) ::shutdown(conn.fd, SHUT_RDWR);
    for (Connection& conn : connections_) {
      conn.thread.join();
      ::close(conn.fd);
    }
    connections_.clear();
    open_connections_gauge_->set(0);
    ::close(wake_fd_);
    if (reserve_fd_ >= 0) ::close(reserve_fd_);
    wake_fd_ = reserve_fd_ = -1;
    note_shutdown(true);  // release wait_shutdown() on local stop
  }
}

void TransportServer::wake() {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_, &one, sizeof one);
}

void TransportServer::accept_loop() {
  std::vector<pollfd> fds{{wake_fd_, POLLIN, 0}};
  for (const int fd : listen_fds_) fds.push_back({fd, POLLIN, 0});
  for (;;) {
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents != 0) {
      std::uint64_t count = 0;
      (void)!::read(wake_fd_, &count, sizeof count);
      if (stopping_.load(std::memory_order_acquire)) return;
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) != 0) accept_ready(i - 1);
    }
    reap_finished();
  }
}

void TransportServer::accept_ready(std::size_t listener_index) {
  for (;;) {
    const int fd = ::accept4(listen_fds_[listener_index], nullptr, nullptr,
                             SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion: the pending connection stays queued and the
        // level-triggered listener readiness would refire every poll
        // (a 100% CPU spin).  Shed it through the reserve descriptor:
        // free the reserve, accept+close the connection, re-arm.
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          const int shed =
              ::accept(listen_fds_[listener_index], nullptr, nullptr);
          if (shed >= 0) ::close(shed);
          reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        }
        return;
      }
      return;  // EAGAIN (drained) or listener failure
    }
    accepted_ctr_->add();
    Transport& transport = *transports_[listener_index];
    transport.configure_connection(fd);
    Connection& conn = connections_.emplace_back();
    conn.fd = fd;
    conn.transport = &transport;
    try {
      conn.thread = std::thread([this, &conn] { serve(conn); });
    } catch (const std::system_error&) {
      // No thread will ever own this fd: close it here.
      ::close(fd);
      connections_.pop_back();
      spawn_failures_ctr_->add();
      continue;
    }
    open_connections_gauge_->add();
  }
}

void TransportServer::reap_finished() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (!it->finished.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    it->thread.join();
    ::close(it->fd);
    open_connections_gauge_->sub();
    it = connections_.erase(it);
  }
}

void TransportServer::serve(Connection& conn) {
  try {
    serve_lines(conn.fd, *conn.transport);
  } catch (const std::exception&) {
    // Allocation failure mid-request: the peer sees the connection
    // end; every other connection keeps being served.
  }
  conn.finished.store(true, std::memory_order_release);
  wake();
}

void TransportServer::serve_lines(int fd, const Transport& transport) {
  const auto accepted_at = std::chrono::steady_clock::now();
  bool authed = !transport.requires_auth();
  std::string carry;
  std::string line;
  for (;;) {
    const std::size_t max_line =
        authed ? limits_.max_line_bytes : kPreAuthMaxLineBytes;
    const ReadLine read = detail::read_line(fd, carry, line, max_line);
    if (read == ReadLine::kClosed) return;
    if (read == ReadLine::kTooLong) {
      oversized_ctr_->add();
      const std::string error =
          "{\"ok\": false, \"error\": \"request line exceeds " +
          std::to_string(max_line) + " bytes\"}";
      // An unauthenticated peer flooding over-bound lines never reaches
      // the auth op: refuse and close, like any other pre-auth
      // misbehaviour.  Authenticated connections survive (the rest of
      // the line is discarded, framing stays intact).
      if (!authed) {
        auth_failures_ctr_->add();
        (void)write_line(fd, error);
        return;
      }
      if (!write_line(fd, error) || !detail::skip_line(fd, carry)) return;
      continue;
    }
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!authed) {
      // First line on an authenticated transport MUST be the auth op.
      bool ok = false;
      try {
        const JsonValue request = JsonValue::parse(line);
        ok = request.string_or("op", "") == "auth" &&
             tokens_equal(request.string_or("token", ""),
                          transport.auth_token());
      } catch (const std::exception&) {
        ok = false;
      }
      if (!ok) {
        auth_failures_ctr_->add();
        (void)write_line(
            fd, "{\"ok\": false, \"error\": \"authentication required\"}");
        return;
      }
      authed = true;
      accept_to_auth_hist_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        accepted_at)
              .count());
      if (!write_line(fd, "{\"ok\": true, \"op\": \"auth\"}")) return;
      continue;
    }
    requests_ctr_->add();
    const util::WallTimer timer;
    const RequestOutcome outcome =
        handle_request(server_, line, [this] { return stats(); });
    handle_hist_->observe(timer.seconds());
    const bool sent = write_line(fd, outcome.response);
    if (outcome.shutdown_requested) {
      // The ack is written before the owner is signalled, so it reaches
      // the peer before the owner tears the transport down.
      note_shutdown(outcome.drain);
      return;
    }
    if (!sent) return;
  }
}

void TransportServer::note_shutdown(bool drain) {
  {
    util::MutexLock lock(shutdown_mutex_);
    if (shutdown_requested_) return;  // first request wins
    shutdown_requested_ = true;
    drain_ = drain;
  }
  shutdown_cv_.notify_all();
}

bool TransportServer::wait_shutdown() {
  util::MutexLock lock(shutdown_mutex_);
  while (!shutdown_requested_) shutdown_cv_.wait(shutdown_mutex_);
  return drain_;
}

bool TransportServer::shutdown_requested() const {
  util::MutexLock lock(shutdown_mutex_);
  return shutdown_requested_;
}

TransportStats TransportServer::stats() const {
  // A view over the registry-backed instruments: each field is one
  // relaxed atomic load (no cross-field consistency is promised).
  TransportStats s;
  s.accepted = static_cast<std::size_t>(accepted_ctr_->value());
  s.open_connections =
      static_cast<std::size_t>(open_connections_gauge_->value());
  s.requests = static_cast<std::size_t>(requests_ctr_->value());
  s.auth_failures = static_cast<std::size_t>(auth_failures_ctr_->value());
  s.oversized_lines = static_cast<std::size_t>(oversized_ctr_->value());
  return s;
}

}  // namespace phes::server
