#pragma once
// Pluggable transport layer for the NDJSON job-server protocol.
//
// A Transport owns one listening endpoint and its per-connection
// policy; two implementations exist:
//   UnixTransport — the original AF_UNIX filesystem socket (stale-file
//     probe, unlink on close, no authentication: filesystem permissions
//     are the access control).
//   TcpTransport  — an AF_INET listener for remote clients.  Every
//     connection must authenticate before any other op: the first line
//     must be {"op":"auth","token":"..."} matching the shared token, or
//     the connection is refused.  Plain TCP — run it on a trusted
//     network or behind a TLS terminator (see README).
//
// TransportServer serves any number of transports with one accept
// thread plus one blocking thread per connection.  A connection thread
// reads one newline-delimited JSON line, applies the auth gate, runs
// handle_request and writes the response before it reads the next
// line, so responses come back in request order, a submit blocked on
// a full admission queue stalls only its own connection, and a peer
// that stops reading stalls only its own thread (blocking-write
// backpressure).  A line that grows past TransportLimits::max_line_bytes
// without a terminator gets one error response and the rest of that
// line is discarded — the connection survives.
//
// Thread rules: a connection's fd is closed exactly once, by whoever
// joins its thread (the accept thread reaps finished connections as
// they end; stop() joins the rest), so no thread is detached and
// stop()'s shutdown(2) never hits a reused fd.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "phes/server/protocol.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/sync.hpp"

namespace phes::server {

class JobServer;

/// One listening endpoint plus its per-connection policy.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Bind + listen; returns the (non-blocking) listening fd.  Throws
  /// std::runtime_error on socket failures.
  [[nodiscard]] virtual int open_listener() = 0;

  /// Release endpoint resources after the listening fd was closed
  /// (e.g. unlink the AF_UNIX socket file).
  virtual void close_listener() {}

  /// Connections must authenticate (auth op, shared token) before any
  /// other request is served.
  [[nodiscard]] virtual bool requires_auth() const noexcept { return false; }

  /// Per-connection socket configuration applied right after accept
  /// (e.g. TCP_NODELAY); best-effort, must not throw.
  virtual void configure_connection(int /*fd*/) noexcept {}

  /// The shared secret the auth handshake compares against; empty when
  /// requires_auth() is false.
  [[nodiscard]] virtual const std::string& auth_token() const noexcept;

  /// Human-readable endpoint for logs ("unix:/tmp/x.sock", "tcp:h:p").
  [[nodiscard]] virtual std::string endpoint() const = 0;
};

/// AF_UNIX filesystem socket.  A stale socket file left by a dead
/// process is probed (connect) and replaced; a live server on the same
/// path is never displaced.
class UnixTransport final : public Transport {
 public:
  explicit UnixTransport(std::string path);

  [[nodiscard]] int open_listener() override;
  void close_listener() override;
  [[nodiscard]] std::string endpoint() const override;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  bool bound_ = false;
};

/// AF_INET listener with a shared-token auth handshake.  `port` 0
/// binds an ephemeral port; bound_port() reports the actual one after
/// open_listener().
class TcpTransport final : public Transport {
 public:
  TcpTransport(std::string host, std::uint16_t port, std::string token);

  [[nodiscard]] int open_listener() override;
  void configure_connection(int fd) noexcept override;
  [[nodiscard]] bool requires_auth() const noexcept override {
    return !token_.empty();
  }
  [[nodiscard]] const std::string& auth_token() const noexcept override {
    return token_;
  }
  [[nodiscard]] std::string endpoint() const override;
  [[nodiscard]] std::uint16_t bound_port() const noexcept { return bound_; }

 private:
  std::string host_;
  std::uint16_t port_ = 0;
  std::uint16_t bound_ = 0;
  std::string token_;
};

struct TransportLimits {
  /// Hard bound on one NDJSON request line.  A connection exceeding it
  /// gets an error response and the oversized line is discarded; the
  /// connection stays up.  Sized for inline Touchstone payloads.
  /// Connections that have not passed the auth handshake yet are held
  /// to a fixed 4 KiB bound instead (the auth op is tiny) and are
  /// closed outright on exceeding it, so a tokenless remote peer
  /// cannot park megabytes of buffer.
  std::size_t max_line_bytes = 8u << 20;
};

/// Accept thread plus one blocking thread per connection, serving the
/// NDJSON protocol over any set of transports.  Lifecycle: construct ->
/// start() -> (clients) -> wait_shutdown()/stop().
class TransportServer {
 public:
  TransportServer(JobServer& server,
                  std::vector<std::unique_ptr<Transport>> transports,
                  TransportLimits limits = {});
  /// Single-transport convenience.
  TransportServer(JobServer& server, std::unique_ptr<Transport> transport,
                  TransportLimits limits = {});
  ~TransportServer();

  TransportServer(const TransportServer&) = delete;
  TransportServer& operator=(const TransportServer&) = delete;

  /// Open every listener and start the accept thread.  Throws
  /// std::runtime_error on socket failures (no thread is left behind).
  void start();

  /// Stop accepting, close every listener, shut down every connection
  /// socket, join every connection thread and close its fd.
  /// Idempotent.  A connection thread blocked inside a submit unblocks
  /// once the JobServer frees a slot or shuts down — keep the JobServer
  /// alive until stop() returns.
  void stop();

  /// Block until a client requests shutdown (or stop() is called).
  /// Returns the requested drain mode (true when stopped locally).
  bool wait_shutdown() PHES_EXCLUDES(shutdown_mutex_);
  [[nodiscard]] bool shutdown_requested() const
      PHES_EXCLUDES(shutdown_mutex_);

  /// The counters the protocol's stats op reports.
  [[nodiscard]] TransportStats stats() const;
  [[nodiscard]] const std::vector<std::unique_ptr<Transport>>& transports()
      const noexcept {
    return transports_;
  }

 private:
  struct Connection {
    int fd = -1;
    Transport* transport = nullptr;
    /// Set as the thread's last act: joining it will not block.
    std::atomic<bool> finished{false};
    std::thread thread;
  };

  void accept_loop();
  void accept_ready(std::size_t listener_index);
  /// Join and close every connection whose thread has finished.
  void reap_finished();
  /// Connection thread body: serve lines until EOF, error, refusal or
  /// a shutdown op.  Never closes the fd.
  void serve(Connection& conn);
  void serve_lines(int fd, const Transport& transport);
  void note_shutdown(bool drain) PHES_EXCLUDES(shutdown_mutex_);
  /// Kick the accept thread out of poll (a connection ended / stop()).
  void wake();
  /// Resolve the instrument handles from the JobServer's registry
  /// (construction only).
  void resolve_instruments();

  JobServer& server_;
  std::vector<std::unique_ptr<Transport>> transports_;
  TransportLimits limits_;

  std::vector<int> listen_fds_;  ///< parallel to transports_
  int wake_fd_ = -1;  ///< eventfd: stop() and ending connections
  /// Reserve descriptor sacrificed to accept+close a pending
  /// connection under EMFILE/ENFILE (else the level-triggered listener
  /// readiness busy-spins the accept thread).
  int reserve_fd_ = -1;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Owned by the accept thread between start() and its join in stop().
  std::list<Connection> connections_;

  // Transport-layer instruments, resolved once at construction from the
  // JobServer's registry; TransportStats is a view over these (every
  // field is a single atomic, so no stats mutex is needed).
  obs::Counter* accepted_ctr_ = nullptr;
  obs::Counter* requests_ctr_ = nullptr;
  obs::Counter* auth_failures_ctr_ = nullptr;
  obs::Counter* oversized_ctr_ = nullptr;
  obs::Counter* spawn_failures_ctr_ = nullptr;
  obs::Gauge* open_connections_gauge_ = nullptr;
  obs::Histogram* accept_to_auth_hist_ = nullptr;
  obs::Histogram* handle_hist_ = nullptr;

  mutable util::Mutex shutdown_mutex_;
  util::CondVar shutdown_cv_;
  bool shutdown_requested_ PHES_GUARDED_BY(shutdown_mutex_) = false;
  bool drain_ PHES_GUARDED_BY(shutdown_mutex_) = true;

  /// Declared last: it uses every member above.
  std::thread accept_thread_;
};

/// Constant-time token comparison (length leaks, contents do not).
[[nodiscard]] bool tokens_equal(const std::string& a, const std::string& b);

}  // namespace phes::server
