#pragma once
// Server-internal POSIX socket helpers shared by the client connector
// (socket.cpp) and the transport layer (transport.cpp).  Not installed:
// public headers stay free of <sys/un.h>.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace phes::server::detail {

[[noreturn]] inline void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Validated sockaddr_un for `path`; throws when the path is empty or
/// too long to fit.
inline sockaddr_un make_unix_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path '" + path +
                             "' is empty or too long for sockaddr_un");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Write all of `data` (+ '\n') to fd; false on any failure.
/// MSG_NOSIGNAL: a peer that disconnected before reading must produce
/// EPIPE (this connection ends), not a process-killing SIGPIPE.
inline bool write_line(int fd, const std::string& data) {
  std::string out = data;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

enum class ReadLine {
  kLine,     ///< `line` holds the next line, terminator stripped
  kClosed,   ///< EOF or a read error before a full line arrived
  kTooLong,  ///< the line exceeds max_bytes; see read_line
};

/// Read up to the next '\n' using `carry` as the cross-call buffer.
/// A line longer than `max_bytes` is reported as kTooLong as soon as
/// that is known, without waiting for its terminator; its first bytes
/// are then already dropped from `carry`, and skip_line() drops the
/// rest.  Each byte is scanned once, so a line costs time linear in
/// its length.
inline ReadLine read_line(
    int fd, std::string& carry, std::string& line,
    std::size_t max_bytes = std::numeric_limits<std::size_t>::max()) {
  std::size_t scanned = 0;  // prefix of carry known to hold no '\n'
  for (;;) {
    const std::size_t nl = carry.find('\n', scanned);
    if (nl != std::string::npos) {
      if (nl > max_bytes) {
        carry.erase(0, nl);  // skip_line consumes the '\n'
        return ReadLine::kTooLong;
      }
      line.assign(carry, 0, nl);
      carry.erase(0, nl + 1);
      return ReadLine::kLine;
    }
    scanned = carry.size();
    if (scanned > max_bytes) {
      carry.clear();
      return ReadLine::kTooLong;
    }
    char buf[16384];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return ReadLine::kClosed;
    carry.append(buf, static_cast<std::size_t>(n));
  }
}

/// Drop bytes up to and including the next '\n' (the remainder of a
/// kTooLong line); false on EOF/error first.
inline bool skip_line(int fd, std::string& carry) {
  for (;;) {
    const std::size_t nl = carry.find('\n');
    if (nl != std::string::npos) {
      carry.erase(0, nl + 1);
      return true;
    }
    carry.clear();
    char buf[16384];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    carry.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace phes::server::detail
