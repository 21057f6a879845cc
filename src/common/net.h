// TCP transport primitives for the campaign worker pool.
//
// The length-prefixed frames of common/proc.h, decoded by FrameBuffer, do
// not care whether the byte stream is a pipe or a socket. These wrappers
// supply the socket half: a Listener
// bound to an address (loopback by default) accepting nonblocking
// connections, and a Socket that either came from accept() or from an
// outbound connect. Frame I/O itself stays in common/proc.h; write_frame
// works on nonblocking socket fds because write_fully polls for
// writability on EAGAIN and surfaces EPIPE/ECONNRESET as a clean false.
//
// SIGPIPE discipline: a process that writes to sockets must call
// ignore_sigpipe() once (the coordinator, the serve worker, tests) so a
// peer that vanished mid-frame produces an EPIPE error return instead of
// killing the process — exactly the failure the distributed layer is
// built to survive.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace sos::common {

/// Idempotently sets SIGPIPE to SIG_IGN for the whole process, so socket
/// and pipe writes to a dead peer fail with EPIPE instead of a signal.
void ignore_sigpipe() noexcept;

/// One connected TCP stream, move-only owner of its fd. Obtained from
/// Listener::accept() (already nonblocking) or Socket::connect_ipv4().
class Socket {
 public:
  Socket() = default;  // invalid until assigned
  explicit Socket(int fd) noexcept : fd_(fd) {}

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  /// Blocking IPv4 connect (numeric address or resolvable name). Returns
  /// an invalid-socket nullopt on resolution or connection failure —
  /// callers own the retry policy.
  static std::optional<Socket> connect_ipv4(const std::string& host,
                                            std::uint16_t port) noexcept;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// O_NONBLOCK toggle; returns false if fcntl fails.
  bool set_nonblocking(bool on) noexcept;

  /// One read(2): bytes read (> 0), 0 on orderly EOF, -1 when the read
  /// would block (EAGAIN/EINTR — poll and retry), -2 on a hard error
  /// (connection reset included).
  long read_some(char* buffer, std::size_t size) noexcept;

  /// Closes the fd (idempotent). A closed socket is invalid.
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// A listening TCP endpoint. Nonblocking: accept() returns nullopt when no
/// connection is pending, so it drops straight into a poll() loop.
class Listener {
 public:
  /// Binds 127.0.0.1:<port> (port 0 = kernel-assigned ephemeral port, read
  /// it back via port()) and listens. Throws std::runtime_error on
  /// socket/bind/listen failure.
  static Listener bind_loopback(std::uint16_t port = 0);

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  std::uint16_t port() const noexcept { return port_; }
  int fd() const noexcept { return fd_; }

  /// Accepts one pending connection, already set nonblocking; nullopt when
  /// none is pending (or on a transient accept error).
  std::optional<Socket> accept() noexcept;

 private:
  Listener() = default;

  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace sos::common
