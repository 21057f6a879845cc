#include "common/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace sos::common {

void ignore_sigpipe() noexcept { ::signal(SIGPIPE, SIG_IGN); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::optional<Socket> Socket::connect_ipv4(const std::string& host,
                                           std::uint16_t port) noexcept {
  ::addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  ::addrinfo* results = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &results) != 0 ||
      results == nullptr)
    return std::nullopt;

  int fd = -1;
  for (const ::addrinfo* entry = results; entry != nullptr;
       entry = entry->ai_next) {
    fd = ::socket(entry->ai_family, entry->ai_socktype, entry->ai_protocol);
    if (fd < 0) continue;
    int rc;
    do {
      rc = ::connect(fd, entry->ai_addr, entry->ai_addrlen);
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) return std::nullopt;

  // Frames are small and latency-sensitive (heartbeats, assignments);
  // Nagle buys nothing here. Best-effort: a failure is harmless.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket{fd};
}

bool Socket::set_nonblocking(bool on) noexcept {
  if (fd_ < 0) return false;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return false;
  const int next = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd_, F_SETFL, next) == 0;
}

long Socket::read_some(char* buffer, std::size_t size) noexcept {
  if (fd_ < 0) return -2;
  const ::ssize_t n = ::read(fd_, buffer, size);
  if (n >= 0) return static_cast<long>(n);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return -1;
  return -2;
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener Listener::bind_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("Listener: socket() failed");

  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  ::sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const ::sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error("Listener: bind(127.0.0.1:" +
                             std::to_string(port) +
                             ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("Listener: listen() failed");
  }

  // Port 0 asked the kernel for an ephemeral port; read back the real one.
  ::sockaddr_in bound{};
  ::socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<::sockaddr*>(&bound), &bound_len) !=
      0) {
    ::close(fd);
    throw std::runtime_error("Listener: getsockname() failed");
  }

  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<Socket> Listener::accept() noexcept {
  if (fd_ < 0) return std::nullopt;
  ::sockaddr_in peer{};
  ::socklen_t peer_len = sizeof(peer);
  const int fd =
      ::accept(fd_, reinterpret_cast<::sockaddr*>(&peer), &peer_len);
  if (fd < 0) return std::nullopt;
  Socket socket{fd};
  socket.set_nonblocking(true);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

}  // namespace sos::common
