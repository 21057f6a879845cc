#include "common/proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/thread_pool.h"

namespace sos::common {

namespace {

/// write(2) until done. Retries EINTR, and on EAGAIN/EWOULDBLOCK — a
/// nonblocking fd (a TCP socket to a remote worker) whose kernel buffer is
/// full — polls for writability and resumes, so a frame is never torn by a
/// partial write. Any other error (EPIPE from a dead peer included) is a
/// clean false; the caller decides whether a gone peer is fatal.
bool write_fully(int fd, const char* data, std::size_t size) noexcept {
  while (size > 0) {
    const ::ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ::pollfd waiter{fd, POLLOUT, 0};
        // Error/hangup wakes the poll too; the next write reports it.
        (void)::poll(&waiter, 1, /*timeout_ms=*/1000);
        continue;
      }
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void encode_u32le(std::uint32_t value, char out[4]) noexcept {
  out[0] = static_cast<char>(value & 0xff);
  out[1] = static_cast<char>((value >> 8) & 0xff);
  out[2] = static_cast<char>((value >> 16) & 0xff);
  out[3] = static_cast<char>((value >> 24) & 0xff);
}

std::uint32_t decode_u32le(const char* in) noexcept {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(in[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(in[3])) << 24;
}

}  // namespace

void append_u32le(std::string& out, std::uint32_t value) {
  char bytes[4];
  encode_u32le(value, bytes);
  out.append(bytes, sizeof(bytes));
}

std::uint32_t read_u32le(const char* bytes) noexcept {
  return decode_u32le(bytes);
}

bool write_frame(int fd, std::string_view payload) noexcept {
  if (payload.size() > kMaxFrameBytes) return false;
  char header[4];
  encode_u32le(static_cast<std::uint32_t>(payload.size()), header);
  return write_fully(fd, header, sizeof(header)) &&
         write_fully(fd, payload.data(), payload.size());
}

void FrameBuffer::feed(const char* data, std::size_t size) {
  if (corrupt_) return;
  buffer_.append(data, size);
}

std::optional<std::string> FrameBuffer::next_frame() {
  if (corrupt_ || buffer_.size() < 4) return std::nullopt;
  const std::uint32_t length = decode_u32le(buffer_.data());
  if (length > kMaxFrameBytes) {
    corrupt_ = true;
    return std::nullopt;
  }
  if (buffer_.size() < 4 + static_cast<std::size_t>(length))
    return std::nullopt;
  std::string payload = buffer_.substr(4, length);
  buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  return payload;
}

Subprocess Subprocess::spawn(const ChildMain& child_main) {
  int fds[2];
  if (::pipe(fds) != 0)
    throw std::runtime_error("Subprocess: pipe() failed");

  // Flush stdio so buffered output is not duplicated into the child.
  std::fflush(stdout);
  std::fflush(stderr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("Subprocess: fork() failed");
  }

  if (pid == 0) {
    // --- Child. Never returns: _exit skips parent-inherited atexit
    // handlers and static destructors (whose threads do not exist here).
    ::close(fds[0]);
    // A parent that died or gave up must not SIGPIPE-kill us mid-frame;
    // write_frame surfaces the closed pipe as a clean false instead.
    ::signal(SIGPIPE, SIG_IGN);
    ThreadPool::reset_shared_after_fork();
    int code = 70;  // EX_SOFTWARE, for an escaping exception
    try {
      code = child_main(fds[1]);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "Subprocess child: %s\n", error.what());
    } catch (...) {
    }
    ::close(fds[1]);
    ::_exit(code);
  }

  // --- Parent.
  ::close(fds[1]);
  Subprocess child;
  child.pid_ = pid;
  child.read_fd_ = fds[0];
  return child;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(other.pid_), read_fd_(other.read_fd_), exit_(other.exit_) {
  other.pid_ = -1;
  other.read_fd_ = -1;
  other.exit_.reset();
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    this->~Subprocess();
    pid_ = other.pid_;
    read_fd_ = other.read_fd_;
    exit_ = other.exit_;
    other.pid_ = -1;
    other.read_fd_ = -1;
    other.exit_.reset();
  }
  return *this;
}

Subprocess::~Subprocess() {
  close_read();
  if (pid_ > 0 && !exit_.has_value()) {
    kill();
    wait_exit();
  }
  pid_ = -1;
}

std::optional<Subprocess::Exit> Subprocess::poll_exit() {
  if (exit_.has_value() || pid_ <= 0) return exit_;
  int status = 0;
  const pid_t reaped = ::waitpid(pid_, &status, WNOHANG);
  if (reaped != pid_) return std::nullopt;
  Exit exit;
  if (WIFSIGNALED(status)) {
    exit.signaled = true;
    exit.code = WTERMSIG(status);
  } else {
    exit.code = WEXITSTATUS(status);
  }
  exit_ = exit;
  return exit_;
}

Subprocess::Exit Subprocess::wait_exit() {
  if (exit_.has_value()) return *exit_;
  if (pid_ <= 0) return Exit{};
  int status = 0;
  pid_t reaped;
  do {
    reaped = ::waitpid(pid_, &status, 0);
  } while (reaped < 0 && errno == EINTR);
  Exit exit;
  if (reaped == pid_ && WIFSIGNALED(status)) {
    exit.signaled = true;
    exit.code = WTERMSIG(status);
  } else if (reaped == pid_) {
    exit.code = WEXITSTATUS(status);
  }
  exit_ = exit;
  return *exit_;
}

void Subprocess::kill(int sig) noexcept {
  if (pid_ > 0 && !exit_.has_value()) ::kill(pid_, sig);
}

void Subprocess::close_read() noexcept {
  if (read_fd_ >= 0) {
    ::close(read_fd_);
    read_fd_ = -1;
  }
}

}  // namespace sos::common
