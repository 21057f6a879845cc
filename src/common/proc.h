// Process isolation and framing primitives.
//
// A campaign worker must be able to die — SIGKILL, a fatal FP trap, an OOM
// kill, a hang — without taking the campaign down. That means real process
// boundaries, not threads: Subprocess forks a child that runs a caller
// -provided function, with a pipe back to the parent. The campaign pool's
// forked loopback workers talk TCP and leave the pipe unused; its hangup
// is how the parent learns the child exited, so it can reap it without
// polling. The parent can also SIGKILL a stuck child. Other callers (the
// benchmark's cold-memory set-ups) stream a result back over the pipe.
//
// Frame wire format (all little-endian), used over pipes and sockets:
//   [u32 payload length][payload bytes]
// A reader that sees EOF mid-frame knows the writer died between starting
// and finishing a result — exactly the truncation case checkpointing must
// never mistake for success.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace sos::common {

/// Frames larger than this are rejected as protocol corruption (a garbage
/// length prefix from a torn write would otherwise ask for gigabytes).
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 30;

/// Writes one length-prefixed frame to `fd`. Safe on blocking pipes and
/// nonblocking sockets alike: partial writes and EAGAIN are resumed (with
/// a poll for writability), so a frame is written whole or not at all from
/// this side. Returns false if the write cannot complete (closed pipe or
/// reset connection / EPIPE included) — callers in workers treat that as
/// "the peer is gone, stop quietly".
bool write_frame(int fd, std::string_view payload) noexcept;

/// Little-endian u32 helpers for frame payload encodings (e.g. a point
/// index prefix on a campaign result).
void append_u32le(std::string& out, std::uint32_t value);
std::uint32_t read_u32le(const char* bytes) noexcept;

/// Incremental frame decoder for one stream. Feed it whatever read(2)
/// returns; pop complete frames as they become available. The buffer also
/// answers the two health questions the coordinator asks at EOF: is there
/// a partial frame pending (the writer died mid-result), and has the stream
/// produced an impossible length prefix (corruption)?
class FrameBuffer {
 public:
  void feed(const char* data, std::size_t size);

  /// Next complete frame in FIFO order, or nullopt if none is buffered.
  std::optional<std::string> next_frame();

  /// True when buffered bytes form an incomplete frame — at EOF this means
  /// the writer was cut off mid-frame.
  bool mid_frame() const noexcept { return !buffer_.empty(); }

  /// True once a frame announced a length above kMaxFrameBytes; the stream
  /// is unrecoverable from that point on.
  bool corrupt() const noexcept { return corrupt_; }

 private:
  std::string buffer_;
  bool corrupt_ = false;
};

/// One forked worker process. spawn() runs `child_main(write_fd)` in the
/// child: the function's return value becomes the process exit status (via
/// _exit, so no parent-inherited atexit handlers or static destructors
/// run), and ThreadPool::reset_shared_after_fork() has already been called
/// so the child can use the shared pool safely. The parent keeps the pipe's
/// read end and the pid.
class Subprocess {
 public:
  /// How a child ended: a normal exit code or a terminating signal.
  struct Exit {
    bool signaled = false;
    int code = 0;  // exit status when !signaled, signal number otherwise

    bool clean() const noexcept { return !signaled && code == 0; }
  };

  using ChildMain = std::function<int(int write_fd)>;

  /// Forks and runs `child_main` in the child. Throws std::runtime_error if
  /// pipe(2) or fork(2) fails. An exception escaping child_main exits the
  /// child with status 70 (EX_SOFTWARE).
  static Subprocess spawn(const ChildMain& child_main);

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;

  /// SIGKILLs and reaps the child if it has not been reaped yet.
  ~Subprocess();

  pid_t pid() const noexcept { return pid_; }
  int read_fd() const noexcept { return read_fd_; }

  /// Non-blocking reap. Returns the exit once the child has terminated;
  /// the result is cached, so it can be called again after reaping.
  std::optional<Exit> poll_exit();

  /// Blocking reap (also resumes a stopped child's SIGKILL delivery).
  Exit wait_exit();

  /// Sends `sig` (default SIGKILL) if the child has not been reaped.
  /// SIGKILL terminates even a SIGSTOP-ed child.
  void kill(int sig = 9) noexcept;

  /// Closes the parent's read end (idempotent).
  void close_read() noexcept;

 private:
  Subprocess() = default;

  pid_t pid_ = -1;
  int read_fd_ = -1;
  std::optional<Exit> exit_;
};

}  // namespace sos::common
