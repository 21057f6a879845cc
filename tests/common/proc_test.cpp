// Process isolation primitives: frame round trips through real pipes,
// incremental decoding across arbitrary read boundaries, the corruption
// and mid-frame EOF states the coordinator's health checks rest on, and
// Subprocess exit classification (clean, nonzero, signaled, escaping
// exception).
#include "common/proc.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

namespace sos::common {
namespace {

std::string frame_bytes(const std::string& payload) {
  std::string out;
  append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out += payload;
  return out;
}

TEST(FrameBuffer, DecodesFramesAcrossArbitrarySplits) {
  const std::string stream =
      frame_bytes("first") + frame_bytes("") + frame_bytes("third result");
  // Feed one byte at a time — the worst read(2) fragmentation possible.
  FrameBuffer buffer;
  std::vector<std::string> frames;
  for (const char byte : stream) {
    buffer.feed(&byte, 1);
    while (auto frame = buffer.next_frame()) frames.push_back(*frame);
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], "first");
  EXPECT_EQ(frames[1], "");
  EXPECT_EQ(frames[2], "third result");
  EXPECT_FALSE(buffer.mid_frame());
  EXPECT_FALSE(buffer.corrupt());
}

TEST(FrameBuffer, MidFrameReportsAWriterCutOffMidResult) {
  const std::string stream = frame_bytes("complete") + frame_bytes("torn");
  FrameBuffer buffer;
  buffer.feed(stream.data(), stream.size() - 2);  // cut the last frame short
  ASSERT_TRUE(buffer.next_frame().has_value());
  EXPECT_FALSE(buffer.next_frame().has_value());
  EXPECT_TRUE(buffer.mid_frame());  // at EOF this means truncation
  EXPECT_FALSE(buffer.corrupt());
}

TEST(FrameBuffer, ImpossibleLengthPrefixMarksTheStreamCorrupt) {
  std::string stream;
  append_u32le(stream, kMaxFrameBytes + 1);
  stream += "garbage";
  FrameBuffer buffer;
  buffer.feed(stream.data(), stream.size());
  EXPECT_FALSE(buffer.next_frame().has_value());
  EXPECT_TRUE(buffer.corrupt());
  // Corruption is sticky: further feeds cannot resurrect the stream.
  const std::string good = frame_bytes("late");
  buffer.feed(good.data(), good.size());
  EXPECT_FALSE(buffer.next_frame().has_value());
  EXPECT_TRUE(buffer.corrupt());
}

TEST(FrameBuffer, PropertyRandomSplitsNeverChangeTheDecodedFrames) {
  // Property test: however read(2) fragments the byte stream — including
  // several back-to-back frames landing in one feed — the decoder yields
  // exactly the frames that were written, in order. 64 seeded trials over
  // random payload sizes (empty through a few KiB) and random 1..N-byte
  // feed chunks.
  std::uint64_t state = 0x5051aULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::string> expected;
    std::string stream;
    const int frames_in_trial = 1 + static_cast<int>(next() % 8);
    for (int f = 0; f < frames_in_trial; ++f) {
      std::string payload(next() % 3000, '\0');
      for (char& byte : payload) byte = static_cast<char>(next() & 0xff);
      stream += frame_bytes(payload);
      expected.push_back(std::move(payload));
    }
    FrameBuffer buffer;
    std::vector<std::string> decoded;
    std::size_t cursor = 0;
    while (cursor < stream.size()) {
      const std::size_t chunk = 1 + next() % (stream.size() - cursor);
      buffer.feed(stream.data() + cursor, chunk);
      cursor += chunk;
      while (auto frame = buffer.next_frame()) decoded.push_back(*frame);
    }
    ASSERT_EQ(decoded, expected) << "trial " << trial;
    EXPECT_FALSE(buffer.mid_frame()) << "trial " << trial;
    EXPECT_FALSE(buffer.corrupt()) << "trial " << trial;
  }
}

TEST(FrameBuffer, BackToBackFramesInOneFeedAllDecode) {
  std::string stream;
  std::vector<std::string> expected;
  for (int i = 0; i < 100; ++i) {
    expected.push_back("frame-" + std::to_string(i));
    stream += frame_bytes(expected.back());
  }
  FrameBuffer buffer;
  buffer.feed(stream.data(), stream.size());
  std::vector<std::string> decoded;
  while (auto frame = buffer.next_frame()) decoded.push_back(*frame);
  EXPECT_EQ(decoded, expected);
  EXPECT_FALSE(buffer.mid_frame());
}

TEST(FrameBuffer, CorruptPrefixAfterValidFramesStillDeliversTheValidOnes) {
  // Frames decoded before the impossible length prefix arrived must not be
  // lost: the coordinator checkpoints them before noticing the corruption.
  std::string stream = frame_bytes("good-1") + frame_bytes("good-2");
  append_u32le(stream, kMaxFrameBytes + 7);
  FrameBuffer buffer;
  buffer.feed(stream.data(), stream.size());
  EXPECT_EQ(buffer.next_frame(), "good-1");
  EXPECT_EQ(buffer.next_frame(), "good-2");
  EXPECT_FALSE(buffer.next_frame().has_value());
  EXPECT_TRUE(buffer.corrupt());
}

TEST(FrameBuffer, EofMidPrefixIsMidFrameToo) {
  // Even a partial length prefix (fewer than 4 bytes) counts as a torn
  // frame: the writer died between starting and finishing a result.
  std::string prefix;
  append_u32le(prefix, 32);
  FrameBuffer buffer;
  buffer.feed(prefix.data(), 2);
  EXPECT_FALSE(buffer.next_frame().has_value());
  EXPECT_TRUE(buffer.mid_frame());
  EXPECT_FALSE(buffer.corrupt());
}

TEST(FrameBuffer, U32RoundTrip) {
  std::string bytes;
  append_u32le(bytes, 0);
  append_u32le(bytes, 0xdeadbeefu);
  EXPECT_EQ(read_u32le(bytes.data()), 0u);
  EXPECT_EQ(read_u32le(bytes.data() + 4), 0xdeadbeefu);
}

/// Drains a subprocess's pipe to EOF and decodes every frame.
std::vector<std::string> drain_frames(Subprocess& child) {
  FrameBuffer buffer;
  std::vector<std::string> frames;
  char chunk[4096];
  for (;;) {
    const ::ssize_t n = ::read(child.read_fd(), chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.feed(chunk, static_cast<std::size_t>(n));
    while (auto frame = buffer.next_frame()) frames.push_back(*frame);
  }
  return frames;
}

TEST(Subprocess, StreamsFramesAndExitsClean) {
  auto child = Subprocess::spawn([](int write_fd) {
    if (!write_frame(write_fd, "alpha")) return 1;
    if (!write_frame(write_fd, "beta")) return 1;
    return 0;
  });
  const auto frames = drain_frames(child);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "alpha");
  EXPECT_EQ(frames[1], "beta");
  const auto exit = child.wait_exit();
  EXPECT_TRUE(exit.clean());
}

TEST(Subprocess, NonzeroExitCodeIsReported) {
  auto child = Subprocess::spawn([](int) { return 41; });
  const auto exit = child.wait_exit();
  EXPECT_FALSE(exit.clean());
  EXPECT_FALSE(exit.signaled);
  EXPECT_EQ(exit.code, 41);
}

TEST(Subprocess, SigkillIsClassifiedAsSignaled) {
  auto child = Subprocess::spawn([](int) {
    ::raise(SIGKILL);
    return 0;  // unreachable
  });
  const auto exit = child.wait_exit();
  EXPECT_TRUE(exit.signaled);
  EXPECT_EQ(exit.code, SIGKILL);
}

TEST(Subprocess, EscapingExceptionExitsSeventy) {
  auto child = Subprocess::spawn(
      [](int) -> int { throw std::runtime_error("worker bug"); });
  const auto exit = child.wait_exit();
  EXPECT_FALSE(exit.signaled);
  EXPECT_EQ(exit.code, 70);  // EX_SOFTWARE
}

TEST(Subprocess, KillTerminatesAStoppedChild) {
  // SIGSTOP-ed children are the coordinator's deadline case: SIGKILL must
  // get through anyway.
  auto child = Subprocess::spawn([](int) {
    ::raise(SIGSTOP);
    return 0;
  });
  child.kill();
  const auto exit = child.wait_exit();
  EXPECT_TRUE(exit.signaled);
  EXPECT_EQ(exit.code, SIGKILL);
}

TEST(Subprocess, PollExitIsNonBlockingAndCaches) {
  auto child = Subprocess::spawn([](int) { return 0; });
  const auto exit = child.wait_exit();
  EXPECT_TRUE(exit.clean());
  // After reaping, poll_exit keeps returning the cached result.
  const auto again = child.poll_exit();
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(again->clean());
}

TEST(Subprocess, WriteFrameToAClosedReaderFailsInsteadOfKillingUs) {
  // The EPIPE hardening: with SIGPIPE ignored, write_frame against a pipe
  // whose reader is gone must return false (worker "peer is gone, stop
  // quietly" path), not terminate the process.
  auto child = Subprocess::spawn([](int write_fd) {
    ::signal(SIGPIPE, SIG_IGN);
    // First frame lands while the parent still holds the read end open.
    if (!write_frame(write_fd, "landed")) return 2;
    // Wait for the read end to disappear (parent closes it), then write:
    // every subsequent frame must fail cleanly with EPIPE.
    ::pollfd waiter{write_fd, 0, 0};
    for (int i = 0; i < 1000; ++i) {
      ::poll(&waiter, 1, 10);
      if (waiter.revents & POLLERR) break;
    }
    if (write_frame(write_fd, "into the void")) return 3;
    return 0;
  });
  // Drain the whole first frame (header + payload may arrive as separate
  // reads) before closing: closing after a partial read would EPIPE the
  // child's payload write and race the test.
  FrameBuffer buffer;
  char chunk[64];
  while (!buffer.next_frame().has_value()) {
    const ::ssize_t n = ::read(child.read_fd(), chunk, sizeof(chunk));
    ASSERT_GT(n, 0);
    buffer.feed(chunk, static_cast<std::size_t>(n));
  }
  child.close_read();
  const auto exit = child.wait_exit();
  EXPECT_TRUE(exit.clean()) << "signaled " << exit.signaled << ", code "
                            << exit.code;
}

TEST(Subprocess, TruncatedFrameIsVisibleAtEof) {
  auto child = Subprocess::spawn([](int write_fd) {
    // A length prefix promising 8 bytes, then death after 3.
    std::string partial;
    append_u32le(partial, 8);
    partial += "cut";
    [[maybe_unused]] const ::ssize_t n =
        ::write(write_fd, partial.data(), partial.size());
    return 0;
  });
  FrameBuffer buffer;
  char chunk[256];
  for (;;) {
    const ::ssize_t n = ::read(child.read_fd(), chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.feed(chunk, static_cast<std::size_t>(n));
  }
  EXPECT_FALSE(buffer.next_frame().has_value());
  EXPECT_TRUE(buffer.mid_frame());  // the lying-worker detection
  EXPECT_TRUE(child.wait_exit().clean());
}

}  // namespace
}  // namespace sos::common
