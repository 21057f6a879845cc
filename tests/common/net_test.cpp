// TCP transport primitives: listener bind/accept, socket connect, frame
// round trips over real sockets, the read_some return-code contract, and
// the write hardening the distributed executor depends on — a frame
// larger than the send buffer on a nonblocking socket must be written
// whole (partial writes + EAGAIN resumed), and a write to a reset
// connection must fail cleanly instead of raising SIGPIPE.
#include "common/net.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/proc.h"

namespace sos::common {
namespace {

/// Reads from `socket` until `count` frames decoded (polling through
/// would-block returns), or gives up after ~5s.
std::vector<std::string> read_frames(Socket& socket, std::size_t count) {
  FrameBuffer buffer;
  std::vector<std::string> frames;
  char chunk[4096];
  for (int spins = 0; frames.size() < count && spins < 5000; ++spins) {
    const long n = socket.read_some(chunk, sizeof(chunk));
    if (n > 0) {
      buffer.feed(chunk, static_cast<std::size_t>(n));
      while (auto frame = buffer.next_frame()) frames.push_back(*frame);
      continue;
    }
    if (n == 0 || n == -2) break;  // EOF / hard error
    ::pollfd waiter{socket.fd(), POLLIN, 0};
    ::poll(&waiter, 1, 10);
  }
  return frames;
}

TEST(Listener, BindsAnEphemeralLoopbackPortAndReportsIt) {
  const auto listener = Listener::bind_loopback();
  EXPECT_GT(listener.port(), 0);
  EXPECT_GE(listener.fd(), 0);
}

TEST(Listener, AcceptWithNoPendingConnectionReturnsNullopt) {
  auto listener = Listener::bind_loopback();
  EXPECT_FALSE(listener.accept().has_value());  // nonblocking, not wedged
}

TEST(Socket, ConnectToNothingFailsCleanly) {
  auto listener = Listener::bind_loopback();
  const auto port = listener.port();
  listener = Listener::bind_loopback();  // old port is closed now
  EXPECT_FALSE(Socket::connect_ipv4("127.0.0.1", port).has_value());
}

TEST(Socket, FramesRoundTripBothDirections) {
  ignore_sigpipe();
  auto listener = Listener::bind_loopback();
  auto client = Socket::connect_ipv4("127.0.0.1", listener.port());
  ASSERT_TRUE(client.has_value());

  std::optional<Socket> server;
  for (int spins = 0; !server && spins < 500; ++spins) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(server.has_value());

  ASSERT_TRUE(write_frame(client->fd(), "ping"));
  ASSERT_TRUE(write_frame(client->fd(), ""));
  const auto inbound = read_frames(*server, 2);
  ASSERT_EQ(inbound.size(), 2u);
  EXPECT_EQ(inbound[0], "ping");
  EXPECT_EQ(inbound[1], "");

  ASSERT_TRUE(write_frame(server->fd(), "pong"));
  const auto reply = read_frames(*client, 1);
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply[0], "pong");
}

TEST(Socket, ReadSomeReportsEofAfterPeerCloses) {
  ignore_sigpipe();
  auto listener = Listener::bind_loopback();
  auto client = Socket::connect_ipv4("127.0.0.1", listener.port());
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> server;
  for (int spins = 0; !server && spins < 500; ++spins) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(server.has_value());

  client->close();
  char chunk[16];
  long n = -1;
  for (int spins = 0; n == -1 && spins < 500; ++spins) {
    n = server->read_some(chunk, sizeof(chunk));
    if (n == -1) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(n, 0);  // orderly EOF
}

TEST(Socket, WriteFrameLargerThanTheSendBufferCompletesOnNonblockingFd) {
  // The partial-write hardening regression: shrink the writer's send
  // buffer, make the fd nonblocking, and push a frame several times the
  // buffer size while the reader drains slowly. write_frame must resume
  // through EAGAIN until the frame is whole — a torn frame here would be
  // indistinguishable from worker death on the coordinator side.
  ignore_sigpipe();
  auto listener = Listener::bind_loopback();
  auto client = Socket::connect_ipv4("127.0.0.1", listener.port());
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> server;
  for (int spins = 0; !server && spins < 500; ++spins) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(server.has_value());

  int tiny = 4096;
  ASSERT_EQ(::setsockopt(client->fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof(tiny)),
            0);
  ASSERT_TRUE(client->set_nonblocking(true));

  std::string big(512 * 1024, '\0');
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<char>('a' + (i % 26));

  std::thread writer([&]() {
    EXPECT_TRUE(write_frame(client->fd(), big));
    client->close();
  });
  const auto frames = read_frames(*server, 1);
  writer.join();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], big);
}

TEST(Socket, WriteFrameToAResetConnectionFailsWithoutSigpipe) {
  ignore_sigpipe();
  auto listener = Listener::bind_loopback();
  auto client = Socket::connect_ipv4("127.0.0.1", listener.port());
  ASSERT_TRUE(client.has_value());
  std::optional<Socket> server;
  for (int spins = 0; !server && spins < 500; ++spins) {
    server = listener.accept();
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(server.has_value());
  server->close();

  // The first write may land in the kernel buffer before the RST arrives;
  // keep writing — within a few frames the failure must surface as a
  // clean false, never a process-killing signal.
  bool failed = false;
  for (int i = 0; i < 200 && !failed; ++i) {
    failed = !write_frame(client->fd(), std::string(1024, 'x'));
    if (!failed) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(failed);
}

TEST(Socket, MoveTransfersOwnership) {
  auto listener = Listener::bind_loopback();
  auto client = Socket::connect_ipv4("127.0.0.1", listener.port());
  ASSERT_TRUE(client.has_value());
  const int fd = client->fd();
  Socket moved = std::move(*client);
  EXPECT_EQ(moved.fd(), fd);
  EXPECT_FALSE(client->valid());  // NOLINT(bugprone-use-after-move): tested
}

}  // namespace
}  // namespace sos::common
