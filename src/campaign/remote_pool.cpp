#include "campaign/remote_pool.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/coordinator.h"
#include "campaign/remote_protocol.h"
#include "common/mac.h"
#include "common/proc.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace sos::campaign {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// The chaos "torn frame" write, socket edition: a length prefix
/// announcing the full payload followed by only half of it. To the
/// coordinator this is exactly a worker dying mid-result.
void write_torn_frame(int fd, const std::string& payload) {
  std::string wire;
  common::append_u32le(wire, static_cast<std::uint32_t>(payload.size()));
  wire.append(payload.data(), payload.size() / 2);
  [[maybe_unused]] const ::ssize_t n = ::write(fd, wire.data(), wire.size());
}

/// Appends what `sock` has to `bytes`; false once the peer is gone.
bool read_available(common::Socket& sock, std::string& bytes) {
  char buffer[65536];
  for (;;) {
    const long n = sock.read_some(buffer, sizeof(buffer));
    if (n == -1) return true;  // drained
    if (n <= 0) return false;
    bytes.append(buffer, static_cast<std::size_t>(n));
  }
}

/// The "(accepted: ...)" rejection of an executor option.
[[noreturn]] void reject(const char* owner, const char* field,
                         const std::string& value, const char* accepted) {
  throw std::invalid_argument(std::string(owner) + ": bad " + field + " '" +
                              value + "' (accepted: " + accepted + ")");
}

}  // namespace

std::string coordinator_journal_path(const std::string& store_dir) {
  return (std::filesystem::path(store_dir) / "coordinator.journal").string();
}

void RemotePoolOptions::validate() const {
  constexpr const char* kOwner = "RemotePoolOptions";
  if (local_workers < 0)
    reject(kOwner, "local_workers", std::to_string(local_workers), ">= 0");
  if (points_per_assign < 1)
    reject(kOwner, "points_per_assign", std::to_string(points_per_assign),
           ">= 1");
  if (!(heartbeat_interval_s > 0.0))
    reject(kOwner, "heartbeat_interval_s",
           common::format_double(heartbeat_interval_s, 4), "> 0 seconds");
  if (!(heartbeat_timeout_s > heartbeat_interval_s))
    reject(kOwner, "heartbeat_timeout_s",
           common::format_double(heartbeat_timeout_s, 4),
           "> heartbeat_interval_s");
  if (!(registration_timeout_s > 0.0))
    reject(kOwner, "registration_timeout_s",
           common::format_double(registration_timeout_s, 4), "> 0 seconds");
  if (!(point_deadline_s > 0.0))
    reject(kOwner, "point_deadline_s",
           common::format_double(point_deadline_s, 4), "> 0 seconds");
  retry.validate();
  chaos.validate();
}

void RemoteWorkerConfig::validate() const {
  if (!(heartbeat_interval_s > 0.0))
    reject("RemoteWorkerConfig", "heartbeat_interval_s",
           common::format_double(heartbeat_interval_s, 4), "> 0 seconds");
  chaos.validate();
}

RemoteWorkerPool::RemoteWorkerPool(ScenarioSpec spec, RemotePoolOptions options)
    : runner_(std::move(spec),
              CampaignOptions{options.store_dir, nullptr, nullptr}),
      options_(std::move(options)),
      listener_(common::Listener::bind_loopback(options_.listen_port)) {
  options_.validate();
}

// The IO driver around Coordinator: it forks and respawns the loopback
// children, polls the listener and every session, moves bytes into the
// core and applies the actions that come back, and drains on settle.
CampaignReport RemoteWorkerPool::run() {
  using Kind = CoordinatorAction::Kind;
  common::ignore_sigpipe();
  Coordinator core{runner_, options_, Clock::now()};

  std::vector<common::Subprocess> children;
  int respawns = 0;
  const int max_respawns =  // chaos-respawn storm backstop
      32 + 8 * static_cast<int>(runner_.points().size());
  const auto spawn_child = [&]() {
    RemoteWorkerConfig config;
    config.port = listener_.port();
    config.heartbeat_interval_s = options_.heartbeat_interval_s;
    config.connect_timeout_s = options_.registration_timeout_s;
    config.chaos = options_.chaos;
    config.key_file = options_.key_file;
    // Close the inherited listener, so an orphaned worker cannot keep the
    // port bound and block a crash-recovery restart from rebinding it.
    const int listener_fd = listener_.fd();
    children.push_back(common::Subprocess::spawn(
        [config, listener_fd](int) {
          ::close(listener_fd);
          return run_remote_worker(config);
        }));
  };
  // A settled store needs no fleet: a warm rerun forks nothing.
  if (!core.settled())
    for (int i = 0; i < options_.local_workers; ++i) spawn_child();
  // After the fork: the children start up while the manifest syncs. No
  // object is stored before the poll loop, so the manifest still comes first.
  runner_.store().write_manifest(runner_.manifest_text());

  // After `children`: an exception closes sessions, then kills children.
  std::map<Coordinator::SessionId, common::Socket> sockets;
  Coordinator::SessionId next_id = 0;
  const auto apply = [&](const Coordinator::Actions& actions) {
    for (const CoordinatorAction& action : actions) {
      const auto sock = sockets.find(action.session);
      if (action.kind == Kind::kSend && sock != sockets.end()) {
        // A failed write surfaces as a hang-up at the next poll.
        (void)common::write_frame(sock->second.fd(), action.frame);
      } else if (action.kind == Kind::kClose && sock != sockets.end()) {
        sockets.erase(sock);
      } else if (action.kind == Kind::kKill) {
        for (auto& child : children)
          if (static_cast<std::uint64_t>(child.pid()) == action.pid)
            child.kill();
      } else if (action.kind == Kind::kDie) {
        ::raise(SIGKILL);
      }
    }
  };
  // Polls (a child's pipe hangs up when it exits, waking us to reap it),
  // accepts (half-closing a reconnect after settle once it has its
  // goodbye), and returns the sessions with something to read.
  const auto poll_sockets = [&](int timeout_ms) {
    std::vector<::pollfd> fds{{listener_.fd(), POLLIN, 0}};
    for (const auto& entry : sockets)
      fds.push_back({entry.second.fd(), POLLIN, 0});
    for (const auto& c : children) fds.push_back({c.read_fd(), POLLIN, 0});
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    std::vector<Coordinator::SessionId> ready;
    auto fd = fds.begin();
    for (const auto& entry : sockets)
      if ((++fd)->revents & (POLLIN | POLLHUP | POLLERR))
        ready.push_back(entry.first);
    if (fds.front().revents & POLLIN) {
      while (auto sock = listener_.accept()) {
        const int raw_fd = sock->fd();
        sockets.emplace(next_id, std::move(*sock));
        apply(core.accept(next_id++, Clock::now()));
        if (core.settled()) ::shutdown(raw_fd, SHUT_WR);
      }
    }
    return ready;
  };

  const auto reap = [&]() {
    std::erase_if(children, [](common::Subprocess& child) {
      return child.poll_exit().has_value();
    });
  };

  while (!core.settled()) {
    reap();
    while (static_cast<int>(children.size()) < options_.local_workers &&
           respawns < max_respawns) {
      spawn_child();
      ++respawns;
    }
    apply(core.tick(Clock::now()));
    if (core.settled()) break;
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        core.next_wakeup() - Clock::now());
    for (const auto id : poll_sockets(static_cast<int>(
             std::clamp<long long>(wait.count() + 1, 1, 200)))) {
      const auto sock = sockets.find(id);
      if (sock == sockets.end()) continue;  // closed by an earlier action
      std::string bytes;
      const bool open = read_available(sock->second, bytes);
      apply(core.receive(id, bytes, Clock::now()));
      if (!open) apply(core.hang_up(id, Clock::now()));
    }
  }

  // Settled: every worker has its SHUTDOWN. Half-close and drain each
  // socket to EOF, since a hard close over unread late frames would reset
  // the connection and destroy the buffered SHUTDOWN on the worker's side.
  // Keep accepting until every child has exited: a child reconnecting right
  // now gets its goodbye too. Bounded by the grace deadline, after which
  // ~Subprocess SIGKILLs whatever still runs.
  for (const auto& entry : sockets) ::shutdown(entry.second.fd(), SHUT_WR);
  const auto grace_deadline = Clock::now() + std::chrono::seconds(2);
  // The store is final: report while the workers act on their goodbye.
  const CampaignReport report = core.report();
  reap();
  while ((!sockets.empty() || !children.empty()) &&
         Clock::now() < grace_deadline) {
    for (const auto id : poll_sockets(/*timeout_ms=*/50)) {
      std::string sink;
      if (!read_available(sockets.at(id), sink)) sockets.erase(id);
    }
    reap();
  }
  sockets.clear();
  children.clear();
  return report;
}

// --- The serve worker body. -----------------------------------------------

namespace {

/// Socket shared between the compute loop and the heartbeat thread. All
/// writes (and the fd swap on reconnect) hold the mutex; the single reader
/// needs no lock.
struct WorkerLink {
  std::mutex write_mutex;
  common::Socket sock;
  std::atomic<long long> blackhole_until_ns{0};  // partition chaos gate
};

long long steady_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

}  // namespace

int run_remote_worker(const RemoteWorkerConfig& config) {
  common::ignore_sigpipe();

  common::MacKey base_key;
  try {
    base_key = load_base_key(config.key_file);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sos_campaign serve: %s\n", error.what());
    return 1;
  }

  WorkerLink link;
  // The session key changes on every (re)connect — fresh challenge, fresh
  // key — and is read by both the compute loop and the beater thread, so
  // all access rides the write mutex the socket swap already takes.
  common::MacKey session_key;
  common::Rng challenge_rng{
      common::mix64(static_cast<std::uint64_t>(::getpid())) ^
      static_cast<std::uint64_t>(steady_ns(Clock::now()))};

  // Connects AND registers: the HELLO goes out under the same mutex hold
  // that installs the socket, so the beater thread can never slip a
  // session-sealed heartbeat in front of the handshake.
  const auto connect_once = [&]() -> bool {
    const auto deadline = Clock::now() + to_duration(config.connect_timeout_s);
    for (;;) {
      if (auto sock =
              common::Socket::connect_ipv4(config.host, config.port)) {
        std::lock_guard<std::mutex> lock(link.write_mutex);
        link.sock = std::move(*sock);
        Hello hello;
        hello.pid = static_cast<std::uint64_t>(::getpid());
        hello.challenge = challenge_rng.next();
        session_key = common::derive_session_key(base_key, hello.challenge);
        if (common::write_frame(link.sock.fd(),
                                seal_frame(encode_hello(hello), base_key)))
          return true;
        link.sock.close();  // peer vanished instantly; retry until deadline
      }
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  };

  const auto send = [&](const std::string& inner) {
    std::lock_guard<std::mutex> lock(link.write_mutex);
    return link.sock.valid() &&
           common::write_frame(link.sock.fd(),
                               seal_frame(inner, session_key));
  };

  const auto drop_connection = [&]() {
    std::lock_guard<std::mutex> lock(link.write_mutex);
    link.sock.close();
  };

  if (!connect_once()) return kExitFleetUnreachable;

  int reconnects = 0;
  const auto reconnect = [&]() {
    drop_connection();
    if (++reconnects > config.max_reconnects) return false;
    return connect_once();
  };

  // Heartbeats ride a dedicated thread so a long point computation (or a
  // partition sleep) cannot read as death — unless chaos wants it to. The
  // thread sleeps on a condition variable, so shutdown wakes it at once
  // instead of waiting out the interval.
  std::mutex stop_mutex;
  std::condition_variable stop_signal;
  bool stopping = false;
  std::thread beater([&]() {
    const auto beat_every = to_duration(config.heartbeat_interval_s);
    const std::string beat = encode_heartbeat();
    std::unique_lock<std::mutex> stop_lock(stop_mutex);
    while (!stop_signal.wait_for(stop_lock, beat_every,
                                 [&]() { return stopping; })) {
      if (steady_ns(Clock::now()) < link.blackhole_until_ns.load()) continue;
      std::lock_guard<std::mutex> lock(link.write_mutex);
      if (link.sock.valid())  // EOF comes later; session_key guarded by lock
        (void)common::write_frame(link.sock.fd(),
                                  seal_frame(beat, session_key));
    }
  });

  std::optional<ScenarioSpec> spec;  // from the WELCOME
  std::vector<CampaignPoint> points;

  int exit_code = -1;  // < 0: keep serving
  bool need_reconnect = false;

  const auto compute = [&](int index) {
    return compute_points(*spec, {points[static_cast<std::size_t>(index)]},
                          common::ThreadPool::shared())
        .front();
  };

  const auto compute_and_send = [&](int index) {
    const std::string bytes = compute(index);
    if (!send(encode_result(index, bytes))) need_reconnect = true;
    return bytes;
  };

  const auto on_assign = [&](const std::string& frame) {
    const auto assignments = parse_assign(frame);
    if (!assignments || !spec) {
      exit_code = 1;
      return;
    }
    const int total = static_cast<int>(points.size());
    for (const Assignment& assignment : *assignments) {
      if (assignment.index < 0 || assignment.index >= total) {
        exit_code = 1;
        return;
      }
      switch (
          chaos_action(config.chaos, assignment.index, assignment.attempt)) {
        case ChaosAction::kSigkill:
          ::raise(SIGKILL);
          break;
        case ChaosAction::kHang:
          ::raise(SIGSTOP);  // silent: the coordinator's timeout saves us
          break;
        case ChaosAction::kBadExit:
          exit_code = kChaosBadExitCode;
          return;
        case ChaosAction::kTruncate: {
          // The lying worker: half a (sealed) result frame, then a "clean"
          // exit. Tearing happens above the MAC layer, so the coordinator
          // sees exactly a worker dying mid-result.
          const std::string payload =
              encode_result(assignment.index, "chaos-torn-frame");
          std::lock_guard<std::mutex> lock(link.write_mutex);
          if (link.sock.valid())
            write_torn_frame(link.sock.fd(),
                             seal_frame(payload, session_key));
          exit_code = 0;
          return;
        }
        case ChaosAction::kNetDrop:
          // Abrupt connection loss mid-shard; the coordinator charges the
          // in-flight point and this worker re-registers fresh.
          need_reconnect = true;
          drop_connection();
          return;
        case ChaosAction::kNetPartition: {
          // Heartbeat blackhole: go silent long enough to be evicted,
          // then deliver the result late (dedup is the store's problem).
          const auto until =
              Clock::now() + to_duration(config.chaos.net_partition_s);
          link.blackhole_until_ns.store(steady_ns(until));
          std::this_thread::sleep_until(until);
          compute_and_send(assignment.index);
          if (need_reconnect) return;
          continue;
        }
        case ChaosAction::kNetTorn: {
          // A frame cut mid-payload by the connection dropping.
          const std::string payload = compute(assignment.index);
          {
            std::lock_guard<std::mutex> lock(link.write_mutex);
            if (link.sock.valid())
              write_torn_frame(
                  link.sock.fd(),
                  seal_frame(encode_result(assignment.index, payload),
                             session_key));
          }
          need_reconnect = true;
          drop_connection();
          return;
        }
        case ChaosAction::kNetDuplicate: {
          const std::string bytes = compute_and_send(assignment.index);
          if (!need_reconnect)
            (void)send(encode_result(assignment.index, bytes));
          if (need_reconnect) return;
          continue;
        }
        case ChaosAction::kCoordinatorKill:
        case ChaosAction::kObjectBitflip:
          // Coordinator-family faults: the worker's half of the shared
          // draw is to behave normally — the coordinator acts on arrival.
        case ChaosAction::kNone:
          compute_and_send(assignment.index);
          if (need_reconnect) return;
          continue;
      }
    }
  };

  const auto on_frame = [&](const std::string& frame) {
    const auto type = message_type(frame);
    if (!type) {
      exit_code = 1;
      return;
    }
    switch (*type) {
      case MessageType::kWelcome: {
        if (spec) return;  // re-registration: the spec does not change
        const auto text = parse_welcome(frame);
        if (!text) {
          exit_code = 1;
          return;
        }
        try {
          ScenarioSpec parsed = ScenarioSpec::parse(*text);
          parsed.validate();  // it arrives from outside the process
          points = expand(parsed);
          spec = std::move(parsed);
        } catch (const std::exception& error) {
          std::fprintf(stderr, "sos_campaign serve: bad spec from coordinator: %s\n",
                       error.what());
          exit_code = 1;
        }
        return;
      }
      case MessageType::kReject: {
        const auto reason = parse_reject(frame);
        std::fprintf(stderr, "sos_campaign serve: rejected: %s\n",
                     reason ? reason->c_str() : "(malformed reject)");
        exit_code = 1;
        return;
      }
      case MessageType::kAssign:
        on_assign(frame);
        return;
      case MessageType::kHeartbeat:
        return;  // coordinator liveness; EOF is how we learn it died
      case MessageType::kShutdown:
        exit_code = 0;
        return;
      case MessageType::kHello:
      case MessageType::kResult:
        exit_code = 1;  // worker-to-coordinator messages from a coordinator
        return;
    }
  };

  // A healthy coordinator is never silent: it heartbeats every interval
  // and answers registration promptly. Total silence past this budget
  // means the link (or the coordinator) is dead in a way EOF never
  // reported — e.g. a reconnect that landed in a listen backlog nobody
  // accepts — so the worker drops the connection and spends a reconnect
  // instead of blocking on read(2) forever.
  const auto silence_budget = to_duration(
      std::max(config.connect_timeout_s, 20.0 * config.heartbeat_interval_s));
  auto last_heard = Clock::now();

  common::FrameBuffer frames;
  char buffer[65536];
  while (exit_code < 0) {
    if (need_reconnect) {
      if (!reconnect()) {
        exit_code = kExitFleetUnreachable;
        break;
      }
      need_reconnect = false;
      frames = common::FrameBuffer{};  // fresh stream, fresh decoder
      last_heard = Clock::now();
    }
    ::pollfd waiter{link.sock.fd(), POLLIN, 0};
    const int ready = ::poll(&waiter, 1, /*timeout_ms=*/100);
    if (ready <= 0) {
      if (Clock::now() - last_heard > silence_budget) need_reconnect = true;
      continue;
    }
    const long n = link.sock.read_some(buffer, sizeof(buffer));
    if (n == -1) continue;  // EINTR on the blocking worker socket
    if (n <= 0) {
      need_reconnect = true;  // EOF or reset: coordinator gone or evicted us
      continue;
    }
    last_heard = Clock::now();
    frames.feed(buffer, static_cast<std::size_t>(n));
    while (auto raw = frames.next_frame()) {
      // session_key is only rewritten by this same loop (via reconnect), so
      // reading it here without the write mutex is safe.
      if (auto frame = open_frame(*raw, session_key)) {
        on_frame(*frame);
      } else if (auto control = open_frame(*raw, base_key);
                 control && (message_type(*control) == MessageType::kReject ||
                             message_type(*control) ==
                                 MessageType::kShutdown)) {
        // Base-sealed control traffic: a REJECT before any session key is
        // agreed, or the SHUTDOWN a settling coordinator sends to a
        // reconnect it never handshook with.
        on_frame(*control);
      } else {
        const std::string peeked{peek_frame_unverified(*raw)};
        if (message_type(peeked) == MessageType::kReject) {
          // Sealed under a key this worker does not share (pre-shared key
          // mismatch): the reason cannot be verified, but it is the only
          // diagnostic the operator will ever get — print it and give up,
          // since registration can never succeed.
          const auto reason = parse_reject(peeked);
          std::fprintf(stderr,
                       "sos_campaign serve: rejected (unverified): %s\n",
                       reason ? reason->c_str() : "(malformed reject)");
          exit_code = 1;
        } else {
          need_reconnect = true;  // unauthenticated bytes: not our peer
        }
      }
      if (exit_code >= 0 || need_reconnect) break;
    }
    if (exit_code < 0 && frames.corrupt()) need_reconnect = true;
  }

  {
    std::lock_guard<std::mutex> stop_lock(stop_mutex);
    stopping = true;
  }
  stop_signal.notify_one();
  beater.join();
  drop_connection();
  return exit_code;
}

}  // namespace sos::campaign
