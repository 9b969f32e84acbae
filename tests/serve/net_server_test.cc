// End-to-end tests for the async TCP serving front-end: real loopback
// sockets against an in-process NetServer.  The contracts under test are
// the tentpole claims — per-connection result ordering, bit-identity with
// single-stream StreamServer, backpressure via read-masking when the
// dispatcher queue is full, graceful drain losing no in-flight result,
// and both poller backends serving identically.
#include "serve/net_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/stream_server.h"
#include "tree/io.h"
#include "tree/tree.h"

namespace treeplace::serve {
namespace {

/// Same fixed layout as the stream-server tests: internal nodes 0, 1, 2, 6;
/// clients 3, 4, 5, 7.
Tree make_tree(RequestCount variant) {
  TreeBuilder b;
  const NodeId root = b.add_root();       // 0
  const NodeId a = b.add_internal(root);  // 1
  const NodeId c = b.add_internal(root);  // 2
  b.add_client(a, 5 + variant);           // 3
  b.add_client(a, 3);                     // 4
  b.add_client(c, 4);                     // 5
  const NodeId d = b.add_internal(c);     // 6
  b.add_client(d, 2 + variant);           // 7
  return std::move(b).build();
}

StreamServerConfig single_mode_config(std::size_t threads) {
  StreamServerConfig config;
  config.dispatcher.algos = {"update-dp"};
  config.dispatcher.threads = threads;
  config.modes = ModeSet::single(10);
  config.costs = CostModel::simple(0.1, 0.01);
  config.project_original_modes = true;
  return config;
}

/// One tree plus deltas — the per-connection conversation.
std::string make_stream(RequestCount variant = 0) {
  std::ostringstream out;
  out << serialize_tree(make_tree(variant));
  out << "treeplace-scenario v1 1\nE 2\nE 6 0\n";
  out << "treeplace-scenario v1 1\nZ\nR 3 7\n";
  out << "treeplace-scenario v1 1\nE 2\nX 2\n";
  return out.str();
}

/// What StreamServer emits for `stream`, result lines only, timings
/// stripped — the bit-identity reference for one connection.
std::string stream_reference(const std::string& stream) {
  std::istringstream in(stream);
  std::ostringstream out;
  StreamServer server(single_mode_config(2));
  server.serve(in, out);
  std::istringstream lines(out.str());
  std::string line;
  std::string results;
  while (std::getline(lines, line)) {
    if (line.rfind("result ", 0) == 0) results += line + "\n";
  }
  return strip_timings(results);
}

// ---------------------------------------------------------------------------
// Blocking loopback client helpers (the test is the client; the server
// under test is the nonblocking side).

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << "connect: " << strerror(errno);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send: " << strerror(errno);
    off += static_cast<std::size_t>(n);
  }
}

/// Reads until the server closes; `clean` (when given) reports whether it
/// closed with a FIN rather than a reset.
std::string recv_to_eof(int fd, bool* clean = nullptr) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (clean != nullptr) *clean = n == 0;
      break;
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

/// A NetServer running its loop on a background thread.
class RunningServer {
 public:
  explicit RunningServer(NetServerConfig config) : server_(std::move(config)) {
    port_ = server_.listen_and_bind();
    thread_ = std::thread([this] { summary_ = server_.run(summary_out_); });
  }
  ~RunningServer() {
    if (thread_.joinable()) stop();
  }

  NetServerSummary stop() {
    server_.shutdown();
    thread_.join();
    return summary_;
  }

  std::uint16_t port() const { return port_; }
  NetServer& server() { return server_; }

 private:
  NetServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::ostringstream summary_out_;
  NetServerSummary summary_;
};

NetServerConfig net_config(std::size_t threads, std::size_t cache_capacity) {
  NetServerConfig config;
  config.stream = single_mode_config(threads);
  config.stream.cache_capacity = cache_capacity;
  return config;
}

std::vector<std::string> result_lines(const std::string& output) {
  std::istringstream is(output);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("result ", 0) == 0) lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------

TEST(NetServerTest, SingleConnectionBitIdenticalToStreamServer) {
  const std::string stream = make_stream();
  RunningServer running(net_config(2, 8));

  const int fd = connect_loopback(running.port());
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);  // half-close: end of this client's records
  const std::string received = recv_to_eof(fd);
  ::close(fd);

  EXPECT_EQ(strip_timings(received), stream_reference(stream));

  const NetServerSummary summary = running.stop();
  EXPECT_EQ(summary.accepted, 1u);
  EXPECT_EQ(summary.requests, 4u);
  EXPECT_EQ(summary.ok, 4u);
  EXPECT_EQ(summary.protocol_errors, 0u);
  EXPECT_EQ(summary.dispatcher.per_solver[0].warm, 4u);
  EXPECT_GT(summary.bytes_in, 0u);
  EXPECT_GT(summary.bytes_out, 0u);
}

TEST(NetServerTest, ManyConcurrentConnectionsStayOrderedAndIdentical) {
  // 64 simultaneously open connections, three stream variants.  Every
  // connection must receive exactly what a fresh single-stream server
  // would emit for its own records — per-connection ordinal topo keys,
  // per-connection result order — no matter how solves interleave.
  constexpr int kConns = 64;
  RunningServer running(net_config(4, kConns + 4));

  std::string streams[3];
  std::string references[3];
  for (int v = 0; v < 3; ++v) {
    streams[v] = make_stream(static_cast<RequestCount>(v));
    references[v] = stream_reference(streams[v]);
  }

  std::vector<int> fds(kConns);
  for (int i = 0; i < kConns; ++i) fds[i] = connect_loopback(running.port());
  // All sockets are open before any byte is sent: peak concurrency kConns.
  for (int i = 0; i < kConns; ++i) {
    send_all(fds[i], streams[i % 3]);
    ::shutdown(fds[i], SHUT_WR);
  }
  for (int i = 0; i < kConns; ++i) {
    const std::string received = recv_to_eof(fds[i]);
    EXPECT_EQ(strip_timings(received), references[i % 3]) << "conn " << i;
    ::close(fds[i]);
  }

  const NetServerSummary summary = running.stop();
  EXPECT_EQ(summary.accepted, static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(summary.requests, static_cast<std::uint64_t>(kConns) * 4u);
  EXPECT_EQ(summary.ok, summary.requests);
  EXPECT_EQ(summary.errors, 0u);
}

TEST(NetServerTest, FullDispatcherQueueMasksReadsInsteadOfBuffering) {
  // One worker, queue capacity 1, one client pipelining 200 requests in a
  // single burst.  The loop must stop reading the socket whenever parsed
  // records are waiting on the queue — bounded memory — and still deliver
  // every result, in order.
  NetServerConfig config = net_config(1, 4);
  config.stream.dispatcher.threads = 1;
  config.stream.dispatcher.queue_capacity = 1;
  // A small read chunk so the burst spans many loop iterations.
  config.read_chunk = 512;
  RunningServer running(config);

  constexpr int kDeltas = 200;
  std::string stream = make_stream();
  for (int i = 0; i < kDeltas; ++i) {
    stream += "treeplace-scenario v1 1\nR 3 " + std::to_string(3 + i % 3) +
              "\n";
  }

  const int fd = connect_loopback(running.port());
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  const std::string received = recv_to_eof(fd);
  ::close(fd);

  const auto lines = result_lines(received);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kDeltas) + 4u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("id=" + std::to_string(i + 1) + " "),
              std::string::npos)
        << "out of order at " << i << ": " << lines[i];
  }

  const NetServerSummary summary = running.stop();
  EXPECT_EQ(summary.requests, static_cast<std::uint64_t>(kDeltas) + 4u);
  EXPECT_EQ(summary.ok + summary.infeasible, summary.requests);
  EXPECT_EQ(summary.errors, 0u);
  // The queue was genuinely full at least once (in practice: constantly).
  EXPECT_GT(summary.backpressure_stalls, 0u);
}

TEST(NetServerTest, GracefulDrainLosesNoInFlightResult) {
  // The client never half-closes; shutdown() arrives while requests are in
  // flight.  Drain must flush every submitted result to the socket before
  // closing it.
  RunningServer running(net_config(2, 8));

  const int fd = connect_loopback(running.port());
  // A record is only completed by the next header or EOF; the extra bare
  // header terminates record 4 without half-closing, leaving record 5
  // permanently in progress — drain must flush results 1-4 and is free to
  // discard the unfinished record 5.
  send_all(fd, make_stream() + "treeplace-scenario v1 1\n");
  // Give the loop time to read and submit the records, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  running.server().shutdown();

  const std::string received = recv_to_eof(fd);  // EOF = server closed
  ::close(fd);
  EXPECT_EQ(strip_timings(received), stream_reference(make_stream()));

  const NetServerSummary summary = running.stop();
  EXPECT_EQ(summary.requests, 4u);
  EXPECT_EQ(summary.ok, 4u);
  EXPECT_FALSE(summary.drain_timed_out);
}

TEST(NetServerTest, IdleConnectionsAreReaped) {
  NetServerConfig config = net_config(1, 4);
  config.idle_timeout_seconds = 0.05;
  RunningServer running(config);

  const int fd = connect_loopback(running.port());
  // Never send a byte: the server must close it for us.
  const std::string received = recv_to_eof(fd);
  ::close(fd);
  EXPECT_TRUE(received.empty());

  const NetServerSummary summary = running.stop();
  EXPECT_EQ(summary.accepted, 1u);
  EXPECT_EQ(summary.reaped_idle, 1u);
}

TEST(NetServerTest, ProtocolErrorFailsThatConnectionOnly) {
  RunningServer running(net_config(2, 8));

  const int bad = connect_loopback(running.port());
  send_all(bad, "this is not a record\n");
  ::shutdown(bad, SHUT_WR);
  const std::string bad_received = recv_to_eof(bad);
  ::close(bad);
  EXPECT_NE(bad_received.find("# protocol error:"), std::string::npos);

  // A well-behaved connection afterwards is unaffected.
  const int good = connect_loopback(running.port());
  send_all(good, make_stream());
  ::shutdown(good, SHUT_WR);
  const std::string good_received = recv_to_eof(good);
  ::close(good);
  EXPECT_EQ(strip_timings(good_received), stream_reference(make_stream()));

  const NetServerSummary summary = running.stop();
  EXPECT_EQ(summary.protocol_errors, 1u);
  EXPECT_EQ(summary.ok, 4u);
}

TEST(NetServerTest, MalformedRecordKeepsEarlierResultsAnySegmentation) {
  // A bad header ends the record before it; a bad delta line drops only
  // its own record.  Either way every earlier record is served exactly as
  // StreamServer serves it, then the protocol error note follows — whether
  // the bad line arrives in the same segment as the good ones or not, and
  // although the client keeps sending after it.
  const std::string more = "treeplace-scenario v1 1\nR 3 7\n";
  for (const std::string& bad : {"treeplace-frobnicate v1\n" + more,
                                 "treeplace-scenario v1 1\nQ 1\n" + more}) {
    const std::string stream = make_stream() + bad;
    const std::string reference = stream_reference(stream);
    ASSERT_EQ(result_lines(reference).size(), 4u) << bad;
    for (const bool byte_by_byte : {false, true}) {
      RunningServer running(net_config(2, 8));
      const int fd = connect_loopback(running.port());
      if (byte_by_byte) {
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        for (const char c : stream) send_all(fd, std::string(1, c));
      } else {
        send_all(fd, stream);
      }
      ::shutdown(fd, SHUT_WR);
      bool clean = false;
      const std::string received = strip_timings(recv_to_eof(fd, &clean));
      ::close(fd);
      // The server drains the bytes sent after the bad line before it
      // closes: closing on unread input would reset the connection and
      // could discard results still queued for the client.
      EXPECT_TRUE(clean) << bad;

      const std::size_t note = received.find("# protocol error: ");
      ASSERT_NE(note, std::string::npos) << bad << received;
      EXPECT_EQ(received.substr(0, note), reference) << bad;
      EXPECT_EQ(received.find('\n', note), received.size() - 1) << bad;

      const NetServerSummary summary = running.stop();
      EXPECT_EQ(summary.protocol_errors, 1u);
      EXPECT_EQ(summary.ok, 4u);
    }
  }
}

TEST(NetServerTest, PollBackendServesIdentically) {
  // Force the portable poll() backend through the env knob the Poller
  // factory reads; restore epoll (the default) afterwards.
  ::setenv("TREEPLACE_POLLER", "poll", 1);
  const std::string stream = make_stream(1);
  std::string received;
  {
    RunningServer running(net_config(2, 8));
    const int fd = connect_loopback(running.port());
    send_all(fd, stream);
    ::shutdown(fd, SHUT_WR);
    received = recv_to_eof(fd);
    ::close(fd);
    running.stop();
  }
  ::unsetenv("TREEPLACE_POLLER");
  EXPECT_EQ(strip_timings(received), stream_reference(stream));
}

TEST(NetServerTest, ArmTcpKeepaliveSetsAllFourSocketOptions) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(arm_tcp_keepalive(fd, 75));

  int value = 0;
  socklen_t len = sizeof(value);
  ASSERT_EQ(::getsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &value, &len), 0);
  EXPECT_NE(value, 0);
  len = sizeof(value);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &value, &len), 0);
  EXPECT_EQ(value, 75);
  len = sizeof(value);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &value, &len), 0);
  EXPECT_EQ(value, 25);  // max(1, 75 / 3)
  len = sizeof(value);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &value, &len), 0);
  EXPECT_EQ(value, 3);
  ::close(fd);

  // Sub-3-second idle clamps the probe interval to 1, never 0.
  const int fast = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fast, 0);
  EXPECT_TRUE(arm_tcp_keepalive(fast, 2));
  len = sizeof(value);
  ASSERT_EQ(::getsockopt(fast, IPPROTO_TCP, TCP_KEEPINTVL, &value, &len), 0);
  EXPECT_EQ(value, 1);
  ::close(fast);
}

TEST(NetServerTest, ArmTcpKeepaliveIsBestEffortOnBadInput) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  EXPECT_FALSE(arm_tcp_keepalive(fd, 0));   // disabled: no-op, reports false
  EXPECT_FALSE(arm_tcp_keepalive(fd, -5));  // negative idle never armed
  ::close(fd);
  EXPECT_FALSE(arm_tcp_keepalive(-1, 60));  // bad fd: false, no throw
}

TEST(NetServerTest, KeepaliveConfigArmsAcceptedSockets) {
  NetServerConfig config = net_config(2, 8);
  config.keepalive_seconds = 120;
  RunningServer running(config);

  const int fd = connect_loopback(running.port());
  const std::string stream = make_stream();
  send_all(fd, stream);
  ::shutdown(fd, SHUT_WR);
  // Keepalive hardening must not perturb the served bytes.
  const std::string received = recv_to_eof(fd);
  ::close(fd);
  EXPECT_EQ(strip_timings(received), stream_reference(stream));
  running.stop();
}

}  // namespace
}  // namespace treeplace::serve
