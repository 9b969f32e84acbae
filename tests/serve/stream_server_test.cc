// End-to-end serving-loop tests: mixed record streams in, ordered result
// records out, results bit-identical to offline solves for any pool size.
#include "serve/stream_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <istream>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "solver/registry.h"
#include "tree/io.h"
#include "tree/tree.h"

namespace treeplace::serve {
namespace {

/// Fixed layout so delta records can target known ids: internal nodes
/// 0, 1, 2, 6; clients 3, 4, 5, 7.
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

/// A stream with two trees and delta requests against both.
std::string make_stream() {
  std::ostringstream out;
  out << serialize_tree(make_tree(0));
  out << serialize_tree(make_tree(1));
  out << "treeplace-scenario v1 1\nE 2\nE 6 0\n";
  out << "treeplace-scenario v1 2\nZ\nR 3 7\n";
  out << "treeplace-scenario v1 1\nE 2\nX 2\n";
  return out.str();
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

TEST(StreamServerTest, ServesTreesAndDeltasInOrder) {
  std::istringstream in(make_stream());
  std::ostringstream out;
  StreamServer server(single_mode_config(2));
  const StreamServerSummary summary = server.serve(in, out);

  EXPECT_EQ(summary.requests, 5u);
  EXPECT_EQ(summary.ok, 5u);
  EXPECT_EQ(summary.errors, 0u);
  EXPECT_EQ(summary.cache.hits, 3u);

  const auto lines = result_lines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("id=" + std::to_string(i + 1) + " "),
              std::string::npos)
        << "out-of-order record: " << lines[i];
    EXPECT_NE(lines[i].find("status=ok"), std::string::npos);
  }
  // Requests 1 and 3 share topology "1", 2 and 4 topology "2".
  EXPECT_NE(lines[2].find("topo=1"), std::string::npos);
  EXPECT_NE(lines[3].find("topo=2"), std::string::npos);
}

TEST(StreamServerTest, OutputIdenticalForAnyPoolSize) {
  std::string serial_output;
  {
    std::istringstream in(make_stream());
    std::ostringstream out;
    StreamServer server(single_mode_config(1));
    server.serve(in, out);
    serial_output = out.str();
  }
  for (const std::size_t threads : {2u, 4u}) {
    std::istringstream in(make_stream());
    std::ostringstream out;
    StreamServer server(single_mode_config(threads));
    server.serve(in, out);
    // Result records (costs, placements, order) are bit-identical; only
    // the timing fields differ, so compare with timings stripped.
    const auto strip = [](const std::string& s) {
      std::istringstream is(s);
      std::string line;
      std::string kept;
      while (std::getline(is, line)) {
        if (line.rfind("result ", 0) != 0) continue;
        kept += line.substr(0, line.find(" queue_s="));
        kept += '\n';
      }
      return kept;
    };
    EXPECT_EQ(strip(out.str()), strip(serial_output)) << threads;
  }
}

TEST(StreamServerTest, DeltaSolveMatchesOfflineSolve) {
  // Request 3 marks nodes 2 and 6 of tree 1 pre-existing; the served
  // result must match solving the equivalent instance directly.
  std::istringstream in(make_stream());
  std::ostringstream out;
  StreamServer server(single_mode_config(2));
  server.serve(in, out);
  const auto lines = result_lines(out.str());
  ASSERT_EQ(lines.size(), 5u);

  Tree tree = make_tree(0);
  tree.set_pre_existing(2);
  tree.set_pre_existing(6);
  const auto solver = make_solver("update-dp");
  const Solution expected = solver->solve(
      Instance::single_mode(std::move(tree), 10, 0.1, 0.01));
  std::ostringstream expected_cost;
  expected_cost << "cost=" << expected.breakdown.cost;
  EXPECT_NE(lines[2].find(expected_cost.str()), std::string::npos)
      << lines[2] << " vs " << expected_cost.str();
}

TEST(StreamServerTest, UnknownTopologyKeyBecomesErrorRecord) {
  std::istringstream in("treeplace-scenario v1 9\nR 1 2\n" +
                        serialize_tree(make_tree(0)));
  std::ostringstream out;
  StreamServer server(single_mode_config(2));
  const StreamServerSummary summary = server.serve(in, out);

  EXPECT_EQ(summary.requests, 2u);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.ok, 1u);
  const auto lines = result_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("status=error"), std::string::npos);
  EXPECT_NE(lines[0].find("unknown topology"), std::string::npos);
  EXPECT_NE(lines[1].find("status=ok"), std::string::npos);
}

TEST(StreamServerTest, BadDeltaTargetBecomesErrorRecord) {
  // Node 0 is the root (internal): R on it must fail that request only.
  std::istringstream in(serialize_tree(make_tree(0)) +
                        "treeplace-scenario v1 1\nR 0 5\n");
  std::ostringstream out;
  StreamServer server(single_mode_config(1));
  const StreamServerSummary summary = server.serve(in, out);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.ok, 1u);
}

TEST(StreamServerTest, MultiModeServing) {
  StreamServerConfig config;
  config.dispatcher.algos = {"power-sym"};
  config.dispatcher.threads = 2;
  config.modes = ModeSet({5, 10}, 12.5, 3.0);
  config.costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  config.project_original_modes = false;

  std::istringstream in(serialize_tree(make_tree(0)) +
                        "treeplace-scenario v1 1\nE 2 1\n");
  std::ostringstream out;
  StreamServer server(std::move(config));
  const StreamServerSummary summary = server.serve(in, out);
  EXPECT_EQ(summary.ok, 2u);
  const auto lines = result_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("frontier="), std::string::npos);
}

TEST(StreamServerTest, DeltaRequestsRunWarmSessions) {
  // All five requests (two tree records, three delta records) route
  // through their topology's SolveSession: update-dp is incremental-
  // capable, so every solve counts as warm and the summary reports it.
  // No flags involved — sessions are automatic.
  std::istringstream in(make_stream());
  std::ostringstream out;
  StreamServer server(single_mode_config(2));
  const StreamServerSummary summary = server.serve(in, out);
  ASSERT_EQ(summary.dispatcher.per_solver.size(), 1u);
  EXPECT_EQ(summary.dispatcher.per_solver[0].warm, 5u);
  EXPECT_NE(out.str().find(" warm=5"), std::string::npos);
}

TEST(StreamServerTest, MalformedStreamStillFlushesResultsAndSummary) {
  // The stream dies mid-record after two good requests: everything already
  // dispatched is emitted in order, the summary block still prints, and
  // the failure is reported in summary.stream_error (the CLI maps it to a
  // nonzero exit).
  std::istringstream in(serialize_tree(make_tree(0)) +
                        "treeplace-scenario v1 1\nR 3 2\n"
                        "treeplace-scenario v1 1\nR 3 garbage\n");
  std::ostringstream out;
  StreamServer server(single_mode_config(2));
  const StreamServerSummary summary = server.serve(in, out);

  EXPECT_TRUE(summary.stream_error);
  EXPECT_FALSE(summary.stream_error_message.empty());
  EXPECT_EQ(summary.requests, 2u);
  EXPECT_EQ(summary.ok, 2u);
  const auto lines = result_lines(out.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("id=1 "), std::string::npos);
  EXPECT_NE(lines[1].find("id=2 "), std::string::npos);
  EXPECT_NE(out.str().find("# serve: stream error:"), std::string::npos);
  EXPECT_NE(out.str().find("# solver update-dp:"), std::string::npos);
}

/// `prefix`, then `x_bytes` of 'x' with no newline, handed out in 4 KiB
/// pieces; counts what the reader consumed.
class OversizedTailBuf : public std::streambuf {
 public:
  OversizedTailBuf(std::string prefix, std::size_t x_bytes)
      : prefix_(std::move(prefix)), left_(x_bytes) {
    setg(prefix_.data(), prefix_.data(), prefix_.data() + prefix_.size());
  }
  std::size_t consumed() const {
    return produced_ - static_cast<std::size_t>(egptr() - gptr());
  }

 protected:
  int_type underflow() override {
    if (left_ == 0) return traits_type::eof();
    const std::size_t n = std::min(piece_.size(), left_);
    left_ -= n;
    produced_ += n;
    setg(piece_.data(), piece_.data(), piece_.data() + n);
    return traits_type::to_int_type(piece_[0]);
  }

 private:
  std::string prefix_;
  std::string piece_ = std::string(4096, 'x');
  std::size_t left_;
  std::size_t produced_ = prefix_.size();
};

TEST(StreamServerTest, OversizedLineIsRejectedBeforeItIsBuffered) {
  // The tree record is complete (the scenario header ends it); the next
  // line runs 64 MiB without a newline.  The tree is served, the stream
  // fails on the line, and the reader gives up at the 1 MiB line limit.
  OversizedTailBuf buf(serialize_tree(make_tree(0)) +
                           "treeplace-scenario v1 1\n",
                       64u << 20);
  std::istream in(&buf);
  std::ostringstream out;
  StreamServer server(single_mode_config(2));
  const StreamServerSummary summary = server.serve(in, out);

  EXPECT_TRUE(summary.stream_error);
  EXPECT_NE(summary.stream_error_message.find("oversized line"),
            std::string::npos)
      << summary.stream_error_message;
  EXPECT_EQ(summary.ok, 1u);
  const auto lines = result_lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("id=1 topo=1 status=ok"), std::string::npos);
  EXPECT_LE(buf.consumed(), 2u << 20);
}

/// Output that reaches its device only on flush (or a full buffer), so a
/// test can see what a pipe reader would have received.
class DeviceBuf : public std::streambuf {
 public:
  DeviceBuf() { setp(buffer_, buffer_ + sizeof(buffer_)); }
  const std::string& device() const { return device_; }

 protected:
  int sync() override {
    device_.append(pbase(), pptr());
    setp(buffer_, buffer_ + sizeof(buffer_));
    return 0;
  }
  int_type overflow(int_type c) override {
    sync();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }

 private:
  char buffer_[4096];
  std::string device_;
};

/// Input that hands out `head`, then reaches the point where a pipe read
/// would block: it records what `out` had delivered by then, and ends.
class BlockingAfterHeadBuf : public std::streambuf {
 public:
  BlockingAfterHeadBuf(std::string head, const DeviceBuf& out)
      : head_(std::move(head)), out_(out) {
    setg(head_.data(), head_.data(), head_.data() + head_.size());
  }
  bool blocked() const { return blocked_; }
  const std::string& delivered_when_blocked() const { return delivered_; }

 protected:
  int_type underflow() override {
    if (!blocked_) {
      blocked_ = true;
      delivered_ = out_.device();
    }
    return traits_type::eof();
  }

 private:
  std::string head_;
  const DeviceBuf& out_;
  bool blocked_ = false;
  std::string delivered_;
};

TEST(StreamServerTest, ResultsAreWrittenBeforeAReadThatWouldBlock) {
  // The scenario header completes the tree record; then the producer
  // pauses.  The tree's result must reach the output device before the
  // server blocks on the next read, or a producer that waits for it
  // would hang.
  DeviceBuf device;
  std::ostream out(&device);
  BlockingAfterHeadBuf buf(serialize_tree(make_tree(0)) +
                               "treeplace-scenario v1 1\nR 3 7\n",
                           device);
  std::istream in(&buf);
  StreamServer server(single_mode_config(2));
  const StreamServerSummary summary = server.serve(in, out);

  EXPECT_FALSE(summary.stream_error);
  ASSERT_TRUE(buf.blocked());
  const auto early = result_lines(buf.delivered_when_blocked());
  ASSERT_EQ(early.size(), 1u) << buf.delivered_when_blocked();
  EXPECT_NE(early[0].find("id=1 topo=1 status=ok"), std::string::npos);
  EXPECT_EQ(result_lines(device.device()).size(), 2u) << device.device();
}

TEST(ServeCoreTest, ConnectionHoldsAtMostQueueCapacityResults) {
  // Finished results wait in their connection until every earlier one is
  // written; the core stops submitting for a connection that holds
  // queue_capacity() unwritten results, so they cannot pile up behind a
  // slow request.  Steps the core as StreamServer::serve does, except
  // that completions are taken before output is written.
  StreamServerConfig config = single_mode_config(2);
  config.dispatcher.queue_capacity = 3;
  ServeCore core(config);
  Connection conn(-1, 0);
  std::string stream = serialize_tree(make_tree(0));
  for (int i = 0; i < 40; ++i) {
    stream += "treeplace-scenario v1 1\nR 3 " + std::to_string(i % 5 + 1) +
              "\n";
  }
  const std::span<char> buf = conn.writable(stream.size());
  std::memcpy(buf.data(), stream.data(), stream.size());
  conn.commit(stream.size());
  conn.pump();
  conn.input_done();

  std::size_t peak = 0;
  while (true) {
    for (ServeCore::Completion& c : core.take_completions()) {
      conn.complete(c.seq, std::move(c.result));
    }
    core.process_requests(conn);
    peak = std::max(peak, conn.in_flight());
    core.flush_completed(conn);
    if (conn.ready_requests().empty() && conn.in_flight() == 0) break;
    core.wake().wait();
    conn.stalled = false;
    core.stalled.clear();
  }
  EXPECT_LE(peak, 3u);
  EXPECT_EQ(core.summary.requests, 41u);
  EXPECT_EQ(core.summary.ok, 41u);
  const std::span<const char> out = conn.out().pending();
  EXPECT_EQ(result_lines(std::string(out.data(), out.size())).size(), 41u);
}

TEST(StreamServerTest, SummaryReportsLatencyStats) {
  std::istringstream in(make_stream());
  std::ostringstream out;
  StreamServer server(single_mode_config(2));
  const StreamServerSummary summary = server.serve(in, out);
  ASSERT_EQ(summary.dispatcher.per_solver.size(), 1u);
  EXPECT_EQ(summary.dispatcher.per_solver[0].solves, 5u);
  EXPECT_GT(summary.dispatcher.per_solver[0].total_solve_seconds, 0.0);
  EXPECT_NE(out.str().find("# solver update-dp:"), std::string::npos);
  EXPECT_NE(out.str().find("# cache:"), std::string::npos);
}

}  // namespace
}  // namespace treeplace::serve
