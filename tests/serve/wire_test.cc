// Wire-framing tests: incremental line framing, shared result rendering,
// and the latency histogram behind the serve summary's p50/p99 lines.
// The serve grammar's record parser is tested in request_stream_test.cc.
#include "serve/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "support/check.h"

namespace treeplace::serve {
namespace {

/// Pushes `bytes` into the buffer through the socket-facing interface.
void push(LineBuffer& buf, std::string_view bytes) {
  const std::span<char> dst = buf.writable(bytes.size());
  std::memcpy(dst.data(), bytes.data(), bytes.size());
  buf.commit(bytes.size());
}

TEST(LineBufferTest, FramesLinesAcrossArbitraryFragments) {
  LineBuffer buf;
  push(buf, "hel");
  EXPECT_FALSE(buf.next_line().has_value());
  push(buf, "lo\nwor");
  auto line = buf.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "hello");
  EXPECT_FALSE(buf.next_line().has_value());  // "wor" is partial
  EXPECT_TRUE(buf.mid_line());
  push(buf, "ld\n");
  line = buf.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "world");
  EXPECT_FALSE(buf.mid_line());
}

TEST(LineBufferTest, StripsCarriageReturns) {
  LineBuffer buf;
  push(buf, "a b c\r\n\r\nplain\n");
  EXPECT_EQ(buf.next_line().value(), "a b c");
  EXPECT_EQ(buf.next_line().value(), "");  // CRLF blank line
  EXPECT_EQ(buf.next_line().value(), "plain");
}

TEST(LineBufferTest, TakeRestReturnsFinalUnterminatedLine) {
  LineBuffer buf;
  push(buf, "done\nhalf a line\r");
  EXPECT_EQ(buf.next_line().value(), "done");
  EXPECT_FALSE(buf.next_line().has_value());
  auto rest = buf.take_rest();
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(*rest, "half a line");  // trailing CR stripped, as getline would
  EXPECT_FALSE(buf.take_rest().has_value());
  EXPECT_EQ(buf.buffered_bytes(), 0u);
}

TEST(LineBufferTest, OversizedLineThrows) {
  LineBuffer buf(/*max_line_bytes=*/16);
  push(buf, std::string(17, 'x'));  // unterminated and already too long
  EXPECT_THROW(buf.next_line(), CheckError);

  LineBuffer ok(/*max_line_bytes=*/16);
  push(ok, std::string(16, 'y') + "\n");
  EXPECT_EQ(ok.next_line().value(), std::string(16, 'y'));
}

TEST(LineBufferTest, ReusesStorageAcrossManyLines) {
  // Steady-state framing must not grow the buffer: consumed bytes are
  // compacted away on the next writable() call.
  LineBuffer buf;
  for (int i = 0; i < 10000; ++i) {
    push(buf, "treeplace-scenario v1 1\nR 3 5\n");
    ASSERT_TRUE(buf.next_line().has_value());
    ASSERT_TRUE(buf.next_line().has_value());
  }
  EXPECT_EQ(buf.buffered_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// OutputBuffer

TEST(OutputBufferTest, AppendsAndConsumesInOrder) {
  OutputBuffer out;
  out.append("result a\n");
  out.append("result b\n");
  EXPECT_EQ(out.size(), 18u);
  const auto pending = out.pending();
  EXPECT_EQ(std::string_view(pending.data(), 8), "result a");
  out.consume(9);
  EXPECT_EQ(std::string_view(out.pending().data(), out.size()), "result b\n");
  out.consume(9);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------------
// Result rendering

TEST(RenderResultTest, ErrorAndTimingShapes) {
  ServeResult failed;
  failed.error = "boom";
  const RenderedResult rendered =
      render_result(3, "7", failed, ResultFormat{true, false});
  EXPECT_EQ(rendered.status, ResultStatus::kError);
  EXPECT_EQ(rendered.line.rfind("result id=3 topo=7 status=error", 0), 0u);
  EXPECT_NE(rendered.line.find("error=\"boom\""), std::string::npos);
  EXPECT_EQ(rendered.line.back(), '\n');
}

TEST(RenderResultTest, StripTimingsRemovesOnlyTimingFields) {
  const std::string block =
      "result id=1 topo=1 status=ok cost=3 queue_s=0.125 solve_s=0.5 "
      "work=9 placement=0:0\n"
      "# serve: done\n";
  const std::string stripped = strip_timings(block);
  EXPECT_EQ(stripped,
            "result id=1 topo=1 status=ok cost=3 work=9 placement=0:0\n"
            "# serve: done\n");
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogramTest, PercentilesBracketTheSamples) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.percentile(0.5), 0.0);  // empty
  for (int i = 0; i < 90; ++i) hist.record(1e-3);
  for (int i = 0; i < 10; ++i) hist.record(2.0);
  EXPECT_EQ(hist.count(), 100u);
  const double p50 = hist.percentile(0.5);
  EXPECT_GE(p50, 1e-3);
  EXPECT_LT(p50, 2e-3);  // ~25% bucket resolution
  const double p99 = hist.percentile(0.99);
  EXPECT_GE(p99, 2.0);
  EXPECT_LT(p99, 3.0);
}

}  // namespace
}  // namespace treeplace::serve
