// Serve request-stream tests: the grammar RecordParser reads on stdin and
// over TCP -- tree records with ordinal topology keys, scenario records
// with their deltas, comments, malformed and truncated records, oversized
// lines and CRLF streams.  The error messages are pinned too: stdin
// stream-error lines and TCP protocol-error notes carry them.
#include "serve/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "gen/tree_gen.h"
#include "support/check.h"
#include "tree/io.h"

namespace treeplace::serve {
namespace {

/// Pushes `bytes` into the buffer through the socket-facing interface.
void push(LineBuffer& buf, std::string_view bytes) {
  const std::span<char> dst = buf.writable(bytes.size());
  std::memcpy(dst.data(), bytes.data(), bytes.size());
  buf.commit(bytes.size());
}

std::string tree_record(std::uint64_t index = 0) {
  TreeGenConfig config;
  config.num_internal = 5;
  return serialize_tree(generate_tree(config, /*seed=*/91, index));
}

/// Runs a whole stream through the parser, line by line (getline framing,
/// as stdin mode does).
std::vector<ServeRequest> parse_all(const std::string& text) {
  RecordParser parser;
  std::vector<ServeRequest> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (auto done = parser.feed(line)) out.push_back(std::move(*done));
  }
  if (auto done = parser.finish()) out.push_back(std::move(*done));
  return out;
}

/// Runs a stream through the socket path: LineBuffer framing (CR strip,
/// oversized-line guard, unterminated tail) into the parser.
std::vector<ServeRequest> parse_framed(const std::string& bytes) {
  LineBuffer buf;
  RecordParser parser;
  std::vector<ServeRequest> out;
  const auto sink = [&](ServeRequest request) {
    out.push_back(std::move(request));
  };
  push(buf, bytes);
  while (auto line = buf.next_line()) feed_line(parser, *line, sink);
  if (auto rest = buf.take_rest()) feed_line(parser, *rest, sink);
  if (auto done = parser.finish()) sink(std::move(*done));
  return out;
}

/// The message of the CheckError `text` raises, without its check
/// location; empty when it parses.
std::string parse_error(const std::string& text) {
  try {
    parse_all(text);
  } catch (const CheckError& e) {
    const std::string what = e.what();
    const std::size_t dash = what.find(" — ");
    return dash == std::string::npos ? what
                                     : what.substr(dash + std::strlen(" — "));
  }
  return "";
}

TEST(RecordParserTest, TreeRecordGetsOrdinalKey) {
  RecordParser parser;
  std::vector<ServeRequest> out;
  std::istringstream is(tree_record(0) + tree_record(1));
  std::string line;
  while (std::getline(is, line)) {
    if (auto done = parser.feed(line)) out.push_back(std::move(*done));
  }
  if (auto done = parser.finish()) out.push_back(std::move(*done));

  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 1u);
  EXPECT_EQ(out[0].topology_key, "1");
  ASSERT_TRUE(out[0].tree.has_value());
  EXPECT_EQ(serialize_tree(*out[0].tree), tree_record(0));
  EXPECT_TRUE(out[0].deltas.empty());
  EXPECT_EQ(out[1].id, 2u);
  EXPECT_EQ(out[1].topology_key, "2");
  EXPECT_EQ(serialize_tree(*out[1].tree), tree_record(1));
  EXPECT_EQ(parser.requests_read(), 2u);
  EXPECT_EQ(parser.trees_read(), 2u);
}

TEST(RecordParserTest, ScenarioRecordParsesDeltas) {
  const auto out = parse_all(tree_record() +
                             "treeplace-scenario v1 1\n"
                             "R 3 7\n"
                             "E 2 1\n"
                             "E 4\n"
                             "X 2\n"
                             "Z\n");
  ASSERT_EQ(out.size(), 2u);
  const ServeRequest& request = out[1];
  EXPECT_EQ(request.id, 2u);
  EXPECT_EQ(request.topology_key, "1");
  EXPECT_FALSE(request.tree.has_value());
  ASSERT_EQ(request.deltas.size(), 5u);

  EXPECT_EQ(request.deltas[0].op, ScenarioDelta::Op::kSetRequests);
  EXPECT_EQ(request.deltas[0].node, 3);
  EXPECT_EQ(request.deltas[0].requests, 7u);

  EXPECT_EQ(request.deltas[1].op, ScenarioDelta::Op::kSetPreExisting);
  EXPECT_EQ(request.deltas[1].node, 2);
  EXPECT_EQ(request.deltas[1].mode, 1);

  // E without a mode defaults to original mode 0.
  EXPECT_EQ(request.deltas[2].op, ScenarioDelta::Op::kSetPreExisting);
  EXPECT_EQ(request.deltas[2].node, 4);
  EXPECT_EQ(request.deltas[2].mode, 0);

  EXPECT_EQ(request.deltas[3].op, ScenarioDelta::Op::kClearPreExisting);
  EXPECT_EQ(request.deltas[3].node, 2);

  EXPECT_EQ(request.deltas[4].op, ScenarioDelta::Op::kClearAllPre);
}

TEST(RecordParserTest, MixedStreamKeysAndDeltas) {
  const auto out = parse_all(tree_record(0) + tree_record(1) +
                             "\n# comment\n"
                             "treeplace-scenario v1 1\nR 6 7\nE 2 1\nE 4\n"
                             "treeplace-scenario v1 2\nX 2\nZ\n");
  ASSERT_EQ(out.size(), 4u);
  const char* keys[] = {"1", "2", "1", "2"};
  const std::size_t num_deltas[] = {0, 0, 3, 2};
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].id, i + 1);
    EXPECT_EQ(out[i].topology_key, keys[i]);
    EXPECT_EQ(out[i].tree.has_value(), i < 2);
    EXPECT_EQ(out[i].deltas.size(), num_deltas[i]);
  }
  EXPECT_EQ(out[2].deltas[0].node, 6);
  EXPECT_EQ(out[2].deltas[0].requests, 7u);
  EXPECT_EQ(out[2].deltas[1].mode, 1);
  EXPECT_EQ(out[2].deltas[2].node, 4);
  EXPECT_EQ(out[3].deltas[0].op, ScenarioDelta::Op::kClearPreExisting);
  EXPECT_EQ(out[3].deltas[1].op, ScenarioDelta::Op::kClearAllPre);
}

TEST(RecordParserTest, ScenarioRecordMayPrecedeOrFollowAnyTree) {
  // Keys are resolved by the binder, not the parser: a scenario record
  // referencing a later (or absent) key still parses.
  const auto out = parse_all("treeplace-scenario v1 42\nR 1 2\n" +
                             tree_record());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].topology_key, "42");
  EXPECT_EQ(out[1].topology_key, "1");  // ordinal counts trees, not records
}

TEST(RecordParserTest, BlankLinesAndCommentsSkipped) {
  const auto out = parse_all(tree_record() +
                             "\n# a comment\n"
                             "treeplace-scenario v1 1\n"
                             "# another\n"
                             "R 3 9\n"
                             "\n");
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[1].deltas.size(), 1u);
  EXPECT_EQ(out[1].deltas[0].requests, 9u);
}

TEST(RecordParserTest, FinalRecordWithoutTrailingNewlineCompletes) {
  RecordParser parser;
  EXPECT_FALSE(parser.feed("treeplace-scenario v1 1").has_value());
  EXPECT_FALSE(parser.feed("R 6 7").has_value());
  EXPECT_TRUE(parser.in_record());
  auto last = parser.finish();
  ASSERT_TRUE(last.has_value());
  ASSERT_EQ(last->deltas.size(), 1u);
  EXPECT_EQ(last->deltas[0].requests, 7u);
  EXPECT_FALSE(parser.in_record());
}

TEST(RecordParserTest, MalformedRecordsThrowWithTheirMessage) {
  const struct {
    const char* stream;
    const char* error;
  } cases[] = {
      {"treeplace-scenario v1\nR 3 5\n",
       "scenario record without a topology key: 'treeplace-scenario v1'"},
      {"treeplace-scenario v1 1\nQ 1\n", "unknown delta tag 'Q' in 'Q 1'"},
      {"treeplace-scenario v1 1\nR 3\n", "malformed R delta: 'R 3'"},
      {"treeplace-scenario v1 1\nE 4 x\n", "malformed E delta: 'E 4 x'"},
      {"treeplace-scenario v1 1\nE 4 +-5\n", "malformed E delta: 'E 4 +-5'"},
      {"treeplace-scenario v1 1\nR 3 5 junk\n",
       "trailing garbage in delta line: 'R 3 5 junk'"},
      // Version matching is token-exact: v12 is not v1 with a key "2 1".
      {"treeplace-scenario v12 1\nR 3 5\n",
       "unknown record header: 'treeplace-scenario v12 1'"},
      {"treeplace-frobnicate v1\n",
       "unknown record header: 'treeplace-frobnicate v1'"},
      {"not a record\n", "bad record header: 'not a record'"},
      {"treeplace-tree v1\nI zero\n", "malformed tree line: 'I zero'"},
      {"treeplace-tree v1\nI 5 -1 0 -1\n",
       "node ids must be consecutive; expected 0, got 5"},
      {"treeplace-hello v2\n",
       "unsupported hello record: 'treeplace-hello v2'"},
      {"treeplace-hello v1 name=\n",
       "empty name= in hello: 'treeplace-hello v1 name='"},
      {"treeplace-hello v1 name=a name=b\n",
       "duplicate name= in hello: 'treeplace-hello v1 name=a name=b'"},
      {"treeplace-tree v1\nI 0 -1 0 -1\nC 1 0 3\ntreeplace-hello v1\n",
       "hello must be the first record of the stream"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(parse_error(c.stream), c.error) << c.stream;
  }
}

TEST(RecordParserTest, NegativeCountsAreRejected) {
  // A minus sign on a request count is malformed, not a huge count.
  EXPECT_EQ(parse_error("treeplace-scenario v1 1\nR 3 -5\n"),
            "malformed R delta: 'R 3 -5'");
  EXPECT_EQ(parse_error("treeplace-tree v1\nI 0 -1 0 -1\nC 1 0 -5\n"),
            "malformed client line: 'C 1 0 -5'");
}

TEST(RecordParserTest, TruncatedRecordsThrowOrEndCleanly) {
  // A tree line cut off mid-fields (connection dropped mid-write) is
  // malformed, not silently a smaller tree.
  EXPECT_EQ(parse_error("treeplace-tree v1\nI 0 -1 0 -1\nC 1 0\n"),
            "malformed client line: 'C 1 0'");
  // A header with nothing after it: a tree record truncated before its
  // body fails validation (a tree needs at least a root).
  EXPECT_EQ(parse_error("treeplace-tree v1\n"), "build() on empty builder");
  // EOF at a line boundary ends the record cleanly — half-close framing.
  const auto out =
      parse_framed(tree_record() + "treeplace-scenario v1 1\nR 6 7");
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[1].deltas.size(), 1u);
  EXPECT_EQ(out[1].deltas[0].requests, 7u);
}

TEST(RecordParserTest, InterleavedGarbageBetweenRecordsThrows) {
  // The garbage is claimed by the tree record's body (only a header ends a
  // record), so it surfaces as a malformed node line, not silence.
  EXPECT_EQ(parse_error(tree_record() + "some binary junk between records\n" +
                        "treeplace-scenario v1 1\nR 6 7\n"),
            "malformed tree line: 'some binary junk between records'");
}

TEST(RecordParserTest, OversizedLineThrowsAfterEarlierRecords) {
  LineBuffer buf;
  RecordParser parser;
  push(buf, tree_record() + "treeplace-scenario v1 1\nR 6 7 " +
                std::string(2u << 20, 'x') + "\n");
  std::vector<ServeRequest> out;
  EXPECT_THROW(
      {
        while (auto line = buf.next_line()) {
          feed_line(parser, *line,
                    [&](ServeRequest r) { out.push_back(std::move(r)); });
        }
      },
      CheckError);
  ASSERT_EQ(out.size(), 1u);  // the tree; the oversized line's record is lost
  EXPECT_TRUE(out[0].tree.has_value());
}

TEST(RecordParserTest, CrlfStreamsParseIdentically) {
  // The whole stream written with CRLF line endings (a Windows client or a
  // transcoding relay) must parse exactly like the LF original.
  const std::string lf =
      tree_record() + "treeplace-scenario v1 1\nR 6 7\nE 2 1\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const auto a = parse_framed(lf);
  const auto b = parse_framed(crlf);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].topology_key, b[i].topology_key);
    ASSERT_EQ(a[i].tree.has_value(), b[i].tree.has_value());
    if (a[i].tree) {
      EXPECT_EQ(serialize_tree(*a[i].tree), serialize_tree(*b[i].tree));
    }
    EXPECT_EQ(a[i].deltas.size(), b[i].deltas.size());
  }
}

TEST(RecordParserTest, EmptyStreamYieldsNothing) {
  RecordParser parser;
  for (const char* line : {"", "# only comments", ""}) {
    EXPECT_FALSE(parser.feed(line).has_value());
  }
  EXPECT_FALSE(parser.finish().has_value());
  EXPECT_EQ(parser.requests_read(), 0u);
}

TEST(RecordParserTest, IstreamNumberQuirksAreKept) {
  // The tag is one char, then the number ("R3 5"), and a leading '+' is
  // accepted, as istream extraction did.
  const auto out =
      parse_all(tree_record() + "treeplace-scenario v1 1\nR3 +7\n");
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[1].deltas.size(), 1u);
  EXPECT_EQ(out[1].deltas[0].node, 3);
  EXPECT_EQ(out[1].deltas[0].requests, 7u);
}

TEST(RecordParserTest, BadLineKeepsEveryRecordCompletedBeforeIt) {
  const std::string good = tree_record() + "treeplace-scenario v1 1\nR 6 7\n";
  // A bad header still ends the record before it; a bad body line drops
  // its own record.  Both leave the tree and the good delta.
  for (const std::string bad :
       {"treeplace-frobnicate v1\n", "treeplace-scenario v1 1\nQ 1\n"}) {
    std::vector<ServeRequest> out;
    EXPECT_THROW(parse_framed(good + bad), CheckError) << bad;
    RecordParser parser;
    std::istringstream is(good + bad);
    std::string line;
    try {
      while (std::getline(is, line)) {
        feed_line(parser, line,
                  [&](ServeRequest r) { out.push_back(std::move(r)); });
      }
      ADD_FAILURE() << "no throw: " << bad;
    } catch (const CheckError&) {
    }
    ASSERT_EQ(out.size(), 2u) << bad;
    EXPECT_EQ(out[0].id, 1u);
    EXPECT_EQ(out[1].id, 2u);
    ASSERT_EQ(out[1].deltas.size(), 1u);
    EXPECT_FALSE(parser.finish().has_value()) << bad;
  }
}

}  // namespace
}  // namespace treeplace::serve
