#include "serve/request_stream.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "gen/tree_gen.h"
#include "support/check.h"
#include "tree/io.h"

namespace treeplace::serve {
namespace {

std::string tree_record(std::uint64_t index = 0) {
  TreeGenConfig config;
  config.num_internal = 5;
  return serialize_tree(generate_tree(config, /*seed=*/91, index));
}

TEST(RequestStreamTest, TreeRecordGetsOrdinalKey) {
  std::istringstream is(tree_record(0) + tree_record(1));
  RequestStreamReader reader(is);

  auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 1u);
  EXPECT_EQ(first->topology_key, "1");
  ASSERT_TRUE(first->tree.has_value());
  EXPECT_TRUE(first->deltas.empty());

  auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, 2u);
  EXPECT_EQ(second->topology_key, "2");

  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.requests_read(), 2u);
  EXPECT_EQ(reader.trees_read(), 2u);
}

TEST(RequestStreamTest, ScenarioRecordParsesDeltas) {
  std::istringstream is(tree_record() +
                        "treeplace-scenario v1 1\n"
                        "R 3 7\n"
                        "E 2 1\n"
                        "E 4\n"
                        "X 2\n"
                        "Z\n");
  RequestStreamReader reader(is);
  ASSERT_TRUE(reader.next().has_value());  // the tree record

  auto request = reader.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->topology_key, "1");
  EXPECT_FALSE(request->tree.has_value());
  ASSERT_EQ(request->deltas.size(), 5u);

  EXPECT_EQ(request->deltas[0].op, ScenarioDelta::Op::kSetRequests);
  EXPECT_EQ(request->deltas[0].node, 3);
  EXPECT_EQ(request->deltas[0].requests, 7u);

  EXPECT_EQ(request->deltas[1].op, ScenarioDelta::Op::kSetPreExisting);
  EXPECT_EQ(request->deltas[1].node, 2);
  EXPECT_EQ(request->deltas[1].mode, 1);

  // E without a mode defaults to original mode 0.
  EXPECT_EQ(request->deltas[2].op, ScenarioDelta::Op::kSetPreExisting);
  EXPECT_EQ(request->deltas[2].node, 4);
  EXPECT_EQ(request->deltas[2].mode, 0);

  EXPECT_EQ(request->deltas[3].op, ScenarioDelta::Op::kClearPreExisting);
  EXPECT_EQ(request->deltas[3].node, 2);

  EXPECT_EQ(request->deltas[4].op, ScenarioDelta::Op::kClearAllPre);
}

TEST(RequestStreamTest, ScenarioRecordMayPrecedeOrFollowAnyTree) {
  // Keys are resolved by the stream server, not the reader: a scenario
  // record referencing a later (or absent) key still parses.
  std::istringstream is(
      "treeplace-scenario v1 42\nR 1 2\n" + tree_record());
  RequestStreamReader reader(is);
  auto request = reader.next();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->topology_key, "42");
  auto tree = reader.next();
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->topology_key, "1");  // ordinal counts trees, not records
}

TEST(RequestStreamTest, BlankLinesAndCommentsSkipped) {
  std::istringstream is(tree_record() +
                        "\n# a comment\n"
                        "treeplace-scenario v1 1\n"
                        "# another\n"
                        "R 3 9\n"
                        "\n");
  RequestStreamReader reader(is);
  ASSERT_TRUE(reader.next().has_value());
  auto request = reader.next();
  ASSERT_TRUE(request.has_value());
  ASSERT_EQ(request->deltas.size(), 1u);
  EXPECT_EQ(request->deltas[0].requests, 9u);
}

TEST(RequestStreamTest, MalformedRecordsThrow) {
  {
    std::istringstream is("treeplace-scenario v1\n");  // missing key
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    std::istringstream is("treeplace-scenario v1 1\nQ 1\n");  // bad tag
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    std::istringstream is("treeplace-scenario v1 1\nR 3\n");  // missing value
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    std::istringstream is("treeplace-scenario v1 1\nE 4 x\n");  // bad mode
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    std::istringstream is("treeplace-scenario v1 1\nR 3 5 junk\n");
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    // Version matching is token-exact: v12 is not v1-with-a-key-of-"2 1".
    std::istringstream is("treeplace-scenario v12 1\nR 3 5\n");
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    std::istringstream is("treeplace-frobnicate v1\n");  // unknown record
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    std::istringstream is("not a record\n");
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
}

TEST(RequestStreamTest, TruncatedRecordsThrowOrEndCleanly) {
  {
    // A tree line cut off mid-fields (connection dropped mid-write) is
    // malformed, not silently a smaller tree.
    std::istringstream is("treeplace-tree v1\nI 0 -1 0 -1\nC 1 0\n");
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    // A header with nothing after it: a tree record truncated before its
    // body fails validation (a tree needs at least a root).
    std::istringstream is("treeplace-tree v1\n");
    RequestStreamReader reader(is);
    EXPECT_THROW(reader.next(), CheckError);
  }
  {
    // EOF at a line boundary ends the record cleanly — half-close framing.
    std::istringstream is(tree_record() + "treeplace-scenario v1 1\nR 6 7");
    RequestStreamReader reader(is);
    ASSERT_TRUE(reader.next().has_value());
    auto last = reader.next();
    ASSERT_TRUE(last.has_value());
    ASSERT_EQ(last->deltas.size(), 1u);
    EXPECT_EQ(last->deltas[0].requests, 7u);
  }
}

TEST(RequestStreamTest, InterleavedGarbageBetweenRecordsThrows) {
  // The garbage is claimed by the tree record's body (only a header ends a
  // record), so it surfaces as a malformed node line, not silence.
  std::istringstream is(tree_record() +
                        "some binary junk between records\n" +
                        "treeplace-scenario v1 1\nR 6 7\n");
  RequestStreamReader reader(is);
  EXPECT_THROW(reader.next(), CheckError);
}

TEST(RequestStreamTest, OversizedLineThrows) {
  std::istringstream is(tree_record() + "treeplace-scenario v1 1\nR 6 7 " +
                        std::string(2u << 20, 'x') + "\n");
  RequestStreamReader reader(is);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_THROW(reader.next(), CheckError);
}

TEST(RequestStreamTest, CrlfStreamsParseIdentically) {
  // The whole stream written with CRLF line endings (a Windows client or a
  // transcoding relay) must parse exactly like the LF original.
  const std::string lf = tree_record() +
                         "treeplace-scenario v1 1\nR 6 7\nE 2 1\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::istringstream lf_is(lf);
  std::istringstream crlf_is(crlf);
  RequestStreamReader lf_reader(lf_is);
  RequestStreamReader crlf_reader(crlf_is);
  for (;;) {
    auto a = lf_reader.next();
    auto b = crlf_reader.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->topology_key, b->topology_key);
    ASSERT_EQ(a->tree.has_value(), b->tree.has_value());
    if (a->tree) {
      EXPECT_EQ(serialize_tree(*a->tree), serialize_tree(*b->tree));
    }
    EXPECT_EQ(a->deltas.size(), b->deltas.size());
  }
}

TEST(RequestStreamTest, EmptyStreamYieldsNothing) {
  std::istringstream is("\n# only comments\n\n");
  RequestStreamReader reader(is);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.requests_read(), 0u);
}

}  // namespace
}  // namespace treeplace::serve
