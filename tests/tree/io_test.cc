#include "tree/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "gen/tree_gen.h"
#include "support/check.h"

namespace treeplace {
namespace {

Tree make_tree() {
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  const NodeId a = builder.add_internal(r);
  builder.add_client(a, 7);
  builder.add_client(r, 2);
  builder.set_pre_existing(a, 1);
  return std::move(builder).build();
}

TEST(TreeIoTest, SerializeHasHeaderAndAllNodes) {
  const std::string text = serialize_tree(make_tree());
  EXPECT_EQ(text.rfind("treeplace-tree v1", 0), 0u);
  EXPECT_NE(text.find("I 0 -1"), std::string::npos);
  EXPECT_NE(text.find("I 1 0 1 1"), std::string::npos);  // pre, mode 1
  EXPECT_NE(text.find("C 2 1 7"), std::string::npos);
}

TEST(TreeIoTest, RoundTripPreservesEverything) {
  const Tree original = make_tree();
  const Tree parsed = parse_tree(serialize_tree(original));
  ASSERT_EQ(parsed.num_nodes(), original.num_nodes());
  for (std::size_t i = 0; i < original.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    EXPECT_EQ(parsed.kind(id), original.kind(id));
    EXPECT_EQ(parsed.parent(id), original.parent(id));
    if (original.is_client(id)) {
      EXPECT_EQ(parsed.requests(id), original.requests(id));
    } else {
      EXPECT_EQ(parsed.pre_existing(id), original.pre_existing(id));
      EXPECT_EQ(parsed.original_mode(id), original.original_mode(id));
    }
  }
}

TEST(TreeIoTest, RoundTripRandomTrees) {
  for (std::uint64_t t = 0; t < 10; ++t) {
    TreeGenConfig config;
    config.num_internal = 40;
    const Tree original = generate_tree(config, /*seed=*/7, t);
    const Tree parsed = parse_tree(serialize_tree(original));
    EXPECT_EQ(serialize_tree(parsed), serialize_tree(original));
  }
}

TEST(TreeIoTest, BadHeaderThrows) {
  EXPECT_THROW(parse_tree("not a tree\n"), CheckError);
}

TEST(TreeIoTest, MalformedLineThrows) {
  EXPECT_THROW(parse_tree("treeplace-tree v1\nI zero\n"), CheckError);
}

TEST(TreeIoTest, NonConsecutiveIdsThrow) {
  EXPECT_THROW(parse_tree("treeplace-tree v1\nI 5 -1 0 -1\n"), CheckError);
}

TEST(TreeIoTest, UnknownTagThrows) {
  EXPECT_THROW(parse_tree("treeplace-tree v1\nX 0 -1\n"), CheckError);
}

TEST(TreeIoTest, CommentsAndBlankLinesIgnored) {
  const Tree t = parse_tree(
      "treeplace-tree v1\n"
      "# a comment\n"
      "\n"
      "I 0 -1 0 -1\n"
      "C 1 0 4\n");
  EXPECT_EQ(t.num_internal(), 1u);
  EXPECT_EQ(t.total_requests(), 4u);
}

TEST(TreeStreamReaderTest, ReadsConcatenatedTrees) {
  TreeGenConfig config;
  config.num_internal = 12;
  const Tree a = generate_tree(config, /*seed=*/9, 0);
  const Tree b = generate_tree(config, /*seed=*/9, 1);
  // Plain concatenation (`cat a.txt b.txt`): the second header terminates
  // the first tree.
  std::istringstream is(serialize_tree(a) + serialize_tree(b));
  TreeStreamReader reader(is);
  const auto first = reader.next();
  const auto second = reader.next();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(serialize_tree(*first), serialize_tree(a));
  EXPECT_EQ(serialize_tree(*second), serialize_tree(b));
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.trees_read(), 2u);
}

TEST(TreeStreamReaderTest, BlankLinesAndCommentsIgnoredEverywhere) {
  // Interior blanks/comments are part of the v1 format (parse_tree accepts
  // them); only a new header may terminate a tree.
  std::istringstream is(
      "# leading comment\n"
      "\n"
      "treeplace-tree v1\n"
      "I 0 -1 0 -1\n"
      "\n"
      "# interior comment\n"
      "C 1 0 4\n"
      "\n"
      "# between trees\n"
      "treeplace-tree v1\n"
      "I 0 -1 1 0\n"
      "\n");
  TreeStreamReader reader(is);
  const auto first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->num_nodes(), 2u);  // the interior blank did not split it
  EXPECT_EQ(first->total_requests(), 4u);
  const auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_TRUE(second->pre_existing(second->root()));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(TreeStreamReaderTest, SingleTreeMatchesParseTree) {
  const Tree original = make_tree();
  std::istringstream is(serialize_tree(original));
  TreeStreamReader reader(is);
  const auto tree = reader.next();
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(serialize_tree(*tree), serialize_tree(original));
  EXPECT_FALSE(reader.next().has_value());
}

TEST(TreeStreamReaderTest, BadHeaderThrows) {
  std::istringstream is("not a tree\n");
  TreeStreamReader reader(is);
  EXPECT_THROW(reader.next(), CheckError);
}

TEST(TreeIoTest, CrlfLinesParseLikeLf) {
  const Tree t = parse_tree(
      "treeplace-tree v1\r\n"
      "I 0 -1 0 -1\r\n"
      "C 1 0 4\r\n");
  EXPECT_EQ(t.num_internal(), 1u);
  EXPECT_EQ(t.total_requests(), 4u);
}

TEST(TreeIoTest, OversizedLineThrows) {
  // An unterminated megabyte-scale line (binary junk fed as a tree) is
  // rejected up front instead of being buffered and mis-parsed.
  EXPECT_THROW(parse_tree("treeplace-tree v1\nI 0 -1 0 -1 # " +
                          std::string(2u << 20, 'x') + "\n"),
               CheckError);
}

TEST(TreeStreamReaderTest, TruncatedNodeLineThrows) {
  std::istringstream is("treeplace-tree v1\nI 0 -1 0 -1\nC 1 0\n");
  TreeStreamReader reader(is);
  EXPECT_THROW(reader.next(), CheckError);
}

TEST(TreeIoTest, NegativeRequestCountThrows) {
  // A minus sign on a request count is malformed, not a huge count.
  const std::string text = "treeplace-tree v1\nI 0 -1 0 -1\nC 1 0 -5\n";
  EXPECT_THROW(parse_tree(text), CheckError);
  std::istringstream is(text);
  TreeStreamReader reader(is);
  EXPECT_THROW(reader.next(), CheckError);
}

TEST(TreeIoTest, NodeLineNumberRules) {
  // A leading '+' is accepted and trailing tokens are ignored, as before;
  // a sign after the '+' is not a number.
  const Tree t = parse_tree(
      "treeplace-tree v1\nI +0 -1 +1 +2 extra\nC 1 0 +4 extra\n");
  EXPECT_TRUE(t.pre_existing(0));
  EXPECT_EQ(t.original_mode(0), 2);
  EXPECT_EQ(t.total_requests(), 4u);
  EXPECT_THROW(parse_tree("treeplace-tree v1\nI 0 -1 0 -1\nC 1 0 +-4\n"),
               CheckError);
}

TEST(TreeIoTest, DeltaLinesParse) {
  const ScenarioDelta r = parse_delta_line("R 3 7");
  EXPECT_EQ(r.op, ScenarioDelta::Op::kSetRequests);
  EXPECT_EQ(r.node, 3);
  EXPECT_EQ(r.requests, 7u);
  const ScenarioDelta e = parse_delta_line("\tE 2");
  EXPECT_EQ(e.op, ScenarioDelta::Op::kSetPreExisting);
  EXPECT_EQ(e.mode, 0);
  EXPECT_EQ(parse_delta_line("E 2 1").mode, 1);
  EXPECT_EQ(parse_delta_line("X 4").op, ScenarioDelta::Op::kClearPreExisting);
  EXPECT_EQ(parse_delta_line("Z").op, ScenarioDelta::Op::kClearAllPre);
  for (const char* bad : {"R 3 -5", "R 3", "E x", "X", "Z 1", "Q 1", " "}) {
    EXPECT_THROW(parse_delta_line(bad), CheckError) << bad;
  }
}

TEST(TreeIoTest, DotContainsAllNodesAndEdges) {
  const std::string dot = to_dot(make_tree());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // pre-existing
  EXPECT_NE(dot.find("shape=box"), std::string::npos);      // clients
}

}  // namespace
}  // namespace treeplace
