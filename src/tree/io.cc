#include "tree/io.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

namespace treeplace {

namespace {

constexpr const char* kHeader = "treeplace-tree v1";

/// Cursor over one line: blank-separated tokens, integers parsed in place
/// by std::from_chars (no stream, no allocation).
struct Cursor {
  const char* p;
  const char* end;

  explicit Cursor(std::string_view line)
      : p(line.data()), end(line.data() + line.size()) {}

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
  }
  bool at_end() {
    skip_ws();
    return p == end;
  }
  /// The first non-blank character (a line's tag), or 0 at end of line.
  char tag() { return at_end() ? 0 : *p++; }

  template <typename T>
  bool parse_int(T& out) {
    skip_ws();
    const char* start = p;
    // A leading '+' is accepted, as istream extraction does ("+-5" is not).
    if (start + 1 < end && *start == '+' && start[1] != '-') ++start;
    const auto [next, ec] = std::from_chars(start, end, out);
    if (ec != std::errc{}) return false;
    p = next;
    return true;
  }
};

}  // namespace

bool read_record_line(std::istream& is, std::string& line) {
  if (!std::getline(is, line)) return false;
  TREEPLACE_CHECK_MSG(line.size() <= kMaxLineBytes,
                      "oversized line: " << line.size() << " bytes (limit "
                                         << kMaxLineBytes << ")");
  // getline() keeps the '\r' of CRLF line endings; strip it so streams
  // written on Windows (or piped through tools that add CRLF) parse
  // identically — in particular, header matching is token-exact.
  if (!line.empty() && line.back() == '\r') line.pop_back();
  return true;
}

void parse_node_line(TreeBuilder& builder, std::string_view line) {
  Cursor c(line);
  const char tag = c.tag();
  TREEPLACE_CHECK_MSG(tag != 0, "malformed tree line: '" << line << "'");
  const auto expected_id = static_cast<NodeId>(builder.num_nodes());
  NodeId id = kNoNode;
  NodeId parent = kNoNode;
  TREEPLACE_CHECK_MSG(c.parse_int(id) && c.parse_int(parent),
                      "malformed tree line: '" << line << "'");
  TREEPLACE_CHECK_MSG(id == expected_id,
                      "node ids must be consecutive; expected "
                          << expected_id << ", got " << id);
  if (tag == 'I') {
    int pre = 0;
    int orig_mode = -1;
    TREEPLACE_CHECK_MSG(c.parse_int(pre) && c.parse_int(orig_mode),
                        "malformed internal line: '" << line << "'");
    const NodeId got =
        (parent == kNoNode) ? builder.add_root() : builder.add_internal(parent);
    TREEPLACE_CHECK(got == id);
    if (pre != 0) builder.set_pre_existing(id, orig_mode < 0 ? 0 : orig_mode);
  } else if (tag == 'C') {
    RequestCount requests = 0;
    TREEPLACE_CHECK_MSG(c.parse_int(requests),
                        "malformed client line: '" << line << "'");
    const NodeId got = builder.add_client(parent, requests);
    TREEPLACE_CHECK(got == id);
  } else {
    TREEPLACE_CHECK_MSG(false, "unknown node tag '" << tag << "'");
  }
}

ScenarioDelta parse_delta_line(std::string_view line) {
  Cursor c(line);
  const char tag = c.tag();
  TREEPLACE_CHECK_MSG(tag != 0, "malformed delta line: '" << line << "'");
  ScenarioDelta delta;
  switch (tag) {
    case 'R':
      delta.op = ScenarioDelta::Op::kSetRequests;
      TREEPLACE_CHECK_MSG(
          c.parse_int(delta.node) && c.parse_int(delta.requests),
          "malformed R delta: '" << line << "'");
      break;
    case 'E':
      delta.op = ScenarioDelta::Op::kSetPreExisting;
      TREEPLACE_CHECK_MSG(c.parse_int(delta.node),
                          "malformed E delta: '" << line << "'");
      // The mode is optional, but only when actually absent — an
      // unparsable token is an error, not a default.
      if (!c.at_end()) {
        TREEPLACE_CHECK_MSG(c.parse_int(delta.mode),
                            "malformed E delta: '" << line << "'");
      }
      break;
    case 'X':
      delta.op = ScenarioDelta::Op::kClearPreExisting;
      TREEPLACE_CHECK_MSG(c.parse_int(delta.node),
                          "malformed X delta: '" << line << "'");
      break;
    case 'Z':
      delta.op = ScenarioDelta::Op::kClearAllPre;
      break;
    default:
      TREEPLACE_CHECK_MSG(false, "unknown delta tag '" << tag << "' in '"
                                                       << line << "'");
  }
  TREEPLACE_CHECK_MSG(c.at_end(),
                      "trailing garbage in delta line: '" << line << "'");
  return delta;
}

void serialize_tree(const Tree& tree, std::ostream& os) {
  os << kHeader << '\n';
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (tree.is_internal(id)) {
      os << "I " << id << ' ' << tree.parent(id) << ' '
         << (tree.pre_existing(id) ? 1 : 0) << ' ' << tree.original_mode(id)
         << '\n';
    } else {
      os << "C " << id << ' ' << tree.parent(id) << ' ' << tree.requests(id)
         << '\n';
    }
  }
}

std::string serialize_tree(const Tree& tree) {
  std::ostringstream os;
  serialize_tree(tree, os);
  return os.str();
}

Tree parse_tree(std::istream& is) {
  TreeStreamReader reader(is);
  std::optional<Tree> tree = reader.next();
  TREEPLACE_CHECK_MSG(tree.has_value(), "no tree record in the input");
  TREEPLACE_CHECK_MSG(!reader.next().has_value(),
                      "more than one tree record in the input");
  return std::move(*tree);
}

Tree parse_tree(const std::string& text) {
  std::istringstream is(text);
  return parse_tree(is);
}

bool TreeStreamReader::read_line(std::string& line) {
  if (has_pending_) {
    line = std::move(pending_);
    has_pending_ = false;
    return true;
  }
  return read_record_line(is_, line);
}

const char* TreeStreamReader::tree_header() { return kHeader; }

std::optional<Tree> TreeStreamReader::next() {
  std::string line;
  do {
    if (!read_line(line)) return std::nullopt;
  } while (line.empty() || line[0] == '#');
  TREEPLACE_CHECK_MSG(line == kHeader, "bad tree header: '" << line << "'");
  TreeBuilder builder;
  while (read_line(line)) {
    if (line.rfind("treeplace-", 0) == 0) {
      // The next record starts here; keep its header for the next call.
      pending_ = std::move(line);
      has_pending_ = true;
      break;
    }
    // Interior blank and comment lines are permitted exactly as in
    // parse_tree(); only a new header terminates a record.
    if (line.empty() || line[0] == '#') continue;
    parse_node_line(builder, line);
  }
  Tree tree = std::move(builder).build();  // may throw: count only successes
  ++trees_read_;
  return tree;
}

std::string to_dot(const Tree& tree) {
  std::ostringstream os;
  os << "digraph tree {\n  rankdir=TB;\n";
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (tree.is_internal(id)) {
      os << "  n" << id << " [shape=circle" << ",label=\"" << id << "\"";
      if (tree.pre_existing(id)) {
        os << ",peripheries=2,style=filled,fillcolor=lightblue";
      }
      os << "];\n";
    } else {
      os << "  n" << id << " [shape=box,label=\"" << tree.requests(id)
         << "\"];\n";
    }
  }
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (tree.parent(id) != kNoNode) {
      os << "  n" << tree.parent(id) << " -> n" << id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace treeplace
