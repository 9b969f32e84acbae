// Plain-text serialization and Graphviz export for distribution trees.
//
// Text format (one node per line, parents before children):
//   treeplace-tree v1
//   I <id> <parent|-1> <pre:0|1> <orig_mode|-1>
//   C <id> <parent> <requests>
// Ids in the file must match insertion order (0..n-1), which is what
// serialize() emits; parse() validates this.
//
// Several trees may be concatenated in one stream (`cat a.txt b.txt`): each
// `treeplace-tree v1` header starts a new tree and terminates the previous
// one (blank and comment lines are skipped anywhere, exactly as in
// parse()).  TreeStreamReader yields trees one at a time — the
// batch-serving path of `treeplace solve`.
// The serve record parser (serve/wire.h) shares this file's line grammars:
// parse_node_line() for tree bodies, parse_delta_line() for deltas.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "tree/scenario_delta.h"
#include "tree/tree.h"

namespace treeplace {

/// Writes `tree` in the v1 text format.
void serialize_tree(const Tree& tree, std::ostream& os);
std::string serialize_tree(const Tree& tree);

/// The longest line a record stream may hold (a binary file or a hostile
/// peer's unterminated garbage is never a valid record line).
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Reads one line of a record stream into `line`, stripping the trailing
/// CR of CRLF endings; false at end of stream.  Throws CheckError on a
/// line longer than kMaxLineBytes.
bool read_record_line(std::istream& is, std::string& line);

/// Parses exactly one tree record occupying the whole stream (blank and
/// comment lines aside); throws CheckError on malformed input.
Tree parse_tree(std::istream& is);
Tree parse_tree(const std::string& text);

/// Parses one `I ...` / `C ...` node line into `builder`; its id must be
/// the builder's next one (builder.num_nodes()).  Numbers parse with
/// std::from_chars: a leading '+' is accepted, a negative request count is
/// not, and tokens after the last field are ignored.  Throws CheckError on
/// a malformed line.
void parse_node_line(TreeBuilder& builder, std::string_view line);

/// Parses one scenario-delta line: `R <client> <requests>`,
/// `E <node> [<orig-mode>]` (mode 0 when absent), `X <node>` or `Z`.  The
/// tag is the first non-blank character; trailing tokens are an error.
/// Throws CheckError on a malformed line.
ScenarioDelta parse_delta_line(std::string_view line);

/// Streaming reader over a concatenation of v1 tree records.  Works on
/// non-seekable streams (pipes, stdin): a header line that terminates one
/// record is buffered and re-consumed as the start of the next.  Any
/// "treeplace-" line ends a tree body; one that is not a tree header is
/// then rejected by the following next().
class TreeStreamReader {
 public:
  explicit TreeStreamReader(std::istream& is) : is_(is) {}

  /// The next tree, or nullopt at end of stream.  Throws CheckError on
  /// malformed input (including non-tree record headers).
  std::optional<Tree> next();

  /// The tree record header ("treeplace-tree v1").
  static const char* tree_header();

  /// Number of trees successfully returned so far.
  std::size_t trees_read() const { return trees_read_; }

 private:
  bool read_line(std::string& line);

  std::istream& is_;
  std::string pending_;      // a header line consumed past a record boundary
  bool has_pending_ = false;
  std::size_t trees_read_ = 0;
};

/// Graphviz DOT rendering: internal nodes as circles (pre-existing servers
/// doubled), clients as boxes labelled with their request count.
std::string to_dot(const Tree& tree);

}  // namespace treeplace
