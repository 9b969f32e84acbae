// The serving loop's request stream: tree records + scenario deltas.
//
// A serve stream is a concatenation of two record kinds, split by
// TreeStreamReader (any "treeplace-" header line is a record boundary):
//
//   treeplace-tree v1            the format of tree/io.h.  Registers the
//   I 0 -1 0 -1                  tree's topology in the serving cache under
//   C 1 0 5                      its ordinal key ("1" for the first tree in
//   ...                          the stream, "2" for the second, ...) and
//                                requests a solve of its base scenario.
//
//   treeplace-scenario v1 <key>  a scenario-delta request against the
//   R <client-id> <requests>     cached topology <key>: fork its base
//   E <node-id> [<orig-mode>]    scenario, apply the delta lines in order,
//   X <node-id>                  solve the result.  R sets one client's
//   Z                            request volume, E marks a pre-existing
//                                server (default original mode 0), X clears
//                                one, Z clears the whole pre-existing set.
//
// A third, optional record opens the stream — the version/feature
// handshake:
//
//   treeplace-hello v1 [name=<token>] [feature ...]
//
// A single header line with no body, valid only as the very first record.
// The server replies with the `# hello: treeplace v1` comment line before
// any result.  `name=` gives the client a stable identity: the TCP
// front-end namespaces its topology keys by the name's hash instead of
// the connection uid, which is what makes its warm sessions routable
// (shard affinity) and persistent (saved at drain, restored when the name
// reconnects and re-publishes its trees).  Remaining tokens are feature
// flags, accepted and ignored if unknown.
//
// Blank lines and `#` comments are skipped anywhere.  The reader only
// parses; resolving keys against the cache and building instances is the
// stream server's job (serve/stream_server.h), so malformed references
// surface as per-request error records rather than parser throws.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "tree/io.h"
#include "tree/scenario_delta.h"
#include "tree/tree.h"

namespace treeplace::serve {

/// One edit applied to a forked base scenario, in record order.  The type
/// now lives with the Scenario it edits (tree/scenario_delta.h) because
/// the core solvers consume delta spans too (SolveRequest::deltas);
/// re-exported here under its historical name for stream code.
using treeplace::ScenarioDelta;

/// The parsed `treeplace-hello v1 ...` handshake record.
struct HelloInfo {
  std::string version;                 ///< the "v1" token
  std::string name;                    ///< from name=<token>; empty = anon
  std::vector<std::string> features;   ///< remaining tokens, order kept
};

/// One request from the stream: a solve (full tree, or deltas against a
/// previously registered topology) or — only as the first record — the
/// hello handshake.  Hello requests carry id 0 and do not consume a
/// request ordinal, so solve ids match a stream without the handshake.
struct ServeRequest {
  std::size_t id = 0;        ///< 1-based request ordinal in the stream
  std::string topology_key;  ///< ordinal key ("1", "2", ...) or reference
  std::optional<Tree> tree;  ///< set for tree records
  std::vector<ScenarioDelta> deltas;  ///< set for scenario records
  std::optional<HelloInfo> hello;     ///< set for the handshake record
};

/// True when `line` is a hello record header (first token matches).
bool is_hello_line(std::string_view line);

/// Parses a hello header line; throws CheckError on a bad version or a
/// malformed name token.  Callers enforce the first-record placement.
HelloInfo parse_hello_line(std::string_view line);

/// The comment line every server writes in response to a hello record,
/// identical in stream and net mode (it is a `#` line, so it never
/// perturbs result parsing or bit-identity comparisons).
std::string_view hello_reply();

/// Streaming reader over a serve request stream.  Throws CheckError on
/// malformed records (bad headers, unparsable delta lines).
class RequestStreamReader {
 public:
  explicit RequestStreamReader(std::istream& is) : reader_(is) {}

  /// The next request, or nullopt at end of stream.
  std::optional<ServeRequest> next();

  std::size_t requests_read() const { return requests_; }
  std::size_t trees_read() const { return reader_.trees_read(); }

  /// The scenario record header prefix ("treeplace-scenario v1").
  static const char* scenario_header();

 private:
  TreeStreamReader reader_;
  std::size_t requests_ = 0;
  bool hello_seen_ = false;
};

}  // namespace treeplace::serve
