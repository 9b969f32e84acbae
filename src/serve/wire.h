// The serve stream grammar and its zero-copy wire framing.
//
// Both serving modes — stdin (serve/stream_server.h) and the TCP front-end
// (serve/net_server.h), two drivers of one serving core — speak one
// line-record protocol, `treeplace-*` records in, `result ...` lines out,
// and parse it with the one RecordParser below.  A stream is a
// concatenation of record kinds:
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
//   treeplace-hello v1 [name=<token>] [feature ...]
//                                the optional version/feature handshake: a
//                                header with no body, valid only as the
//                                very first record.  The server replies
//                                `# hello: treeplace v1` before any result.
//                                `name=` gives the client a stable identity:
//                                the TCP front-end namespaces its topology
//                                keys by the name's hash instead of the
//                                connection uid, which makes its warm
//                                sessions routable (shard affinity) and
//                                persistent.  Unknown features are ignored.
//
// Blank lines and `#` comments are skipped anywhere.  The parser only
// parses; resolving keys against the cache is bind_request()'s job
// (serve/connection.h), so bad references surface as per-request error
// records rather than parser throws.
//
// The framing pieces, built for bytes that arrive in arbitrary fragments
// (non-blocking sockets, stdin read in bounded pieces):
//
//   * LineBuffer — an append-only byte window input is read straight into
//     (writable()/commit()); next_line() yields complete lines as
//     string_views over the buffer, no copy, trailing CR stripped (CRLF
//     clients are accepted everywhere), with an oversized-line guard so a
//     hostile peer cannot balloon memory with an unterminated line.
//   * RecordParser — fed one line at a time, it assembles ServeRequests.
//     A record is completed by the next record header or by end-of-input
//     (finish()); the line grammars are tree/io.h's parse_node_line() and
//     parse_delta_line().
//   * OutputBuffer — pending result bytes per connection, consumed as the
//     socket accepts writes.
//
// Rendering also lives here: render_result() produces the `result ...`
// line both servers emit, which is what makes `bench/connection_churn`'s
// bit-identity gate possible.  The only per-run bytes are the
// queue_s=/solve_s= timing fields; strip_timings() removes them for
// comparisons.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/dispatcher.h"
#include "support/check.h"
#include "tree/io.h"

namespace treeplace::serve {

/// One edit applied to a forked base scenario, in record order (the type
/// lives with the Scenario it edits, tree/scenario_delta.h).
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
/// malformed name token.  RecordParser enforces the first-record placement.
HelloInfo parse_hello_line(std::string_view line);

// ---------------------------------------------------------------------------
// LineBuffer

/// Incremental line framing over bytes read from a socket or stdin.  The buffer
/// compacts itself: consumed bytes are dropped the next time write space is
/// requested, so steady-state serving reuses one allocation per connection.
class LineBuffer {
 public:
  explicit LineBuffer(std::size_t max_line_bytes = kMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  /// A span of at least `min_bytes` to read() into; invalidates views
  /// returned by next_line().  Call commit(n) with the bytes actually read.
  std::span<char> writable(std::size_t min_bytes);
  void commit(std::size_t n) { end_ += n; }

  /// The next complete line ('\n'-terminated; terminator and any trailing
  /// '\r' stripped), or nullopt when no full line is buffered.  The view
  /// points into the buffer and stays valid until the next writable() call.
  /// Throws CheckError when a line exceeds the max line length.
  std::optional<std::string_view> next_line();

  /// Consumes and returns the trailing unterminated bytes, if any — the
  /// final "line" of a stream that ends without a trailing newline.
  std::optional<std::string_view> take_rest();

  /// Unconsumed bytes currently buffered (complete and partial lines).
  std::size_t buffered_bytes() const { return end_ - begin_; }
  /// True when a partial (unterminated) line is pending — end-of-stream in
  /// this state means the peer was cut off mid-record.
  bool mid_line() const { return end_ > begin_; }

 private:
  std::string data_;
  std::size_t begin_ = 0;  ///< first unconsumed byte
  std::size_t end_ = 0;    ///< one past the last committed byte
  std::size_t scan_ = 0;   ///< newline search resumes here
  std::size_t max_line_bytes_;
};

// ---------------------------------------------------------------------------
// OutputBuffer

/// Pending outbound bytes of one connection, drained by non-blocking
/// write()s.  size() is the backpressure signal: past the per-connection
/// cap the server stops reading the socket until the client catches up.
class OutputBuffer {
 public:
  void append(std::string_view bytes);
  std::span<const char> pending() const {
    return {data_.data() + begin_, data_.size() - begin_};
  }
  void consume(std::size_t n);
  std::size_t size() const { return data_.size() - begin_; }
  bool empty() const { return size() == 0; }

 private:
  std::string data_;
  std::size_t begin_ = 0;
};

// ---------------------------------------------------------------------------
// RecordParser

/// Incremental record assembly: feed complete lines, collect ServeRequests
/// with ordinal tree keys, optional E-delta modes and token-exact header
/// matching.  Malformed input throws CheckError (a stream error on stdin,
/// a per-connection protocol error on the wire).
///
/// Errors lose no completed record.  When feed() throws, the record the
/// bad line belongs to is dropped, but a header line that fails to parse
/// still ends the record before it: finish() then completes that record,
/// so callers serve it before reporting the error.
class RecordParser {
 public:
  /// Feeds one framed line (no terminator).  Returns the record this line
  /// *completed* — i.e. when `line` is the header starting the next record.
  /// Blank and comment lines are skipped anywhere.
  std::optional<ServeRequest> feed(std::string_view line);

  /// End of input: completes the in-progress record, if any.  A client
  /// that half-closes its write side terminates its final record, exactly
  /// as EOF does on stdin.
  std::optional<ServeRequest> finish();

  /// True while a record is being assembled (EOF here is mid-record only
  /// if the line itself was also truncated; line-aligned EOF ends the
  /// record).
  bool in_record() const { return state_ != State::kIdle; }

  std::size_t requests_read() const { return requests_; }
  std::size_t trees_read() const { return trees_; }

 private:
  enum class State { kIdle, kTree, kScenario };

  ServeRequest complete();

  State state_ = State::kIdle;
  TreeBuilder builder_;
  ServeRequest current_;
  std::size_t requests_ = 0;
  std::size_t trees_ = 0;
  bool hello_seen_ = false;
};

/// Feeds one line to `parser` and hands the record it completes, if any,
/// to `sink`.  On a malformed line the record a bad header ends reaches
/// `sink` first (finish(), see RecordParser), then the CheckError
/// propagates — so a serving loop serves every record completed before
/// the bad line, whatever the input's segmentation.
template <typename Sink>
void feed_line(RecordParser& parser, std::string_view line, Sink&& sink) {
  std::optional<ServeRequest> request;
  try {
    request = parser.feed(line);
  } catch (const CheckError&) {
    if (std::optional<ServeRequest> closed = parser.finish()) {
      sink(std::move(*closed));
    }
    throw;
  }
  if (request) sink(std::move(*request));
}

// ---------------------------------------------------------------------------
// Result rendering (shared by StreamServer and NetServer)

struct ResultFormat {
  bool print_placements = true;
  bool has_budget = false;
};

enum class ResultStatus { kOk, kInfeasible, kError };

struct RenderedResult {
  std::string line;  ///< one full "result ...\n" record
  ResultStatus status = ResultStatus::kOk;
  bool budget_missed = false;
};

/// Renders one `result ...` record, the same bytes in every serving mode.
RenderedResult render_result(std::size_t id, const std::string& topo_key,
                             const ServeResult& result,
                             const ResultFormat& format);

/// Strips the per-run timing fields (queue_s=, solve_s=) from a block of
/// result lines, for bit-identity comparisons across serve modes.
std::string strip_timings(const std::string& results);

// ---------------------------------------------------------------------------
// Latency histogram

/// Fixed-footprint log-bucketed latency histogram (1us .. ~5000s, ~25%
/// resolution) for the serving loop's p50/p99 summary lines.
class LatencyHistogram {
 public:
  void record(double seconds);
  /// Adds every sample of `other` (shard summaries aggregate into one
  /// server-wide histogram; buckets are identical by construction).
  void merge(const LatencyHistogram& other);
  /// The upper bound of the bucket holding the p-th percentile sample
  /// (p in [0, 1]); 0 when empty.
  double percentile(double p) const;
  std::uint64_t count() const { return count_; }

 private:
  static constexpr std::size_t kBuckets = 100;
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
};

}  // namespace treeplace::serve
