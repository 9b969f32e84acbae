// The stdin serving driver: request stream in, ordered result records
// out.
//
// StreamServer::serve runs the serving core (serve/connection.h) over one
// socketless Connection: it reads the istream in bounded pieces into the
// connection's LineBuffer, steps the core, blocks on the core's completion
// queue while the dispatcher is full, and writes the connection's output
// to the ostream.  Request path, framing and ordered completion are a TCP
// connection's (serve/net_server.h).
//
// Determinism guarantee: each request is solved by the same deterministic
// solver an offline `treeplace solve` run would use, so the emitted
// placements are bit-identical to a serial pass over the same stream for
// any thread count — concurrency only reorders *execution*, never output
// or results (asserted by tests/serve/stream_server_test.cc and
// bench/serve_throughput).
#pragma once

#include <iosfwd>
#include <string>
#include <utility>

#include "serve/connection.h"

namespace treeplace::serve {

struct StreamServerSummary : ServeSummary {
  /// The input stream ended mid-record or was malformed.  In-flight
  /// results are still emitted and the summary block still printed; the
  /// CLI turns this into a nonzero exit.
  bool stream_error = false;
  std::string stream_error_message;
};

class StreamServer {
 public:
  explicit StreamServer(StreamServerConfig config)
      : config_(std::move(config)) {}

  /// Serves every record of `in`, writing one result line per request to
  /// `out` in request order followed by a `#`-prefixed summary block.
  /// `in` is framed as a TCP peer's bytes are (LineBuffer: CRLF accepted,
  /// a line over kMaxLineBytes is malformed and rejected before it is
  /// buffered whole).  A malformed stream stops reading but still serves
  /// every record completed before the bad line, then the summary — the
  /// failure is reported via StreamServerSummary::stream_error.  Bad
  /// topology references and per-solve failures become error records.
  StreamServerSummary serve(std::istream& in, std::ostream& out);

 private:
  StreamServerConfig config_;
};

}  // namespace treeplace::serve
