// The batch-serving loop: request stream in, ordered result records out.
//
// StreamServer ties the serving pieces together: a RecordParser
// (serve/wire.h) parses mixed tree / scenario-delta records from stdin
// lines, bind_request() resolves each against a TopologyCache that keeps
// the hot topologies resident, and a SolveDispatcher fans the solves out
// across the thread pool behind a bounded work queue.  One `result ...`
// line is emitted per request, *in request order* (a bounded reorder
// window of pending futures, sized by the dispatcher's queue capacity,
// never lets the reader outrun the solvers by more than the queue bound).
//
// Determinism guarantee: each request is solved by the same deterministic
// solver an offline `treeplace solve` run would use, so the emitted
// placements are bit-identical to a serial pass over the same stream for
// any thread count — concurrency only reorders *execution*, never output
// or results (asserted by tests/serve/stream_server_test.cc and
// bench/serve_throughput).
//
// It stays the blocking reference the TCP front-end (serve/net_server.h)
// is compared against.  The two share the grammar (RecordParser), the
// request binder (bind_request), the rendering (render_result) and the
// summary tally and lines (ServeSummary).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "model/cost.h"
#include "model/modes.h"
#include "serve/dispatcher.h"
#include "serve/topology_cache.h"
#include "serve/wire.h"

namespace treeplace::serve {

struct StreamServerConfig {
  /// algos[0] serves every request.
  DispatcherConfig dispatcher;
  std::size_t cache_capacity = 16;
  /// Per-session warm-start byte budget (SolveSession::Options::max_bytes,
  /// 0 = unbounded): bounding each resident topology's cached DP state
  /// lets the cache keep many more topologies warm.
  std::size_t session_max_bytes = 0;

  /// Instance parameters applied to every request of the stream.
  ModeSet modes = ModeSet::single(10);
  CostModel costs = CostModel::simple(0.1, 0.01);
  std::optional<double> cost_budget;
  /// Single-mode problem class: project pre-existing original modes to 0
  /// (Instance::single_mode semantics).
  bool project_original_modes = true;

  /// Append the placement ("node:mode,...") to each result record.
  bool print_placements = true;
};

/// A request resolved against the cache: ready to solve, or an error
/// result to emit inline.
struct BoundRequest {
  std::optional<Instance> instance;       ///< set when there is a solve
  std::shared_ptr<SolveSession> session;  ///< the cache entry's session
  std::optional<ServeResult> error;       ///< unknown key or bad delta
};

/// The request binder of both servers.  A tree record (re)registers its
/// topology under `key` and solves its base scenario through the fresh
/// session (moving the tree out of `request`); a delta record forks the
/// cached base and applies its deltas in order, so later solves on one
/// topology run warm.  Sessions ride with their cache entry: eviction
/// drops them, and in-flight solves keep theirs alive through the
/// shared_ptr.  The instance carries `config`'s modes, costs and budget,
/// projected to single-mode when configured.  The deltas stay in
/// `request` for the dispatcher.
BoundRequest bind_request(ServeRequest& request, const CacheKey& key,
                          TopologyCache& cache,
                          const StreamServerConfig& config);

/// The counters both servers keep, and the summary lines they share.
struct ServeSummary {
  // Fixed 64-bit counters (not size_t): a simulated day at 10^5-10^6
  // users streams billions of delta records through one summary, which
  // would wrap 32-bit size_t on small targets.
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t errors = 0;      ///< bad topology key, rejection, solver throw
  std::uint64_t over_budget = 0;  ///< solved but cost_budget missed
  double wall_seconds = 0.0;
  double scenarios_per_second = 0.0;
  DispatcherStats dispatcher;
  TopologyCacheStats cache;

  /// Tallies one emitted result by its status.
  void count(const RenderedResult& result);
  /// Sets wall_seconds and the request rate derived from it.
  void set_wall_seconds(double seconds);

  /// The two `# serve:` lines: totals and rate, then the status tally.
  void print_serve_lines(std::ostream& out, std::size_t threads,
                         std::size_t queue) const;
  /// The `# cache:` and `# solver` lines.
  void print_cache_lines(std::ostream& out,
                         std::size_t session_max_bytes) const;
};

struct StreamServerSummary : ServeSummary {
  /// The input stream ended mid-record or was malformed.  In-flight
  /// results are still emitted and the summary block still printed; the
  /// CLI turns this into a nonzero exit.
  bool stream_error = false;
  std::string stream_error_message;
};

class StreamServer {
 public:
  explicit StreamServer(StreamServerConfig config);

  /// Serves every record of `in`, writing one result line per request to
  /// `out` in request order followed by a `#`-prefixed summary block.
  /// Lines are read by tree/io.h's read_record_line (CRLF accepted, a
  /// line over kMaxLineBytes is malformed), as LineBuffer frames them on
  /// the wire.  A malformed stream stops reading but still serves every
  /// record completed before the bad line, then the summary — the
  /// failure is reported via StreamServerSummary::stream_error.  Bad
  /// topology references and per-solve failures become error records.
  StreamServerSummary serve(std::istream& in, std::ostream& out);

 private:
  StreamServerConfig config_;
};

}  // namespace treeplace::serve
