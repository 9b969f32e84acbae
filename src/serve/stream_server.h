// The batch-serving loop: request stream in, ordered result records out.
//
// StreamServer ties the serving pieces together: a RequestStreamReader
// parses mixed tree / scenario-delta records, a TopologyCache keeps the hot
// topologies resident, and a SolveDispatcher fans the solves out across the
// thread pool behind a bounded work queue.  One `result ...` line is
// emitted per request, *in request order* (a bounded reorder window of
// pending futures, sized by the dispatcher's queue capacity, never lets
// the reader outrun the solvers by more than the queue bound).
//
// Determinism guarantee: each request is solved by the same deterministic
// solver an offline `treeplace solve` run would use, so the emitted
// placements are bit-identical to a serial pass over the same stream for
// any thread count — concurrency only reorders *execution*, never output
// or results (asserted by tests/serve/stream_server_test.cc and
// bench/serve_throughput).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "model/cost.h"
#include "model/modes.h"
#include "serve/dispatcher.h"
#include "serve/topology_cache.h"

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

struct StreamServerSummary {
  // Fixed 64-bit counters (not size_t): a simulated day at 10^5-10^6
  // users streams billions of delta records through one summary, which
  // would wrap 32-bit size_t on small targets.
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t errors = 0;      ///< bad topology key, rejection, solver throw
  std::uint64_t over_budget = 0;  ///< solved but cost_budget missed
  /// The input stream ended mid-record or was malformed.  In-flight
  /// results are still emitted and the summary block still printed; the
  /// CLI turns this into a nonzero exit.
  bool stream_error = false;
  std::string stream_error_message;
  double wall_seconds = 0.0;
  double scenarios_per_second = 0.0;
  DispatcherStats dispatcher;
  TopologyCacheStats cache;
};

class StreamServer {
 public:
  explicit StreamServer(StreamServerConfig config);

  /// Serves every record of `in`, writing one result line per request to
  /// `out` in request order followed by a `#`-prefixed summary block.
  /// A malformed stream (unparsable record, input ending mid-record) stops
  /// reading but still flushes every in-flight result and the summary —
  /// the failure is reported via StreamServerSummary::stream_error.  Bad
  /// topology references and per-solve failures become error records.
  StreamServerSummary serve(std::istream& in, std::ostream& out);

 private:
  StreamServerConfig config_;
};

}  // namespace treeplace::serve
