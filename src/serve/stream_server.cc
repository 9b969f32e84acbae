#include "serve/stream_server.h"

#include <deque>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "support/check.h"
#include "support/timer.h"

namespace treeplace::serve {

namespace {

struct Pending {
  std::size_t id = 0;
  std::string key;
  std::future<ServeResult> result;
};

/// An already-resolved future (error records discovered at bind time slot
/// into the same ordered emission path as dispatched solves).
std::future<ServeResult> ready_result(ServeResult result) {
  std::promise<ServeResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

}  // namespace

BoundRequest bind_request(ServeRequest& request, const CacheKey& key,
                          TopologyCache& cache,
                          const StreamServerConfig& config) {
  BoundRequest bound;
  if (request.tree) {
    auto topology = request.tree->topology_ptr();
    Scenario base = std::move(request.tree->scenario());
    bound.session = cache.put(key, topology, base);
    bound.instance.emplace(std::move(topology), std::move(base), config.modes,
                           config.costs, config.cost_budget);
  } else {
    std::optional<CachedTopology> entry = cache.get(key);
    if (!entry) {
      bound.error.emplace().error =
          "unknown topology '" + key.topology_key +
          "' (not in the stream, or evicted from the cache)";
      return bound;
    }
    try {
      // The cache handed out a private fork; apply the deltas on top.
      Scenario scen = std::move(entry->base);
      for (const ScenarioDelta& delta : request.deltas) {
        apply_delta(scen, delta);
      }
      bound.session = std::move(entry->session);
      bound.instance.emplace(std::move(entry->topology), std::move(scen),
                             config.modes, config.costs, config.cost_budget);
    } catch (const CheckError& e) {
      bound.error.emplace().error = e.what();
      return bound;
    }
  }
  if (config.project_original_modes) {
    project_to_single_mode(bound.instance->scenario);
  }
  return bound;
}

void ServeSummary::count(const RenderedResult& result) {
  switch (result.status) {
    case ResultStatus::kOk:
      ++ok;
      if (result.budget_missed) ++over_budget;
      break;
    case ResultStatus::kInfeasible:
      ++infeasible;
      break;
    case ResultStatus::kError:
      ++errors;
      break;
  }
}

void ServeSummary::set_wall_seconds(double seconds) {
  wall_seconds = seconds;
  scenarios_per_second =
      seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
}

void ServeSummary::print_serve_lines(std::ostream& out, std::size_t threads,
                                     std::size_t queue) const {
  out << "# serve: " << requests << " requests in " << wall_seconds << " s ("
      << scenarios_per_second << " scenarios/s, " << threads
      << " threads, queue " << queue << ")\n"
      << "# serve: ok=" << ok << " infeasible=" << infeasible
      << " errors=" << errors << " over_budget=" << over_budget << "\n";
}

void ServeSummary::print_cache_lines(std::ostream& out,
                                     std::size_t session_max_bytes) const {
  const SolverLatencyStats& solver = dispatcher.per_solver[0];
  const double solves =
      static_cast<double>(solver.solves > 0 ? solver.solves : 1);
  out << "# cache: capacity=" << cache.capacity << " size=" << cache.size
      << " hits=" << cache.hits << " misses=" << cache.misses
      << " evictions=" << cache.evictions << "\n"
      << "# solver " << solver.algo << ": solves=" << solver.solves
      << " warm=" << solver.warm << " session_bytes=" << cache.session_bytes
      << " session_budget="
      << (session_max_bytes != 0 ? std::to_string(session_max_bytes)
                                 : std::string("unbounded"))
      << " dropped_snapshots=" << cache.session_snapshots_dropped
      << " dropped_tables=" << cache.session_tables_dropped
      << " cells_skipped=" << cache.session_cells_skipped
      << " errors=" << solver.errors
      << " mean_queue_s=" << solver.total_queue_seconds / solves
      << " mean_solve_s=" << solver.total_solve_seconds / solves
      << " max_solve_s=" << solver.max_solve_seconds
      << " work=" << solver.total_work << "\n";
}

StreamServer::StreamServer(StreamServerConfig config)
    : config_(std::move(config)) {
  TREEPLACE_CHECK_MSG(config_.dispatcher.algos.size() == 1,
                      "StreamServer serves every request with one solver");
}

StreamServerSummary StreamServer::serve(std::istream& in, std::ostream& out) {
  SolveDispatcher dispatcher(config_.dispatcher);
  TopologyCache cache(config_.cache_capacity,
                      SolveSession::Options{config_.session_max_bytes});
  RecordParser parser;
  StreamServerSummary summary;
  Stopwatch wall;

  // Ordered emission with a bounded reorder window: the oldest pending
  // request is emitted (blocking on its future) whenever the window is
  // full, so reader, queue and emitter all stay within the queue bound.
  std::deque<Pending> pending;
  const std::size_t window = dispatcher.queue_capacity();

  const ResultFormat format{config_.print_placements,
                            config_.cost_budget.has_value()};
  const auto emit = [&](Pending& p) {
    const RenderedResult rendered =
        render_result(p.id, p.key, p.result.get(), format);
    summary.count(rendered);
    out << rendered.line;
  };

  const auto submit = [&](ServeRequest request) {
    if (request.hello) {
      // The handshake is always the stream's first record (the parser
      // enforces it), so the reply precedes every result line.
      out << hello_reply();
      return;  // consumes no request ordinal, no dispatcher slot
    }
    Pending p;
    p.id = request.id;
    p.key = request.topology_key;
    // Single-stream serving lives in cache namespace 0; the TCP front-end
    // namespaces by connection (serve/connection.h).
    BoundRequest bound = bind_request(request, CacheKey{0, p.key}, cache,
                                      config_);
    if (bound.instance) {
      p.result = dispatcher.submit(0, std::move(*bound.instance),
                                   std::move(bound.session),
                                   std::move(request.deltas));
    } else {
      p.result = ready_result(std::move(*bound.error));
    }
    pending.push_back(std::move(p));
    ++summary.requests;
    while (pending.size() > window) {
      emit(pending.front());
      pending.pop_front();
    }
  };

  // A malformed stream stops the reader but never the emitter: every
  // record completed before the bad line is served and everything
  // already dispatched is flushed below, then the summary block reports
  // the failure (the CLI turns it into a nonzero exit).
  try {
    std::string line;
    while (read_record_line(in, line)) feed_line(parser, line, submit);
    if (std::optional<ServeRequest> last = parser.finish()) {
      submit(std::move(*last));
    }
  } catch (const CheckError& e) {
    summary.stream_error = true;
    summary.stream_error_message = e.what();
  }
  for (Pending& p : pending) emit(p);

  summary.set_wall_seconds(wall.seconds());
  summary.dispatcher = dispatcher.stats();
  summary.cache = cache.stats();
  summary.print_serve_lines(out, dispatcher.threads(), window);
  summary.print_cache_lines(out, config_.session_max_bytes);
  if (summary.stream_error) {
    out << "# serve: stream error: " << summary.stream_error_message << "\n";
  }
  return summary;
}

}  // namespace treeplace::serve
