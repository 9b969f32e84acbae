#include "serve/stream_server.h"

#include <deque>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "serve/request_stream.h"
#include "serve/wire.h"
#include "support/check.h"
#include "support/timer.h"

namespace treeplace::serve {

namespace {

struct Pending {
  std::size_t id = 0;
  std::string key;
  std::future<ServeResult> result;
};

/// An already-resolved future (error records discovered at build time slot
/// into the same ordered emission path as dispatched solves).
std::future<ServeResult> ready_result(ServeResult result) {
  std::promise<ServeResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

}  // namespace

StreamServer::StreamServer(StreamServerConfig config)
    : config_(std::move(config)) {
  TREEPLACE_CHECK_MSG(config_.dispatcher.algos.size() == 1,
                      "StreamServer serves every request with one solver");
}

StreamServerSummary StreamServer::serve(std::istream& in, std::ostream& out) {
  SolveDispatcher dispatcher(config_.dispatcher);
  TopologyCache cache(config_.cache_capacity,
                      SolveSession::Options{config_.session_max_bytes});
  RequestStreamReader reader(in);
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
    const ServeResult result = p.result.get();
    const RenderedResult rendered = render_result(p.id, p.key, result, format);
    switch (rendered.status) {
      case ResultStatus::kError:
        ++summary.errors;
        break;
      case ResultStatus::kInfeasible:
        ++summary.infeasible;
        break;
      case ResultStatus::kOk:
        ++summary.ok;
        if (rendered.budget_missed) ++summary.over_budget;
        break;
    }
    out << rendered.line;
  };

  // A malformed stream stops the reader but never the emitter: everything
  // already dispatched is flushed below, then the summary block reports
  // the failure (the CLI turns it into a nonzero exit).
  try {
    for (std::optional<ServeRequest> request = reader.next(); request;
         request = reader.next()) {
      if (request->hello) {
        // The handshake is always the stream's first record (the reader
        // enforces it), so the reply precedes every result line.
        out << hello_reply();
        continue;  // consumes no request ordinal, no dispatcher slot
      }
      Pending p;
      p.id = request->id;
      p.key = request->topology_key;
      // Single-stream serving lives in cache namespace 0; the TCP
      // front-end namespaces by connection (serve/connection.h).
      const CacheKey cache_key{0, p.key};

      // Sessions ride with their cache entry: a tree record's base solve
      // fills the session's DP tables cold, subsequent delta requests on
      // the same topology re-solve warm, and eviction drops the session
      // with the topology (in-flight solves keep it alive via the
      // shared_ptr).
      std::optional<Instance> instance;
      std::shared_ptr<SolveSession> session;
      if (request->tree) {
        auto topology = request->tree->topology_ptr();
        Scenario base = std::move(request->tree->scenario());
        session = cache.put(cache_key, topology, base);
        instance.emplace(std::move(topology), std::move(base), config_.modes,
                         config_.costs, config_.cost_budget);
      } else {
        std::optional<CachedTopology> entry = cache.get(cache_key);
        if (!entry) {
          ServeResult miss;
          miss.error = "unknown topology '" + p.key +
                       "' (not in the stream, or evicted from the cache)";
          p.result = ready_result(std::move(miss));
        } else {
          try {
            // The cache handed out a private fork; apply the deltas on top.
            Scenario scen = std::move(entry->base);
            for (const ScenarioDelta& delta : request->deltas) {
              apply_delta(scen, delta);
            }
            session = std::move(entry->session);
            instance.emplace(std::move(entry->topology), std::move(scen),
                             config_.modes, config_.costs,
                             config_.cost_budget);
          } catch (const CheckError& e) {
            ServeResult bad;
            bad.error = e.what();
            p.result = ready_result(std::move(bad));
          }
        }
      }

      if (instance) {
        if (config_.project_original_modes) {
          project_to_single_mode(instance->scenario);
        }
        p.result = dispatcher.submit(0, std::move(*instance),
                                     std::move(session),
                                     std::move(request->deltas));
      }

      pending.push_back(std::move(p));
      ++summary.requests;
      while (pending.size() > window) {
        emit(pending.front());
        pending.pop_front();
      }
    }
  } catch (const CheckError& e) {
    summary.stream_error = true;
    summary.stream_error_message = e.what();
  }
  for (Pending& p : pending) emit(p);

  summary.wall_seconds = wall.seconds();
  summary.scenarios_per_second =
      summary.wall_seconds > 0.0
          ? static_cast<double>(summary.requests) / summary.wall_seconds
          : 0.0;
  summary.dispatcher = dispatcher.stats();
  summary.cache = cache.stats();

  const SolverLatencyStats& solver = summary.dispatcher.per_solver[0];
  const double solves = static_cast<double>(
      solver.solves > 0 ? solver.solves : 1);
  out << "# serve: " << summary.requests << " requests in "
      << summary.wall_seconds << " s (" << summary.scenarios_per_second
      << " scenarios/s, " << dispatcher.threads() << " threads, queue "
      << window << ")\n"
      << "# serve: ok=" << summary.ok << " infeasible=" << summary.infeasible
      << " errors=" << summary.errors
      << " over_budget=" << summary.over_budget << "\n"
      << "# cache: capacity=" << summary.cache.capacity
      << " size=" << summary.cache.size << " hits=" << summary.cache.hits
      << " misses=" << summary.cache.misses
      << " evictions=" << summary.cache.evictions << "\n"
      << "# solver " << solver.algo << ": solves=" << solver.solves
      << " warm=" << solver.warm
      << " session_bytes=" << summary.cache.session_bytes
      << " session_budget="
      << (config_.session_max_bytes != 0
              ? std::to_string(config_.session_max_bytes)
              : std::string("unbounded"))
      << " dropped_snapshots=" << summary.cache.session_snapshots_dropped
      << " dropped_tables=" << summary.cache.session_tables_dropped
      << " cells_skipped=" << summary.cache.session_cells_skipped
      << " errors=" << solver.errors
      << " mean_queue_s=" << solver.total_queue_seconds / solves
      << " mean_solve_s=" << solver.total_solve_seconds / solves
      << " max_solve_s=" << solver.max_solve_seconds
      << " work=" << solver.total_work << "\n";
  if (summary.stream_error) {
    out << "# serve: stream error: " << summary.stream_error_message << "\n";
  }
  return summary;
}

}  // namespace treeplace::serve
