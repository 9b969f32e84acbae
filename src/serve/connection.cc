#include "serve/connection.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ostream>
#include <utility>

#include "serve/router.h"
#include "support/check.h"

namespace treeplace::serve {

Connection::Connection(int fd, std::uint64_t uid)
    : namespace_id(uid), fd_(fd), uid_(uid) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::pump() {
  if (failed) {
    in_.take_rest();  // a failed stream parses nothing more
    return;
  }
  while (std::optional<std::string_view> line = in_.next_line()) feed(*line);
}

void Connection::input_done() {
  if (peer_eof_) return;
  peer_eof_ = true;
  if (failed) return;  // a failed stream parses nothing more
  // A final line without a terminating newline still counts.
  if (std::optional<std::string_view> rest = in_.take_rest()) {
    if (!rest->empty()) feed(*rest);
  }
  if (std::optional<ServeRequest> request = parser_.finish()) {
    ready_.push_back(std::move(*request));
  }
}

void Connection::feed(std::string_view line) {
  feed_line(parser_, line, [this](ServeRequest request) {
    ready_.push_back(std::move(request));
  });
}

std::size_t Connection::allocate_seq(double now_seconds) {
  submit_times_.push_back(now_seconds);
  return next_seq_++;
}

void Connection::complete(std::size_t seq, RenderedResult result) {
  TREEPLACE_CHECK_MSG(seq >= next_emit_ && seq < next_seq_,
                      "completion for unknown sequence " << seq);
  completed_.emplace(seq, std::move(result));
}

std::optional<Connection::Done> Connection::next_completed() {
  const auto it = completed_.find(next_emit_);
  if (it == completed_.end()) return std::nullopt;
  Done done{std::move(it->second), submit_times_.front()};
  completed_.erase(it);
  submit_times_.pop_front();
  ++next_emit_;
  return done;
}

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

void ServeSummary::print_serve_lines(std::ostream& out) const {
  out << "# serve: " << requests << " requests in " << wall_seconds << " s ("
      << scenarios_per_second << " scenarios/s, " << dispatcher.threads
      << " threads, queue " << dispatcher.queue_capacity << ")\n"
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

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  TREEPLACE_CHECK(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

WakePipe::WakePipe() {
  int fds[2];
  TREEPLACE_CHECK_MSG(::pipe(fds) == 0, "pipe: " << std::strerror(errno));
  read_fd_ = fds[0];
  write_fd_ = fds[1];
  set_nonblocking(read_fd_);
  set_nonblocking(write_fd_);
}

WakePipe::~WakePipe() {
  ::close(read_fd_);
  ::close(write_fd_);
}

void WakePipe::notify() const {
  // A full pipe is already readable: dropping the byte loses no wake-up.
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(write_fd_, &byte, 1);
}

void WakePipe::drain() const {
  char buf[256];
  while (::read(read_fd_, buf, sizeof(buf)) > 0) {
  }
}

void WakePipe::wait() const {
  pollfd p{read_fd_, POLLIN, 0};
  while (::poll(&p, 1, -1) < 0 && errno == EINTR) {
  }
  drain();
}

ServeCore::ServeCore(const StreamServerConfig& config,
                     std::size_t max_output_bytes)
    : config_(config),
      max_output_bytes_(max_output_bytes),
      format_{config.print_placements, config.cost_budget.has_value()},
      dispatcher(config.dispatcher),
      cache(config.cache_capacity,
            SolveSession::Options{config.session_max_bytes}) {
  TREEPLACE_CHECK_MSG(config.dispatcher.algos.size() == 1,
                      "the serving loop serves every request with one solver");
}

void ServeCore::process_requests(Connection& conn) {
  while (!conn.ready_requests().empty()) {
    if (conn.out().size() > max_output_bytes_) {
      if (conn.poll_read) ++summary.output_stalls;
      break;  // slow consumer: resume when the output drains
    }
    ServeRequest& request = conn.ready_requests().front();

    // The handshake consumes no ordinal and no dispatcher slot; replying
    // inline keeps the `# hello:` line ahead of every result (a `#` line
    // never perturbs result parsing or comparisons).  A name binds the
    // connection's cache namespace to the name's stable hash — the
    // identity the TCP router hashes onto its ring, and the one
    // persistence files are keyed by.
    if (request.hello) {
      ++summary.hellos;
      if (!request.hello->name.empty()) {
        conn.namespace_id = stable_hash64(request.hello->name);
        conn.named = true;
        named_namespaces.insert(conn.namespace_id);
      }
      conn.out().append("# hello: treeplace v1\n");
      conn.ready_requests().pop_front();
      continue;
    }

    const std::string client_key = request.topology_key;
    const CacheKey cache_key{conn.namespace_id, client_key};

    // Reserve the dispatcher slot before touching the request, so a full
    // queue leaves it intact for the retry (unknown-key and bad-delta
    // requests briefly hold a slot too; they release it inline below).
    // A connection with queue_capacity() results not yet emitted waits
    // too: behind a slow request, finished results would otherwise pile
    // up without bound.  Emitting what is ready first means it waits only
    // for a result still being solved, whose completion will wake it.
    const std::size_t window = dispatcher.queue_capacity();
    if (conn.in_flight() >= window) flush_completed(conn);
    if (conn.in_flight() >= window || !dispatcher.try_reserve_slot()) {
      if (!conn.stalled) {
        conn.stalled = true;
        stalled.push_back(conn.uid());
        ++summary.backpressure_stalls;
      }
      break;  // the driver stops reading until a completion
    }

    BoundRequest bound = bind_request(request, cache_key, cache, config_);
    if (request.tree && conn.named && on_named_publish) {
      on_named_publish(cache_key, *bound.session);
    }

    const std::size_t seq = conn.allocate_seq(now());
    if (bound.error) {
      dispatcher.release_reserved_slot();
      conn.complete(seq,
                    render_result(request.id, client_key, *bound.error,
                                  format_));
    } else {
      const std::uint64_t uid = conn.uid();
      const std::size_t id = request.id;
      dispatcher.submit_reserved(
          0, std::move(*bound.instance), std::move(bound.session),
          std::move(request.deltas),
          [this, uid, seq, id, client_key](ServeResult result) {
            push_completion(Completion{
                uid, seq, render_result(id, client_key, result, format_)});
          });
    }
    ++summary.requests;
    conn.ready_requests().pop_front();
  }
}

void ServeCore::flush_completed(Connection& conn) {
  while (std::optional<Connection::Done> done = conn.next_completed()) {
    summary.latency.record(now() - done->submit_seconds);
    summary.count(done->result);
    conn.out().append(done->result.line);
  }
}

void ServeCore::push_completion(Completion completion) {
  {
    std::scoped_lock lock(mutex_);
    completions_.push_back(std::move(completion));
  }
  wake_.notify();
}

std::vector<ServeCore::Completion>& ServeCore::take_completions() {
  batch_.clear();
  std::scoped_lock lock(mutex_);
  batch_.swap(completions_);
  return batch_;
}

ServeSummary ServeCore::report() const {
  ServeSummary report = summary;
  report.set_wall_seconds(now());
  report.dispatcher = dispatcher.stats();
  report.cache = cache.stats();
  return report;
}

}  // namespace treeplace::serve
