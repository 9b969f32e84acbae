// The serving core: the one request path stdin and TCP serving share.
//
// A Connection is one client stream's state between steps: the LineBuffer
// its bytes are read into, the incremental RecordParser (serve/wire.h),
// the parsed requests waiting for a dispatcher slot, the ordering
// bookkeeping and the OutputBuffer of rendered result lines.  ServeCore
// steps Connections through the request path: bind_request() against a
// TopologyCache of warm SolveSessions, a bounded SolveDispatcher, and back
// through the core's completion queue.  StreamServer
// (serve/stream_server.h) drives one socketless Connection (fd -1) over an
// istream; each TCP shard (serve/net_server.h) one per client socket.
//
// Ordering contract: requests are assigned consecutive sequence numbers at
// submit time; completions arrive from worker threads in any order and are
// parked in `complete()` until every earlier sequence has been emitted, so
// the bytes written out are in request order — in both serving modes.
//
// Only the driver's thread touches a Connection or calls the core.  Worker
// threads hand completions back through the core's completion queue, keyed
// by connection uid (a completion for a connection that died meanwhile is
// dropped).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "model/cost.h"
#include "model/modes.h"
#include "serve/dispatcher.h"
#include "serve/topology_cache.h"
#include "serve/wire.h"
#include "support/timer.h"

namespace treeplace::serve {

class Connection {
 public:
  /// Takes ownership of `fd` (closed on destruction unless negative).
  /// `uid` is the server-unique id used to namespace topology-cache keys
  /// and to route completions back from worker threads.
  Connection(int fd, std::uint64_t uid);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  std::uint64_t uid() const { return uid_; }

  /// The topology-cache namespace this connection's ordinal keys live in:
  /// the uid by default (every connection sees a fresh key space), or the
  /// stable hash of the client's hello name — the identity that makes a
  /// session's warm state survive reconnects, shard kills and restarts.
  std::uint64_t namespace_id = 0;
  /// The namespace came from a hello name (persistable at drain).
  bool named = false;

  // --- inbound: read target + incremental parsing -------------------------

  std::span<char> writable(std::size_t min_bytes) {
    return in_.writable(min_bytes);
  }
  void commit(std::size_t n) { in_.commit(n); }

  /// Frames every complete buffered line through the record parser;
  /// completed records are appended to ready_requests().  Throws
  /// CheckError on malformed input (a fatal per-connection protocol
  /// error): every record completed before the bad line is still
  /// appended, and the caller serves them before the error note.  Once
  /// the connection has failed, buffered input is discarded instead.
  void pump();

  /// End of input (EOF on stdin, the peer's half-close on TCP): parse the
  /// trailing unterminated line, if any, and complete the in-progress
  /// record.  Parses nothing once the connection has failed.
  void input_done();

  bool peer_eof() const { return peer_eof_; }

  /// Parsed records waiting for a dispatcher slot.  While non-empty the
  /// server masks EPOLLIN on this socket: backpressure propagates to the
  /// peer instead of growing this queue.
  std::deque<ServeRequest>& ready_requests() { return ready_; }

  // --- ordering: sequence allocation and in-order completion --------------

  /// Assigns the next sequence number to a submitted request, recording
  /// `now_seconds` for the submit-to-emit latency histogram.
  std::size_t allocate_seq(double now_seconds);

  /// Parks an out-of-order completion until its turn.
  void complete(std::size_t seq, RenderedResult result);

  struct Done {
    RenderedResult result;
    double submit_seconds = 0.0;  ///< allocate_seq() timestamp
  };

  /// Pops the next in-request-order completed result, or nullopt while
  /// the head sequence is still in flight.
  std::optional<Done> next_completed();

  /// Sequences allocated but not yet emitted (drain barrier).
  std::size_t in_flight() const { return next_seq_ - next_emit_; }

  // --- outbound ------------------------------------------------------------

  OutputBuffer& out() { return out_; }

  // --- event-loop bookkeeping ----------------------------------------------

  /// Current poller registration (the loop diffs desired vs. these and
  /// issues one update() per transition).
  bool poll_read = true;
  bool poll_write = false;
  /// In ServeCore::stalled (waiting for a completion to submit more).
  bool stalled = false;
  /// Set on a fatal protocol error; the connection stops parsing, serves
  /// the records parsed before the bad line, lets in-flight results
  /// finish, appends the error note, then closes.
  bool failed = false;
  std::string fail_reason;
  bool fail_noted = false;
  /// The failed connection's write side is shut (EOF sent); the loop
  /// discards input until the peer's EOF, then closes.
  bool write_shut = false;
  /// Idle-reaper hooks: connections sit in the server's activity-ordered
  /// list; uniform timeouts make the front the oldest.
  std::list<std::uint64_t>::iterator idle_pos;
  double last_activity_seconds = 0.0;

 private:
  void feed(std::string_view line);

  int fd_;
  std::uint64_t uid_;
  LineBuffer in_;
  OutputBuffer out_;
  RecordParser parser_;
  std::deque<ServeRequest> ready_;
  bool peer_eof_ = false;

  std::size_t next_seq_ = 0;
  std::size_t next_emit_ = 0;
  std::deque<double> submit_times_;  ///< front() is next_emit_'s timestamp
  std::map<std::size_t, RenderedResult> completed_;
};

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
  std::uint64_t hellos = 0;       ///< handshakes served
  std::uint64_t backpressure_stalls = 0;  ///< reads paused: queue bound hit
  std::uint64_t output_stalls = 0;        ///< reads paused: slow consumer
  double wall_seconds = 0.0;
  double scenarios_per_second = 0.0;
  DispatcherStats dispatcher;
  TopologyCacheStats cache;
  LatencyHistogram latency;  ///< submit-to-emit, per result

  /// Tallies one emitted result by its status.
  void count(const RenderedResult& result);
  /// Sets wall_seconds and the request rate derived from it.
  void set_wall_seconds(double seconds);

  /// The two `# serve:` lines: totals and rate, then the status tally.
  void print_serve_lines(std::ostream& out) const;
  /// The `# cache:` and `# solver` lines.
  void print_cache_lines(std::ostream& out,
                         std::size_t session_max_bytes) const;
};

/// Sets O_NONBLOCK on `fd`; throws CheckError on failure.
void set_nonblocking(int fd);

/// A non-blocking self-pipe: notify() (one write(), async-signal-safe)
/// makes fd() readable until drain().
class WakePipe {
 public:
  WakePipe();
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int fd() const { return read_fd_; }
  void notify() const;
  void drain() const;
  /// Blocks until notified, then drains.
  void wait() const;

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// The request path both serving drivers step their Connections through.
class ServeCore {
 public:
  /// A solved request on its way back from a worker thread.
  struct Completion {
    std::uint64_t conn_uid = 0;
    std::size_t seq = 0;
    RenderedResult result;
  };

  /// `config` must outlive the core.  A connection with more than
  /// `max_output_bytes` unsent submits nothing (the TCP slow-consumer cap).
  explicit ServeCore(const StreamServerConfig& config,
                     std::size_t max_output_bytes =
                         std::numeric_limits<std::size_t>::max());

  /// Submits `conn`'s parsed requests in order, until none is left, the
  /// output cap is hit, or the dispatcher is full or conn holds
  /// queue_capacity() results not yet emitted (the connection is then
  /// `stalled` and listed in `stalled` for the driver to retry after a
  /// completion).  Hellos, unknown keys and bad deltas complete inline.
  void process_requests(Connection& conn);

  /// Appends `conn`'s completed results, in request order, to conn.out().
  void flush_completed(Connection& conn);

  /// Every completion queued since the last call (reused storage, valid
  /// until the next call).  wake() is notified on each one.
  std::vector<Completion>& take_completions();
  const WakePipe& wake() const { return wake_; }

  /// Seconds since construction.
  double now() const { return wall_.seconds(); }
  /// `summary` with wall time, dispatcher and cache stats filled in.
  ServeSummary report() const;

 private:
  void push_completion(Completion completion);

  // Declared before `dispatcher`: its workers push completions until its
  // destructor has joined them.
  const StreamServerConfig& config_;
  const std::size_t max_output_bytes_;
  const ResultFormat format_;
  Stopwatch wall_;
  WakePipe wake_;
  std::mutex mutex_;  ///< guards completions_
  std::vector<Completion> completions_;
  std::vector<Completion> batch_;

 public:
  SolveDispatcher dispatcher;
  TopologyCache cache;
  ServeSummary summary;
  /// Uids of the connections process_requests() stalled, oldest first.
  std::vector<std::uint64_t> stalled;
  /// Namespaces bound by a hello name= — the sessions worth persisting.
  std::unordered_set<std::uint64_t> named_namespaces;
  /// If set, called when a named connection's tree record has bound its
  /// session, before its solve (the TCP tier restores persisted state).
  std::function<void(const CacheKey&, SolveSession&)> on_named_publish;
};

}  // namespace treeplace::serve
