// Sharded async TCP serving tier: warm per-connection sessions that
// survive shard kills and restarts.
//
// NetServer runs a router thread in front of K in-process shards.  Each
// shard is a self-contained serving loop — its own event loop (epoll,
// with a portable poll() backend behind the Poller abstraction — select
// TREEPLACE_POLLER=poll), its own TopologyCache of warm SolveSessions and
// its own SolveDispatcher pool — so shards share no solver state and no
// locks on the solve path.  The router accepts non-blocking TCP
// connections, pre-reads just enough bytes to see the first record line,
// and routes the connection by consistent hashing (serve/router.h): a
// `treeplace-hello v1 name=<id>` handshake pins the client to the shard
// owning stable_hash64(name) — same name, same shard, same warm session
// across reconnects — while anonymous connections spread by uid.  The
// socket plus its pre-read bytes are then handed off to the shard, which
// frames its records incrementally (serve/wire.h's RecordParser, the one
// serve grammar), binds each through bind_request() to a TopologyCache
// entry + warm SolveSession under a CacheKey namespaced by the
// connection, solves on the shard's dispatcher, and returns
// per-connection-ordered result lines byte-identical to a StreamServer
// run of the same records (modulo queue_s=/solve_s= timings) — for any
// shard count, and for any segmentation of the input: a malformed record
// still gets every earlier record's result, then `# protocol error:`.
//
// Persistence (`persist_dir`): a named client's sessions are written as
// versioned snapshots (core/dp_snapshot.h via SolveSession::save) when
// the owning shard drains — at shutdown or on kill_shard() — and restored
// when the name reconnects and re-publishes its trees, so a shard kill or
// a full server restart resumes *warm*: the first post-restore delta
// solve performs bit-identical work to the never-restarted session
// (bench/shard_restart gates this).  A corrupt, truncated or mismatched
// snapshot is rejected whole (CheckError) and the session starts cold —
// never wrong.
//
// kill_shard()/kill_next_shard() are async-signal-safe (atomic store plus
// a wake-pipe write; the CLI wires SIGUSR1 to kill_next_shard): the shard
// stops reading, finishes in-flight solves, flushes results, saves named
// sessions, and exits; the router's hash ring walks past dead shards so
// later connections (including the killed clients' reconnects) land on
// the survivors.
//
// Backpressure and drain semantics within a shard are unchanged from the
// single-loop server: bounded dispatcher queue and per-connection output
// caps mask socket reads (TCP flow control pushes back on the client),
// completions cross worker→loop through a mutex-protected queue plus the
// shard's wake pipe, and graceful drain flushes every in-flight result.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/connection.h"
#include "serve/stream_server.h"
#include "serve/wire.h"

namespace treeplace::serve {

// ---------------------------------------------------------------------------
// Poller

/// Minimal readiness-notification abstraction: epoll on Linux, poll()
/// everywhere (and for tests of the fallback).  Level-triggered semantics
/// on both backends.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;  ///< error or peer hangup (still drain reads first)
  };

  virtual ~Poller() = default;

  virtual void add(int fd, bool read, bool write) = 0;
  virtual void update(int fd, bool read, bool write) = 0;
  virtual void remove(int fd) = 0;

  /// Blocks up to timeout_ms (-1 = forever) and appends ready events.
  virtual void wait(std::vector<Event>& events, int timeout_ms) = 0;

  virtual const char* name() const = 0;

  /// epoll by default; TREEPLACE_POLLER=poll selects the fallback.
  static std::unique_ptr<Poller> create();
  static std::unique_ptr<Poller> create(const std::string& backend);
};

// ---------------------------------------------------------------------------
// NetServer

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (tests/bench read port())

  /// In-process shards behind the router; each owns a full serving loop
  /// (event loop + TopologyCache + dispatcher pool).  1 = the router still
  /// runs, fronting a single shard, with output byte-identical to any
  /// other shard count for the same per-connection record streams.
  std::size_t shards = 1;
  /// When set, named sessions (hello name=) are snapshotted here at shard
  /// drain and restored on re-publish; empty disables persistence.
  std::string persist_dir;

  std::size_t max_conns = 4096;       ///< beyond this, accept-and-close
  double idle_timeout_seconds = 300;  ///< 0 = never reap idle connections
  /// > 0: enable TCP keepalive probes on accepted sockets (SO_KEEPALIVE
  /// with TCP_KEEPIDLE = this many seconds), so half-dead peers — NAT
  /// timeouts, silently vanished clients holding warm sessions — are
  /// detected and reaped by the kernel instead of pinning a connection
  /// slot until the idle timeout.  0 = off (kernel defaults apply only if
  /// something else enabled SO_KEEPALIVE).
  int keepalive_seconds = 0;
  double drain_timeout_seconds = 30;  ///< force-close laggards on shutdown
  std::size_t max_output_bytes = 1 << 20;  ///< per-conn pending-out cap
  std::size_t read_chunk = 64 * 1024;      ///< bytes per read() call
  std::size_t max_line_bytes = LineBuffer::kDefaultMaxLineBytes;

  /// Solver, cache and result-format knobs, shared with stream mode.
  /// Note cache_capacity bounds *resident topologies per shard*: serving
  /// K concurrent tree-publishing clients without eviction errors needs
  /// cache_capacity >= K on every shard their keys hash to.
  StreamServerConfig stream;
};

struct NetServerSummary : ServeSummary {
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;      ///< refused at max_conns or while draining
  std::uint64_t reaped_idle = 0;  ///< closed by the idle timeout
  std::uint64_t protocol_errors = 0;  ///< connections failed on bad input
  std::uint64_t peak_connections = 0;

  std::uint64_t backpressure_stalls = 0;  ///< reads paused: dispatcher full
  std::uint64_t output_stalls = 0;        ///< reads paused: slow consumer
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;

  std::uint64_t hellos = 0;            ///< handshakes served
  std::uint64_t sessions_saved = 0;    ///< snapshots written at drain
  std::uint64_t sessions_restored = 0; ///< snapshots resumed warm
  std::uint64_t shards_killed = 0;     ///< shards drained by kill_shard()

  double p50_latency_seconds = 0.0;  ///< submit-to-emit, per result
  double p99_latency_seconds = 0.0;

  bool drain_timed_out = false;  ///< shutdown force-closed laggards
};

/// Arms TCP keepalive probes on `fd`: SO_KEEPALIVE on, first probe after
/// `idle_seconds` of silence (TCP_KEEPIDLE), then probes every
/// max(1, idle_seconds / 3) seconds (TCP_KEEPINTVL) with 3 strikes
/// (TCP_KEEPCNT) before the kernel declares the peer dead.  Returns false
/// (without throwing) if any setsockopt fails — keepalive is best-effort
/// hardening, not correctness.  Exposed for tests; NetServer applies it
/// to every accepted socket when NetServerConfig::keepalive_seconds > 0.
bool arm_tcp_keepalive(int fd, int idle_seconds);

class NetServer {
 public:
  explicit NetServer(NetServerConfig config);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds and listens; returns the bound port (resolves port 0).  Must
  /// be called before run(); separate so callers can publish the port
  /// before entering the loop.
  std::uint16_t listen_and_bind();
  std::uint16_t port() const { return port_; }
  std::size_t shards() const { return shards_.size(); }

  /// Runs the router plus one serving thread per shard until shutdown(),
  /// then drains gracefully and writes the `#`-prefixed summary block to
  /// `summary_out` (aggregated across shards; per-shard `# shard i:`
  /// lines follow when shards > 1).
  NetServerSummary run(std::ostream& summary_out);

  /// Requests graceful shutdown of the whole server.  Async-signal-safe
  /// (atomic store plus a write() on the wake pipe); callable from any
  /// thread or from a signal handler.
  void shutdown();

  /// Drains one shard — finish in-flight solves, flush, save named
  /// sessions, exit its thread — while the router and the other shards
  /// keep serving (the ring routes around it).  Async-signal-safe; out of
  /// range or already-killed shards are a no-op.
  void kill_shard(std::size_t shard);
  /// kill_shard() on the next living shard, round-robin — the SIGUSR1
  /// hook.  A no-op once every shard is dead.
  void kill_next_shard();

 private:
  struct Completion {
    std::uint64_t conn_uid = 0;
    std::size_t seq = 0;
    RenderedResult result;
  };

  /// An accepted socket leaving the router for its shard: the fd, the
  /// server-unique uid, and every byte the router pre-read while sniffing
  /// the first record line (replayed into the shard's LineBuffer so no
  /// byte is lost).
  struct Handoff {
    int fd = -1;
    std::uint64_t uid = 0;
    std::string initial;
    bool eof = false;  ///< peer already half-closed during pre-read
  };

  /// Router→shard and worker→shard-loop channels, one per shard.  The
  /// wake pipe is the shard loop's only cross-thread contact; `kill` and
  /// `drain` are the async-signal-safe stop requests (kill saves named
  /// sessions and counts as a kill; drain is the shutdown path).
  struct ShardState {
    int wake_read_fd = -1;
    int wake_write_fd = -1;
    std::atomic<bool> kill{false};
    std::atomic<bool> drain{false};
    /// Cleared the moment the shard starts draining, so the router stops
    /// routing new connections to it.
    std::atomic<bool> alive{true};
    std::mutex mutex;  ///< guards completions + handoffs
    std::deque<Completion> completions;
    std::deque<Handoff> handoffs;
  };

  class Loop;    // per-shard serving loop (net_server.cc)
  class Router;  // accept + pre-read + handoff loop (net_server.cc)
  struct ShardReport;

  void wake_shard(std::size_t shard);

  NetServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;   ///< router wake pipe (shutdown channel)
  int wake_write_fd_ = -1;
  std::atomic<bool> shutdown_requested_{false};

  std::vector<std::unique_ptr<ShardState>> shards_;
  std::atomic<std::size_t> kill_cursor_{0};
  /// Connections owned by shards (router enforces max_conns against it).
  std::atomic<std::size_t> shard_conns_{0};

  friend class Loop;
  friend class Router;
};

}  // namespace treeplace::serve
