#include "serve/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>

#include "serve/router.h"
#include "support/binio.h"
#include "support/check.h"
#include "support/env.h"
#include "support/timer.h"

namespace treeplace::serve {

// ---------------------------------------------------------------------------
// Poller backends

namespace {

class PollPoller final : public Poller {
 public:
  void add(int fd, bool read, bool write) override {
    TREEPLACE_CHECK(!index_.count(fd));
    index_[fd] = fds_.size();
    fds_.push_back(pollfd{fd, mask(read, write), 0});
  }

  void update(int fd, bool read, bool write) override {
    fds_[index_.at(fd)].events = mask(read, write);
  }

  void remove(int fd) override {
    const std::size_t i = index_.at(fd);
    index_.erase(fd);
    if (i + 1 != fds_.size()) {
      fds_[i] = fds_.back();
      index_[fds_[i].fd] = i;
    }
    fds_.pop_back();
  }

  void wait(std::vector<Event>& events, int timeout_ms) override {
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      events.push_back(Event{p.fd, (p.revents & POLLIN) != 0,
                             (p.revents & POLLOUT) != 0,
                             (p.revents & (POLLERR | POLLHUP | POLLNVAL)) !=
                                 0});
    }
  }

  const char* name() const override { return "poll"; }

 private:
  static short mask(bool read, bool write) {
    return static_cast<short>((read ? POLLIN : 0) | (write ? POLLOUT : 0));
  }

  std::vector<pollfd> fds_;
  std::unordered_map<int, std::size_t> index_;
};

#ifdef __linux__
class EpollPoller final : public Poller {
 public:
  EpollPoller() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
    TREEPLACE_CHECK_MSG(epfd_ >= 0,
                        "epoll_create1: " << std::strerror(errno));
  }
  ~EpollPoller() override { ::close(epfd_); }

  void add(int fd, bool read, bool write) override { ctl(EPOLL_CTL_ADD, fd, read, write); }
  void update(int fd, bool read, bool write) override { ctl(EPOLL_CTL_MOD, fd, read, write); }

  void remove(int fd) override {
    epoll_event ev{};
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  void wait(std::vector<Event>& events, int timeout_ms) override {
    epoll_event buf[256];
    const int n = ::epoll_wait(epfd_, buf, 256, timeout_ms);
    for (int i = 0; i < n; ++i) {
      events.push_back(Event{buf[i].data.fd, (buf[i].events & EPOLLIN) != 0,
                             (buf[i].events & EPOLLOUT) != 0,
                             (buf[i].events & (EPOLLERR | EPOLLHUP)) != 0});
    }
  }

  const char* name() const override { return "epoll"; }

 private:
  void ctl(int op, int fd, bool read, bool write) {
    epoll_event ev{};
    ev.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    TREEPLACE_CHECK_MSG(::epoll_ctl(epfd_, op, fd, &ev) == 0,
                        "epoll_ctl(" << op << ", " << fd
                                     << "): " << std::strerror(errno));
  }

  int epfd_;
};
#endif  // __linux__

}  // namespace

std::unique_ptr<Poller> Poller::create(const std::string& backend) {
#ifdef __linux__
  if (backend != "poll") return std::make_unique<EpollPoller>();
#else
  (void)backend;
#endif
  return std::make_unique<PollPoller>();
}

std::unique_ptr<Poller> Poller::create() {
  return create(env_string("TREEPLACE_POLLER", "epoll"));
}

// ---------------------------------------------------------------------------
// NetServer setup

namespace {

in_addr_t parse_host(const std::string& host) {
  if (host.empty() || host == "*" || host == "0.0.0.0") return INADDR_ANY;
  if (host == "localhost") return htonl(INADDR_LOOPBACK);
  in_addr addr{};
  TREEPLACE_CHECK_MSG(::inet_pton(AF_INET, host.c_str(), &addr) == 1,
                      "cannot parse listen host '" << host
                                                   << "' (IPv4 dotted quad)");
  return addr.s_addr;
}

}  // namespace

bool arm_tcp_keepalive(int fd, int idle_seconds) {
  if (idle_seconds <= 0) return false;
  int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one)) != 0) {
    return false;
  }
  const int interval = std::max(1, idle_seconds / 3);
  constexpr int kProbes = 3;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle_seconds,
                      sizeof(idle_seconds)) == 0 &&
         ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &interval,
                      sizeof(interval)) == 0 &&
         ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &kProbes,
                      sizeof(kProbes)) == 0;
}

namespace {

/// On-disk name of one namespaced session's snapshot.  The namespace id is
/// process-stable (hello-name hash), so a restarted server resolves the
/// same client to the same file.
std::string snapshot_path(const std::string& dir, const CacheKey& key) {
  std::string name = std::to_string(key.namespace_id);
  name.insert(name.begin(), 't');
  name += '_';
  for (const char c : key.topology_key) {
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return dir + "/" + name + ".tpsnap";
}

}  // namespace

NetServer::NetServer(NetServerConfig config) : config_(std::move(config)) {
  TREEPLACE_CHECK_MSG(config_.stream.dispatcher.algos.size() == 1,
                      "NetServer serves every request with one solver");
  if (config_.shards == 0) config_.shards = 1;
  if (!config_.persist_dir.empty()) {
    ::mkdir(config_.persist_dir.c_str(), 0755);  // EEXIST is fine
  }
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<ShardState>());
  }
}

NetServer::~NetServer() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

std::uint16_t NetServer::listen_and_bind() {
  TREEPLACE_CHECK_MSG(listen_fd_ < 0, "listen_and_bind() called twice");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  TREEPLACE_CHECK_MSG(fd >= 0, "socket: " << std::strerror(errno));
  set_nonblocking(fd);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = parse_host(config_.host);
  addr.sin_port = htons(config_.port);
  TREEPLACE_CHECK_MSG(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind " << config_.host << ":" << config_.port << ": "
              << std::strerror(errno));
  TREEPLACE_CHECK_MSG(::listen(fd, 1024) == 0,
                      "listen: " << std::strerror(errno));

  socklen_t len = sizeof(addr);
  TREEPLACE_CHECK(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  return port_;
}

void NetServer::shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  wake_.notify();
}

void NetServer::kill_shard(std::size_t shard) {
  // Async-signal-safe: atomics and write() only, no locks or streams.
  if (shard >= shards_.size()) return;
  shards_[shard]->kill.store(true, std::memory_order_release);
  shards_[shard]->wake.notify();
}

void NetServer::kill_next_shard() {
  for (std::size_t attempt = 0; attempt < shards_.size(); ++attempt) {
    const std::size_t shard =
        kill_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
    if (shards_[shard]->alive.load(std::memory_order_acquire)) {
      kill_shard(shard);
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// The per-shard serving loop

class NetServer::Loop {
 public:
  Loop(NetServer& server, std::size_t shard_index)
      : server_(server),
        config_(server.config_),
        shard_(*server.shards_[shard_index]),
        core_(config_.stream, config_.max_output_bytes),
        poller_(Poller::create()) {
    if (!config_.persist_dir.empty()) {
      core_.on_named_publish = [this](const CacheKey& key,
                                      SolveSession& session) {
        maybe_restore(key, session);
      };
    }
  }

  NetServerSummary run();

 private:
  double now() const { return core_.now(); }

  void drain_completions();
  void adopt_handoffs();
  void retry_stalled();
  void handle_readable(Connection* conn);
  void handle_writable(Connection* conn);
  /// Emits conn's completed results and its protocol-error note, writes,
  /// re-arms interest and may close the connection.
  void flush(Connection* conn);
  bool try_write(Connection* conn);  ///< false: connection was closed
  void update_interest(Connection* conn);
  void maybe_close(Connection* conn);
  void close_connection(Connection* conn);
  void touch_activity(Connection* conn);
  void reap_idle();
  void begin_drain();
  void maybe_restore(const CacheKey& key, SolveSession& session);
  void save_sessions();
  int poll_timeout_ms() const;

  NetServer& server_;
  const NetServerConfig& config_;
  ShardState& shard_;
  ServeCore core_;
  std::unique_ptr<Poller> poller_;

  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<int, Connection*> by_fd_;
  std::list<std::uint64_t> idle_order_;  ///< activity order, oldest first

  bool draining_ = false;
  double drain_start_ = 0.0;

  NetServerSummary summary_;  ///< the loop's own counters; core_ has the rest
};

void NetServer::Loop::drain_completions() {
  for (ServeCore::Completion& c : core_.take_completions()) {
    const auto it = conns_.find(c.conn_uid);
    if (it == conns_.end()) continue;  // connection died mid-solve
    Connection* conn = it->second.get();
    conn->complete(c.seq, std::move(c.result));
    flush(conn);
  }
}

void NetServer::Loop::adopt_handoffs() {
  std::deque<Handoff> batch;
  {
    std::scoped_lock lock(shard_.mutex);
    batch.swap(shard_.handoffs);
  }
  for (Handoff& h : batch) {
    if (draining_) {
      // Router raced our alive=false flip; refuse like a draining accept.
      ::close(h.fd);
      server_.shard_conns_.fetch_sub(1, std::memory_order_relaxed);
      ++summary_.dropped;
      continue;
    }
    auto owned = std::make_unique<Connection>(h.fd, h.uid);
    Connection* conn = owned.get();
    conn->last_activity_seconds = now();
    idle_order_.push_back(h.uid);
    conn->idle_pos = std::prev(idle_order_.end());
    conn->poll_read = true;
    conn->poll_write = false;
    poller_->add(h.fd, true, false);
    by_fd_[h.fd] = conn;
    conns_[h.uid] = std::move(owned);
    ++summary_.accepted;
    summary_.peak_connections =
        std::max<std::uint64_t>(summary_.peak_connections, conns_.size());

    // Replay the router's pre-read bytes into the connection's line buffer
    // so the byte stream the parser sees is exactly what the peer sent.
    if (!h.initial.empty()) {
      const std::span<char> buf = conn->writable(h.initial.size());
      std::memcpy(buf.data(), h.initial.data(), h.initial.size());
      conn->commit(h.initial.size());
      summary_.bytes_in += h.initial.size();
    }
    try {
      conn->pump();
      if (h.eof) conn->input_done();
    } catch (const CheckError& e) {
      conn->failed = true;
      conn->fail_reason = e.message();
    }
    core_.process_requests(*conn);
    flush(conn);
  }
}

void NetServer::Loop::retry_stalled() {
  if (core_.stalled.empty()) return;
  std::vector<std::uint64_t> retry;
  retry.swap(core_.stalled);
  for (const std::uint64_t uid : retry) {
    const auto it = conns_.find(uid);
    if (it == conns_.end()) continue;
    Connection* conn = it->second.get();
    conn->stalled = false;
    core_.process_requests(*conn);
    flush(conn);
  }
}

void NetServer::Loop::handle_readable(Connection* conn) {
  bool eof = false;
  while (true) {
    const std::span<char> buf = conn->writable(config_.read_chunk);
    const ssize_t n =
        ::read(conn->fd(), buf.data(), std::min(buf.size(), config_.read_chunk));
    if (n > 0) {
      conn->commit(static_cast<std::size_t>(n));
      summary_.bytes_in += static_cast<std::uint64_t>(n);
      touch_activity(conn);
      // One chunk per event: level-triggered readiness refires if more is
      // buffered, keeping service fair across thousands of sockets.
      break;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // ECONNRESET and friends: treat as end of input
    break;
  }

  try {
    conn->pump();
    if (eof) conn->input_done();
  } catch (const CheckError& e) {
    conn->failed = true;
    conn->fail_reason = e.message();
  }
  core_.process_requests(*conn);
  flush(conn);
}

void NetServer::Loop::handle_writable(Connection* conn) {
  if (!try_write(conn)) return;
  touch_activity(conn);
  // Output drained below the cap: resume submitting parsed records.
  core_.process_requests(*conn);
  flush(conn);
}

void NetServer::Loop::flush(Connection* conn) {
  core_.flush_completed(*conn);
  if (conn->failed && !conn->fail_noted && conn->in_flight() == 0 &&
      conn->ready_requests().empty()) {
    conn->fail_noted = true;
    ++summary_.protocol_errors;
    conn->out().append("# protocol error: " + conn->fail_reason + "\n");
  }
  if (!try_write(conn)) return;
  update_interest(conn);
  maybe_close(conn);
}

bool NetServer::Loop::try_write(Connection* conn) {
  while (!conn->out().empty()) {
    const std::span<const char> pending = conn->out().pending();
    const ssize_t n =
        ::send(conn->fd(), pending.data(), pending.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->out().consume(static_cast<std::size_t>(n));
      summary_.bytes_out += static_cast<std::uint64_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    close_connection(conn);  // EPIPE/ECONNRESET: peer is gone
    return false;
  }
  return true;
}

void NetServer::Loop::update_interest(Connection* conn) {
  // A failed connection reads on only to discard (see maybe_close).
  const bool want_read =
      !conn->peer_eof() && !draining_ &&
      (conn->failed || (conn->ready_requests().empty() &&
                        conn->out().size() <= config_.max_output_bytes));
  const bool want_write = !conn->out().empty();
  if (want_read != conn->poll_read || want_write != conn->poll_write) {
    conn->poll_read = want_read;
    conn->poll_write = want_write;
    poller_->update(conn->fd(), want_read, want_write);
  }
}

void NetServer::Loop::maybe_close(Connection* conn) {
  if (!conn->ready_requests().empty() || conn->in_flight() > 0 ||
      !conn->out().empty()) {
    return;
  }
  if (conn->peer_eof() || draining_) {
    close_connection(conn);
  } else if (conn->fail_noted && !conn->write_shut) {
    // A failed connection has written its last byte: send EOF, then wait
    // for the peer's before closing.  Closing on unread input would reset
    // the connection, and a reset can discard results still in flight.
    ::shutdown(conn->fd(), SHUT_WR);
    conn->write_shut = true;
  }
}

void NetServer::Loop::close_connection(Connection* conn) {
  poller_->remove(conn->fd());
  by_fd_.erase(conn->fd());
  idle_order_.erase(conn->idle_pos);
  conns_.erase(conn->uid());  // destroys conn, closes the fd
  server_.shard_conns_.fetch_sub(1, std::memory_order_relaxed);
}

void NetServer::Loop::touch_activity(Connection* conn) {
  conn->last_activity_seconds = now();
  idle_order_.splice(idle_order_.end(), idle_order_, conn->idle_pos);
}

void NetServer::Loop::reap_idle() {
  if (config_.idle_timeout_seconds <= 0 || draining_) return;
  const double deadline = now() - config_.idle_timeout_seconds;
  while (!idle_order_.empty()) {
    Connection* conn = conns_.at(idle_order_.front()).get();
    if (conn->last_activity_seconds > deadline) break;
    if (conn->in_flight() > 0 || !conn->ready_requests().empty()) {
      touch_activity(conn);  // solver-busy, not client-idle
      continue;
    }
    ++summary_.reaped_idle;
    close_connection(conn);
  }
}

void NetServer::Loop::begin_drain() {
  if (draining_) return;
  draining_ = true;
  drain_start_ = now();
  // Flip alive first: the router consults it before every handoff, so the
  // racy window where a new connection lands on a draining shard is just
  // the enqueue already in flight (adopt_handoffs refuses those).
  shard_.alive.store(false, std::memory_order_release);
  if (shard_.kill.load(std::memory_order_acquire)) {
    summary_.shards_killed = 1;
  }
  // Sweep every connection: drop read interest, close the already-idle.
  std::vector<std::uint64_t> uids;
  uids.reserve(conns_.size());
  for (const auto& [uid, conn] : conns_) uids.push_back(uid);
  for (const std::uint64_t uid : uids) {
    const auto it = conns_.find(uid);
    if (it == conns_.end()) continue;
    flush(it->second.get());
  }
}

void NetServer::Loop::maybe_restore(const CacheKey& key,
                                    SolveSession& session) {
  const std::string path = snapshot_path(config_.persist_dir, key);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return;  // nothing persisted under this identity: cold start
  const std::streamoff size = in.tellg();
  if (size <= 0) return;
  in.seekg(0);
  try {
    binio::Reader reader(in, static_cast<std::uint64_t>(size));
    session.restore(reader);
    ++summary_.sessions_restored;
  } catch (const CheckError&) {
    // Truncated, corrupt, wrong-version or wrong-topology snapshot: the
    // restore is all-or-nothing, so the session is untouched and the next
    // solve simply runs cold.  Never serve from a half-read snapshot.
  }
}

void NetServer::Loop::save_sessions() {
  if (config_.persist_dir.empty()) return;
  core_.cache.for_each([&](const CacheKey& key, const CachedTopology& entry) {
    if (!core_.named_namespaces.count(key.namespace_id)) return;
    if (entry.session == nullptr) return;
    const std::string path = snapshot_path(config_.persist_dir, key);
    const std::string tmp = path + ".tmp";
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;
    binio::Writer writer(out);
    entry.session->save(writer);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return;
    }
    out.close();
    // Atomic replace: a crash mid-write leaves the previous snapshot (or
    // none), never a torn file.
    if (std::rename(tmp.c_str(), path.c_str()) == 0) {
      ++summary_.sessions_saved;
    }
  });
}

int NetServer::Loop::poll_timeout_ms() const {
  if (draining_) return 100;  // heartbeat for the drain deadline
  if (config_.idle_timeout_seconds > 0 && !idle_order_.empty()) {
    const Connection* conn = conns_.at(idle_order_.front()).get();
    const double until = conn->last_activity_seconds +
                         config_.idle_timeout_seconds - now();
    return std::clamp(static_cast<int>(until * 1e3) + 1, 10, 60'000);
  }
  return -1;
}

NetServerSummary NetServer::Loop::run() {
  poller_->add(shard_.wake.fd(), true, false);
  poller_->add(core_.wake().fd(), true, false);

  std::vector<Poller::Event> events;
  while (true) {
    drain_completions();
    adopt_handoffs();
    retry_stalled();
    reap_idle();

    if (shard_.drain.load(std::memory_order_acquire) ||
        shard_.kill.load(std::memory_order_acquire)) {
      begin_drain();
    }
    if (draining_) {
      if (conns_.empty()) break;
      if (now() - drain_start_ > config_.drain_timeout_seconds) {
        summary_.drain_timed_out = true;
        break;
      }
    }

    events.clear();
    poller_->wait(events, poll_timeout_ms());
    for (const Poller::Event& ev : events) {
      if (ev.fd == shard_.wake.fd()) {
        shard_.wake.drain();
        continue;
      }
      if (ev.fd == core_.wake().fd()) {
        core_.wake().drain();
        continue;
      }
      const auto it = by_fd_.find(ev.fd);
      if (it == by_fd_.end()) continue;  // closed earlier in this batch
      Connection* conn = it->second;
      if (ev.readable || ev.hangup) {
        handle_readable(conn);
        // handle_readable may have closed it; re-check before writing.
        const auto again = by_fd_.find(ev.fd);
        if (again == by_fd_.end() || again->second != conn) continue;
      }
      if (ev.writable) handle_writable(conn);
    }
  }

  // A handoff enqueued between our last adopt and the alive=false flip
  // would otherwise leak its socket; refuse it like a draining accept.
  adopt_handoffs();
  // Force-close whatever the drain deadline left behind.
  while (!conns_.empty()) close_connection(conns_.begin()->second.get());

  // With every in-flight solve completed (closing waits on them) the warm
  // sessions are quiescent: snapshot the named ones for the next owner.
  save_sessions();

  static_cast<ServeSummary&>(summary_) = core_.report();
  return summary_;
}

// ---------------------------------------------------------------------------
// The router: accept, pre-read the first record line, hand off by ring

class NetServer::Router {
 public:
  explicit Router(NetServer& server)
      : server_(server),
        config_(server.config_),
        poller_(Poller::create()),
        ring_(server.shards_.size()) {}

  void run();

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t peak() const { return peak_; }
  const char* poller_name() const { return poller_->name(); }
  double wall_seconds() const { return wall_.seconds(); }

 private:
  /// One accepted socket whose first record line is still being sniffed.
  struct PreRead {
    std::uint64_t uid = 0;
    std::string buf;
    std::size_t scan = 0;  ///< line scanning resumes here
    double accepted_at = 0.0;
  };

  /// Stop sniffing and route by uid once a client has buffered this much
  /// without producing a decisive line (or after kPreReadDeadline): the
  /// shard still binds its namespace when the hello eventually parses,
  /// only the reconnect-affinity shortcut is lost.
  static constexpr std::size_t kMaxPreReadBytes = 64 * 1024;
  static constexpr double kPreReadDeadline = 1.0;

  void accept_ready();
  void handle_pre_read(int fd);
  /// The ring hash of the first decisive (non-blank, non-comment) line
  /// scanned so far, or nullopt while none is complete.
  std::optional<std::uint64_t> decide(PreRead& p) const;
  void route(int fd, std::optional<std::uint64_t> hash, bool eof);
  void flush_overdue();

  NetServer& server_;
  const NetServerConfig& config_;
  std::unique_ptr<Poller> poller_;
  HashRing ring_;
  std::unordered_map<int, PreRead> pre_reads_;
  std::uint64_t next_uid_ = 1;
  std::uint64_t accepted_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t peak_ = 0;
  Stopwatch wall_;
};

void NetServer::Router::accept_ready() {
  while (true) {
    const int fd = ::accept(server_.listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or transient (ECONNABORTED, EMFILE): retry later
    }
    const std::size_t live =
        server_.shard_conns_.load(std::memory_order_relaxed) +
        pre_reads_.size();
    if (live >= config_.max_conns) {
      ::close(fd);
      ++dropped_;
      continue;
    }
    set_nonblocking(fd);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.keepalive_seconds > 0) {
      arm_tcp_keepalive(fd, config_.keepalive_seconds);
    }

    const std::uint64_t uid = next_uid_++;
    pre_reads_[fd] = PreRead{uid, {}, 0, wall_.seconds()};
    poller_->add(fd, true, false);
    ++accepted_;
    peak_ = std::max<std::uint64_t>(peak_, live + 1);
  }
}

std::optional<std::uint64_t> NetServer::Router::decide(PreRead& p) const {
  while (true) {
    const std::size_t nl = p.buf.find('\n', p.scan);
    if (nl == std::string::npos) return std::nullopt;
    std::string_view line(p.buf.data() + p.scan, nl - p.scan);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    p.scan = nl + 1;
    if (line.empty() || line.front() == '#') continue;  // skip, as parsers do
    if (is_hello_line(line)) {
      try {
        const HelloInfo hello = parse_hello_line(line);
        if (!hello.name.empty()) return stable_hash64(hello.name);
      } catch (const CheckError&) {
        // Malformed hello: route by uid and let the shard's parser render
        // the protocol error on the connection itself.
      }
    }
    // Anonymous (or non-hello) first record: spread by connection uid.
    return mix_hash64(p.uid);
  }
}

void NetServer::Router::route(int fd, std::optional<std::uint64_t> hash,
                              bool eof) {
  const auto it = pre_reads_.find(fd);
  if (it == pre_reads_.end()) return;
  PreRead& p = it->second;
  poller_->remove(fd);

  bool any_alive = false;
  for (const auto& shard : server_.shards_) {
    if (shard->alive.load(std::memory_order_acquire)) {
      any_alive = true;
      break;
    }
  }
  if (!any_alive) {
    ::close(fd);
    ++dropped_;
    pre_reads_.erase(it);
    return;
  }

  const std::size_t shard = ring_.lookup(
      hash ? *hash : mix_hash64(p.uid), [&](std::size_t s) {
        return server_.shards_[s]->alive.load(std::memory_order_acquire);
      });
  server_.shard_conns_.fetch_add(1, std::memory_order_relaxed);
  {
    std::scoped_lock lock(server_.shards_[shard]->mutex);
    server_.shards_[shard]->handoffs.push_back(
        Handoff{fd, p.uid, std::move(p.buf), eof});
  }
  server_.shards_[shard]->wake.notify();
  pre_reads_.erase(it);
}

void NetServer::Router::handle_pre_read(int fd) {
  const auto it = pre_reads_.find(fd);
  if (it == pre_reads_.end()) return;
  PreRead& p = it->second;
  bool eof = false;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      p.buf.append(buf, static_cast<std::size_t>(n));
      break;  // one chunk per event, matching the shard loops
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // reset during pre-read: hand the carcass to a shard
    break;
  }
  const std::optional<std::uint64_t> hash = decide(p);
  if (hash || eof || p.buf.size() > kMaxPreReadBytes) {
    route(fd, hash, eof);
  }
}

void NetServer::Router::flush_overdue() {
  if (pre_reads_.empty()) return;
  const double now = wall_.seconds();
  std::vector<int> overdue;
  for (const auto& [fd, p] : pre_reads_) {
    if (now - p.accepted_at > kPreReadDeadline) overdue.push_back(fd);
  }
  for (const int fd : overdue) route(fd, std::nullopt, false);
}

void NetServer::Router::run() {
  poller_->add(server_.listen_fd_, true, false);
  poller_->add(server_.wake_.fd(), true, false);

  std::vector<Poller::Event> events;
  while (!server_.shutdown_requested_.load(std::memory_order_acquire)) {
    events.clear();
    poller_->wait(events, pre_reads_.empty() ? -1 : 100);
    for (const Poller::Event& ev : events) {
      if (ev.fd == server_.wake_.fd()) {
        server_.wake_.drain();
        continue;
      }
      if (ev.fd == server_.listen_fd_) {
        accept_ready();
        continue;
      }
      handle_pre_read(ev.fd);
    }
    flush_overdue();
  }

  // Shutdown: stop accepting, refuse the handful of connections still in
  // pre-read (they have been sent nothing yet), then drain every shard.
  poller_->remove(server_.listen_fd_);
  ::close(server_.listen_fd_);
  server_.listen_fd_ = -1;
  for (const auto& [fd, p] : pre_reads_) {
    poller_->remove(fd);
    ::close(fd);
    ++dropped_;
  }
  pre_reads_.clear();
  for (std::size_t i = 0; i < server_.shards_.size(); ++i) {
    server_.shards_[i]->drain.store(true, std::memory_order_release);
    server_.shards_[i]->wake.notify();
  }
}

// ---------------------------------------------------------------------------
// Orchestration: run the router and the shard threads, aggregate, print

NetServerSummary NetServer::run(std::ostream& summary_out) {
  TREEPLACE_CHECK_MSG(listen_fd_ >= 0, "call listen_and_bind() before run()");

  std::vector<NetServerSummary> reports(shards_.size());
  std::vector<std::thread> threads;
  threads.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    threads.emplace_back([this, i, &reports] {
      Loop loop(*this, i);
      reports[i] = loop.run();
    });
  }

  Router router(*this);
  router.run();  // returns once shutdown() has been requested
  for (std::thread& t : threads) t.join();

  // A handoff enqueued after its shard's final sweep never found an owner;
  // close it now so nothing leaks past run().
  for (const auto& shard : shards_) {
    std::scoped_lock lock(shard->mutex);
    for (const Handoff& h : shard->handoffs) ::close(h.fd);
  }

  // Aggregate: shard-owned counters sum, router-owned counters come from
  // the router, latencies merge into one histogram.
  NetServerSummary total;
  total.accepted = router.accepted();
  total.dropped = router.dropped();
  total.peak_connections = router.peak();
  for (const NetServerSummary& s : reports) {
    total.dropped += s.dropped;
    total.reaped_idle += s.reaped_idle;
    total.protocol_errors += s.protocol_errors;
    total.requests += s.requests;
    total.ok += s.ok;
    total.infeasible += s.infeasible;
    total.errors += s.errors;
    total.over_budget += s.over_budget;
    total.backpressure_stalls += s.backpressure_stalls;
    total.output_stalls += s.output_stalls;
    total.bytes_in += s.bytes_in;
    total.bytes_out += s.bytes_out;
    total.hellos += s.hellos;
    total.sessions_saved += s.sessions_saved;
    total.sessions_restored += s.sessions_restored;
    total.shards_killed += s.shards_killed;
    total.drain_timed_out = total.drain_timed_out || s.drain_timed_out;
    total.latency.merge(s.latency);

    total.dispatcher.submitted += s.dispatcher.submitted;
    total.dispatcher.completed += s.dispatcher.completed;
    total.dispatcher.max_in_flight += s.dispatcher.max_in_flight;
    if (total.dispatcher.per_solver.empty()) {
      // Shards are configured alike: shard 0's pool and queue speak for
      // every shard.
      total.dispatcher.threads = s.dispatcher.threads;
      total.dispatcher.queue_capacity = s.dispatcher.queue_capacity;
      total.dispatcher.per_solver = s.dispatcher.per_solver;
    } else {
      SolverLatencyStats& agg = total.dispatcher.per_solver[0];
      const SolverLatencyStats& one = s.dispatcher.per_solver[0];
      agg.solves += one.solves;
      agg.warm += one.warm;
      agg.errors += one.errors;
      agg.infeasible += one.infeasible;
      agg.total_queue_seconds += one.total_queue_seconds;
      agg.total_solve_seconds += one.total_solve_seconds;
      agg.max_solve_seconds =
          std::max(agg.max_solve_seconds, one.max_solve_seconds);
      agg.total_work += one.total_work;
    }

    total.cache.capacity += s.cache.capacity;
    total.cache.size += s.cache.size;
    total.cache.hits += s.cache.hits;
    total.cache.misses += s.cache.misses;
    total.cache.evictions += s.cache.evictions;
    total.cache.session_bytes += s.cache.session_bytes;
    total.cache.session_snapshots_dropped += s.cache.session_snapshots_dropped;
    total.cache.session_tables_dropped += s.cache.session_tables_dropped;
    total.cache.session_cells_skipped += s.cache.session_cells_skipped;
  }
  total.set_wall_seconds(router.wall_seconds());
  total.p50_latency_seconds = total.latency.percentile(0.50);
  total.p99_latency_seconds = total.latency.percentile(0.99);

  // The summary block: identical to the pre-sharding format (so existing
  // tooling keeps parsing it), with `# shard`/`# persist` lines appended
  // only when sharding or persistence is actually in play.
  total.print_serve_lines(summary_out);
  summary_out
      << "# net: poller=" << router.poller_name()
      << " accepted=" << total.accepted << " dropped=" << total.dropped
      << " reaped_idle=" << total.reaped_idle
      << " protocol_errors=" << total.protocol_errors
      << " peak_conns=" << total.peak_connections
      << " drain_timed_out=" << (total.drain_timed_out ? 1 : 0) << "\n"
      << "# net: backpressure_stalls=" << total.backpressure_stalls
      << " output_stalls=" << total.output_stalls
      << " bytes_in=" << total.bytes_in << " bytes_out=" << total.bytes_out
      << " p50_s=" << total.p50_latency_seconds
      << " p99_s=" << total.p99_latency_seconds << "\n";
  total.print_cache_lines(summary_out, config_.stream.session_max_bytes);
  if (reports.size() > 1) {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      const NetServerSummary& s = reports[i];
      summary_out << "# shard " << i << ": accepted=" << s.accepted
                  << " requests=" << s.requests << " ok=" << s.ok
                  << " hellos=" << s.hellos
                  << " sessions_saved=" << s.sessions_saved
                  << " sessions_restored=" << s.sessions_restored
                  << " killed=" << s.shards_killed << "\n";
    }
  }
  if (!config_.persist_dir.empty()) {
    summary_out << "# persist: dir=" << config_.persist_dir
                << " saved=" << total.sessions_saved
                << " restored=" << total.sessions_restored << "\n";
  }
  return total;
}

}  // namespace treeplace::serve
