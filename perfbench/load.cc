// `pbench load`: the TCP load generator, and `pbench respond`, a trivial
// loopback responder used to measure the generator's own ceiling.
//
//   pbench load --plan P --out RESULTS --seconds S --setups K -- SERVER ARGS
//
// Launches the server K times.  Each launch is one set-up sample: from
// spawn until the server is listening and every topology of the plan has
// had its cold base solve returned (a loop slot publishes its tree and
// keeps the connection; a churn slot publishes all its streams' trees on
// one connection and closes it).  After the last set-up the slots run
// concurrently, one thread and one connection at a time per slot, for S
// seconds; a loop slot then runs on to the end of its stream, so the phase
// covers whole cycles (whole days) and every costly tick of a cycle counts.
// Results go to RESULTS:
//
//   K <k>                            R lines keep every k-th request
//   R <slot> <stream> <record> <sent_ns> <recv_ns> <queue_s> <solve_s>
//     <server_cpu_s>                 (server CPU when booked; 0 for churn)
//   B <slot> <stream> <record> <latency_ns> <solve_s>   set-up base solve
//   L <stream> <record> <count> <result line without id/timings/work>
//   C <slot> <connect_ns>            connect -> hello reply
//   U <t_ns> <server_cpu_s>          server CPU each second of the phase
//                                    and at its end
//
// and a JSON summary is the last line on stdout.
//
// Framing: a record is completed only by the next record's header or by
// end of input, so each send carries one record's body together with the
// next record's header, and the last record of a connection is completed
// by a half-close (see perfbench/README.md).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <tuple>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "pbench.h"

extern char** environ;

namespace pbench {

namespace {

constexpr int kStallTimeoutMs = 60000;  // no byte for this long = failure
constexpr std::size_t kMaxSamples = 200000;  // R lines written per run
constexpr std::int64_t kWindowNs = 1000000000;  // U lines: one per second

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The server process

class ServerProcess {
 public:
  explicit ServerProcess(const std::vector<std::string>& argv) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int rc =
        posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      ::close(out_fd_);
      throw std::runtime_error("cannot start server " + argv[0]);
    }
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Reads stdout until the `# listen: HOST:PORT` line; returns the port.
  int wait_listening() {
    std::string line;
    while (read_line(line)) {
      if (line.rfind("# listen: ", 0) == 0) {
        return std::stoi(line.substr(line.rfind(':') + 1));
      }
    }
    throw std::runtime_error("server exited before listening");
  }

  pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain), collect the rest of stdout, reap.  Returns
  /// the summary text; sets exit_code().
  std::string stop() {
    if (pid_ <= 0) return {};
    ::kill(pid_, SIGTERM);
    std::string rest;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n > 0) {
        rest.append(buf, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    exit_code_ = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
    ::close(out_fd_);
    pid_ = -1;
    return pending_ + rest;
  }

  int exit_code() const { return exit_code_; }

 private:
  bool read_line(std::string& line) {
    for (;;) {
      const std::size_t nl = pending_.find('\n');
      if (nl != std::string::npos) {
        line = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        return true;
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, kStallTimeoutMs) <= 0) return false;
      char buf[4096];
      const ssize_t n = ::read(out_fd_, buf, sizeof buf);
      if (n <= 0) return false;
      pending_.append(buf, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int exit_code_ = 0;
  std::string pending_;
};

/// utime + stime of `pid`, in seconds (/proc/<pid>/stat fields 14, 15).
double process_cpu_seconds(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  std::istringstream ss(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && ss >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of `pid`, in kB.
long vm_hwm_kb(pid_t pid) {
  std::istringstream ss(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(ss, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

double self_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------------
// One client connection

/// One answered request; the rest of its result line goes to LineCounts.
struct Sample {
  std::size_t slot = 0;
  std::size_t stream = 0;
  std::size_t record = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  double queue_s = 0.0;
  double solve_s = 0.0;
  double server_cpu_s = 0.0;  ///< loop slots: server CPU when booked
};

/// Distinct results, (stream, record, normalized line) -> times seen: the
/// verifier checks each distinct line once for all its occurrences.
using LineCounts =
    std::map<std::tuple<std::size_t, std::size_t, std::string>, std::uint64_t>;

struct SlotStats {
  std::vector<Sample> samples;
  LineCounts lines;
  std::vector<std::int64_t> connect_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  ///< first failure, for the summary
};

class Connection {
 public:
  Connection() = default;
  ~Connection() { close(); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects and completes the hello handshake (blocking).  Returns the
  /// connect -> hello-reply time, or -1 with `error` set.
  std::int64_t open(int port, const std::string& name, std::string& error) {
    const std::int64_t start = now_ns();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      error = std::string("connect: ") + std::strerror(errno);
      close();
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK);
    eof_ = false;
    closing_ = false;
    out_.clear();
    in_.clear();
    pending_.clear();
    const std::string hello =
        name.empty() ? "treeplace-hello v1\n"
                     : "treeplace-hello v1 name=" + name + "\n";
    write(hello);
    while (!hello_seen_) {
      if (!pump(error)) {
        if (error.empty()) error = "no hello reply";
        close();
        return -1;
      }
    }
    return now_ns() - start;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    hello_seen_ = false;
  }

  /// Queues bytes that complete no record (a record header).
  void write(std::string_view bytes) {
    out_.append(bytes);
    flush();
  }

  /// Queues the bytes that complete record (stream, record).
  void complete(std::string_view bytes, std::size_t stream,
                std::size_t record) {
    pending_.push_back(Sample{0, stream, record, now_ns(), 0, 0.0, 0.0});
    write(bytes);
  }

  /// Half-closes once every queued byte is out (ends the last record).
  void finish() {
    closing_ = true;
    flush();
  }

  std::size_t outstanding() const { return pending_.size(); }
  bool done() const { return eof_; }

  /// Books the requests answered since the last call into `stats`, with
  /// the server's CPU time if `server` is given.  Slots call this after
  /// queueing their next request, so the bookkeeping overlaps the server's
  /// work instead of delaying the next send.
  void account(SlotStats& stats, pid_t server = -1) {
    for (auto& [s, line] : answered_) {
      s.queue_s = std::atof(std::string(result_field(line, "queue_s")).c_str());
      s.solve_s = std::atof(std::string(result_field(line, "solve_s")).c_str());
      if (server > 0) s.server_cpu_s = process_cpu_seconds(server);
      ++stats.lines[{s.stream, s.record, normalize_result(line)}];
      stats.samples.push_back(s);
    }
    answered_.clear();
  }

  /// Waits for socket progress; answered requests wait for account().
  /// False on a stall, reset or protocol error (`error` says which).
  bool pump(std::string& error) {
    pollfd p{fd_, POLLIN, 0};
    if (!out_.empty()) p.events |= POLLOUT;
    const int rc = ::poll(&p, 1, kStallTimeoutMs);
    if (rc == 0) {
      error = "no progress for 60 s";
      return false;
    }
    if (rc < 0) return errno == EINTR;
    if (p.revents & POLLOUT) flush();
    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n > 0) {
          in_.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          eof_ = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          error = std::string("recv: ") + std::strerror(errno);
          return false;
        }
        break;
      }
      std::size_t start = 0;
      for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        const std::string_view line(in_.data() + start, nl - start);
        if (line.rfind("# hello", 0) == 0) {
          hello_seen_ = true;
        } else if (line.rfind("result ", 0) == 0) {
          if (pending_.empty()) {
            error = "unexpected result line";
            return false;
          }
          Sample s = pending_.front();
          pending_.pop_front();
          s.recv_ns = now_ns();
          answered_.emplace_back(s, std::string(line));
        }
      }
      in_.erase(0, start);
      if (eof_ && !pending_.empty()) {
        error = "connection closed with " + std::to_string(pending_.size()) +
                " requests unanswered";
        return false;
      }
    }
    return true;
  }

 private:
  void flush() {
    while (!out_.empty() && fd_ >= 0) {
      const ssize_t n = ::send(fd_, out_.data(), out_.size(), MSG_NOSIGNAL);
      if (n <= 0) break;
      out_.erase(0, static_cast<std::size_t>(n));
    }
    if (closing_ && out_.empty() && fd_ >= 0) ::shutdown(fd_, SHUT_WR);
  }

  int fd_ = -1;
  bool hello_seen_ = false;
  bool eof_ = false;
  bool closing_ = false;
  std::string out_;
  std::string in_;
  std::deque<Sample> pending_;
  std::vector<std::pair<Sample, std::string>> answered_;
};

// ---------------------------------------------------------------------------
// One client slot

class SlotRunner {
 public:
  SlotRunner(const Plan& plan, const Slot& slot) : plan_(plan), slot_(slot) {}

  /// Set-up: publishes the slot's trees and waits for their cold base
  /// solves.  Returns false on failure (stats().error).
  bool setup(int port) {
    port_ = port;
    setup_ = SlotStats{};
    if (slot_.mode == SlotMode::kLoop) {
      // The tree is completed by the first delta's header; the connection
      // stays open for the measured phase.
      const Stream& s = plan_.streams[slot_.streams[0]];
      if (!connect()) return false;
      conn_.write(s.records[0].header);
      conn_.complete(tail(s, 0), slot_.streams[0], 0);
      next_ = 1;
      return wait(false);
    }
    // A churn slot publishes each tree on its own connection, as in the
    // measured phase, completed by the half-close.
    for (const std::size_t sid : slot_.streams) {
      const Record& tree = plan_.streams[sid].records[0];
      if (!connect()) return false;
      conn_.write(tree.header);
      conn_.complete(tree.body, sid, 0);
      conn_.finish();
      if (!wait(true)) return false;
      conn_.close();
    }
    return true;
  }

  void close() { conn_.close(); }

  /// The measured phase: runs until `deadline_ns` (a loop slot on to its
  /// stream's last record), then drains.  A loop slot's samples carry the
  /// `server`'s CPU time, so run.py can split a day stream's cost by day.
  void run(std::int64_t deadline_ns, pid_t server) {
    stats_.samples.clear();
    server_ = server;
    bool ok = slot_.mode == SlotMode::kLoop ? run_loop(deadline_ns)
                                            : run_churn(deadline_ns);
    if (!ok) stats_.failed += conn_.outstanding();
    conn_.close();
  }

  SlotStats& stats() { return stats_; }
  const SlotStats& setup_stats() const { return setup_; }

 private:
  /// The bytes completing record k of `s`: its body plus the next header
  /// (nothing for a connection's last record; finish() completes it).
  static std::string tail(const Stream& s, std::size_t k) {
    std::string out = s.records[k].body;
    if (k + 1 < s.records.size()) out += s.records[k + 1].header;
    return out;
  }

  /// Pumps until every set-up request is answered (with `eof`, also until
  /// the server has closed) and books them into setup_.
  bool wait(bool eof) {
    while (eof ? !conn_.done() : conn_.outstanding() > 0) {
      if (!conn_.pump(stats_.error)) return false;
    }
    conn_.account(setup_);
    return true;
  }

  bool connect() {
    const std::int64_t t = conn_.open(port_, slot_.name, stats_.error);
    if (t < 0) {
      ++stats_.failed;
      return false;
    }
    stats_.connect_ns.push_back(t);
    return true;
  }

  bool run_loop(std::int64_t deadline_ns) {
    const std::size_t sid = slot_.streams[0];
    const Stream& s = plan_.streams[sid];
    const std::size_t last = s.records.size() - 1;
    // next_ is the record whose header is already on the wire; cycling
    // skips record 0 (the tree stays published).  Past the deadline the
    // stream's last record ends the connection, so the phase holds whole
    // cycles.
    bool closing = false;
    while (!conn_.done()) {
      while (!closing && conn_.outstanding() < slot_.window) {
        const std::size_t k = next_;
        ++stats_.attempted;
        if (k == last && now_ns() >= deadline_ns) {
          conn_.complete(s.records[k].body, sid, k);
          conn_.finish();
          closing = true;
        } else {
          next_ = k < last ? k + 1 : 1;
          conn_.complete(s.records[k].body + s.records[next_].header, sid, k);
        }
      }
      conn_.account(stats_, server_);
      if (!conn_.pump(stats_.error)) return false;
    }
    conn_.account(stats_, server_);
    return true;
  }

  bool run_churn(std::int64_t deadline_ns) {
    std::size_t turn = 0;
    do {
      const std::size_t sid = slot_.streams[turn++ % slot_.streams.size()];
      const Stream& s = plan_.streams[sid];
      if (!connect()) return false;
      conn_.write(s.records[0].header);
      std::size_t k = 0;
      while (!conn_.done()) {
        while (k < s.records.size() && conn_.outstanding() < slot_.window) {
          ++stats_.attempted;
          conn_.complete(tail(s, k), sid, k);
          if (++k == s.records.size()) conn_.finish();
        }
        conn_.account(stats_);
        if (!conn_.pump(stats_.error)) return false;
      }
      conn_.account(stats_);
      conn_.close();
    } while (now_ns() < deadline_ns);
    return true;
  }

  const Plan& plan_;
  const Slot& slot_;
  int port_ = 0;
  pid_t server_ = -1;
  Connection conn_;
  std::size_t next_ = 1;
  SlotStats stats_;
  SlotStats setup_;  ///< the last set-up's base solves
};

/// Runs fn(i) on one thread per slot and joins them all.
template <typename Fn>
void on_every_slot(std::size_t n, Fn fn) {
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (std::thread& t : threads) t.join();
}

}  // namespace

int load_main(int argc, char** argv) {
  std::vector<std::string> server;
  for (int i = 2; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--") {
      server.assign(argv + i + 1, argv + argc);
      break;
    }
  }
  if (server.empty()) throw std::runtime_error("missing -- SERVER ARGS");
  const Plan plan = read_plan(arg(argc, argv, "plan"));
  const std::string out_path = arg(argc, argv, "out");
  const double seconds = std::stod(arg(argc, argv, "seconds", "10"));
  const int setups = std::max(1, std::stoi(arg(argc, argv, "setups", "1")));
  const std::size_t n = plan.slots.size();

  std::vector<std::unique_ptr<SlotRunner>> slots;
  for (const Slot& slot : plan.slots) {
    slots.push_back(std::make_unique<SlotRunner>(plan, slot));
  }

  std::vector<double> setup_seconds;
  std::unique_ptr<ServerProcess> proc;
  std::string failure;
  for (int round = 0; round < setups && failure.empty(); ++round) {
    const std::int64_t start = now_ns();
    proc = std::make_unique<ServerProcess>(server);
    const int port = proc->wait_listening();
    std::vector<char> ok(n, 0);
    on_every_slot(n, [&](std::size_t i) { ok[i] = slots[i]->setup(port); });
    setup_seconds.push_back(1e-9 * static_cast<double>(now_ns() - start));
    for (std::size_t i = 0; i < n; ++i) {
      if (!ok[i]) failure = "set-up: " + slots[i]->stats().error;
    }
    if (round + 1 < setups) {
      for (auto& slot : slots) slot->close();
      proc->stop();
    }
  }

  const double gen_cpu0 = self_cpu_seconds();
  const double server_cpu0 = process_cpu_seconds(proc->pid());
  const std::int64_t phase_start = now_ns();
  const auto deadline =
      phase_start + static_cast<std::int64_t>(seconds * 1e9);
  // The server's CPU at every window edge of the phase, so that run.py can
  // take per-window rates on a steady workload.
  std::vector<std::pair<std::int64_t, double>> cpu_marks{{0, server_cpu0}};
  std::mutex mark_mutex;
  std::condition_variable phase_over;
  bool running = true;
  std::thread sampler([&] {
    std::unique_lock lock(mark_mutex);
    for (std::int64_t edge = kWindowNs;; edge += kWindowNs) {
      const auto at = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(phase_start + edge));
      if (phase_over.wait_until(lock, at, [&] { return !running; })) return;
      cpu_marks.emplace_back(now_ns() - phase_start,
                             process_cpu_seconds(proc->pid()));
    }
  });
  if (failure.empty()) {
    on_every_slot(n, [&](std::size_t i) { slots[i]->run(deadline, proc->pid()); });
  }
  {
    std::lock_guard lock(mark_mutex);
    running = false;
  }
  phase_over.notify_one();
  sampler.join();
  const std::int64_t phase_end = now_ns();
  const double server_cpu = process_cpu_seconds(proc->pid()) - server_cpu0;
  cpu_marks.emplace_back(phase_end - phase_start, server_cpu0 + server_cpu);
  const double gen_cpu = self_cpu_seconds() - gen_cpu0;
  const long hwm = vm_hwm_kb(proc->pid());
  const std::string summary = proc->stop();

  std::ofstream out(out_path);
  out.precision(9);
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Sample> all;
  LineCounts lines;
  for (std::size_t i = 0; i < n; ++i) {
    SlotStats& st = slots[i]->stats();
    for (Sample s : slots[i]->setup_stats().samples) {
      out << "B " << i << " " << s.stream << " " << s.record << " "
          << (s.recv_ns - s.sent_ns) << " " << s.solve_s << "\n";
    }
    for (const auto& [key, count] : slots[i]->setup_stats().lines) {
      lines[key] += count;
    }
    for (const auto& [key, count] : st.lines) lines[key] += count;
    for (Sample s : st.samples) {
      s.slot = i;
      all.push_back(s);
    }
    for (const std::int64_t c : st.connect_ns) {
      out << "C " << i << " " << c << "\n";
    }
    attempted += st.attempted;
    failed += st.failed;
    if (failure.empty() && !st.error.empty()) failure = st.error;
  }
  // A uniform subsample in completion order bounds the file (and run.py's
  // memory) on the ~10^6-request churn runs; percentiles are unaffected.
  std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
    return a.recv_ns < b.recv_ns;
  });
  const std::size_t stride = all.size() / kMaxSamples + 1;
  out << "K " << stride << "\n";
  for (std::size_t j = 0; j < all.size(); j += stride) {
    const Sample& s = all[j];
    out << "R " << s.slot << " " << s.stream << " " << s.record << " "
        << (s.sent_ns - phase_start) << " " << (s.recv_ns - phase_start)
        << " " << s.queue_s << " " << s.solve_s << " " << s.server_cpu_s
        << "\n";
  }
  for (const auto& [t, cpu] : cpu_marks) out << "U " << t << " " << cpu << "\n";
  for (const auto& [key, count] : lines) {
    const auto& [stream, record, line] = key;
    out << "L " << stream << " " << record << " " << count << " " << line
        << "\n";
  }
  const std::uint64_t completed = all.size();
  out.close();

  std::cout.precision(9);
  std::cout << "{\"setup_s\": [";
  for (std::size_t i = 0; i < setup_seconds.size(); ++i) {
    std::cout << (i ? ", " : "") << setup_seconds[i];
  }
  std::cout << "], \"phase_s\": "
            << 1e-9 * static_cast<double>(phase_end - phase_start)
            << ", \"attempted\": " << attempted
            << ", \"completed\": " << completed << ", \"failed\": " << failed
            << ", \"server_cpu_s\": " << server_cpu
            << ", \"gen_cpu_s\": " << gen_cpu << ", \"vmhwm_kb\": " << hwm
            << ", \"server_exit\": " << proc->exit_code()
            << ", \"error\": \"" << json_escape(failure)
            << "\", \"server_summary\": \"" << json_escape(summary)
            << "\"}\n";
  return failure.empty() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// pbench respond

namespace {

std::atomic<bool> g_stop{false};
extern "C" void on_term(int) { g_stop = true; }

struct Peer {
  int fd = -1;
  std::string in;
  bool in_record = false;
  std::size_t ordinal = 0;
};

/// Answers one framed line the way the server would, without solving.
void answer(Peer& peer, std::string_view line, std::string& reply) {
  if (line.rfind("treeplace-hello", 0) == 0) {
    reply += "# hello: treeplace v1\n";
  } else if (line.rfind("treeplace-", 0) == 0) {
    if (peer.in_record) {
      reply += "result id=" + std::to_string(++peer.ordinal) +
               " topo=1 status=ok\n";
    }
    peer.in_record = true;
  }
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

int respond_main(int, char**) {
  std::signal(SIGTERM, on_term);
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
      ::listen(listener, 64) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("respond: cannot listen");
  }
  std::cout << "# listen: 127.0.0.1:" << ntohs(addr.sin_port) << std::endl;

  std::vector<Peer> peers;
  while (!g_stop) {
    std::vector<pollfd> fds{{listener, POLLIN, 0}};
    for (const Peer& p : peers) fds.push_back({p.fd, POLLIN, 0});
    if (::poll(fds.data(), fds.size(), 100) <= 0) continue;
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        peers.push_back(Peer{fd, {}, false, 0});
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Peer& peer = peers[i - 1];
      char buf[65536];
      const ssize_t n = ::recv(peer.fd, buf, sizeof buf, 0);
      std::string reply;
      if (n > 0) peer.in.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = peer.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        answer(peer, std::string_view(peer.in).substr(start, nl - start),
               reply);
      }
      peer.in.erase(0, start);
      if (n <= 0) {
        if (peer.in_record) answer(peer, "treeplace-end", reply);
        send_all(peer.fd, reply);
        ::close(peer.fd);
        peer.fd = -1;
      } else {
        send_all(peer.fd, reply);
      }
    }
    std::erase_if(peers, [](const Peer& p) { return p.fd < 0; });
  }
  for (const Peer& p : peers) ::close(p.fd);
  ::close(listener);
  std::cout << "# respond: stopped" << std::endl;
  return 0;
}

}  // namespace pbench
