#include "serve/stream_server.h"

#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <utility>

#include "support/check.h"

namespace treeplace::serve {

namespace {

/// Reads up to buf.size() bytes of `in`, stopping after a newline so that
/// a record is submitted once the line ending it is read; 0 at end of input.
std::size_t read_piece(std::istream& in, std::span<char> buf) {
  std::streambuf& sb = *in.rdbuf();
  std::size_t n = 0;
  while (n < buf.size()) {
    const int c = sb.sbumpc();
    if (c == std::char_traits<char>::eof()) break;
    buf[n++] = static_cast<char>(c);
    if (c == '\n') break;
  }
  return n;
}

constexpr std::size_t kReadPiece = 64 * 1024;

}  // namespace

StreamServerSummary StreamServer::serve(std::istream& in, std::ostream& out) {
  ServeCore core(config_);
  Connection conn(-1, 0);  // no socket; uid 0 is cache namespace 0
  StreamServerSummary summary;

  // Submits what is parsed and writes what is done; waits for completions
  // while nothing more can be submitted and, with `until_idle`, until none
  // is due.
  const auto step = [&](bool until_idle) {
    while (true) {
      for (ServeCore::Completion& c : core.take_completions()) {
        conn.complete(c.seq, std::move(c.result));
      }
      core.process_requests(conn);
      core.flush_completed(conn);
      const std::span<const char> bytes = conn.out().pending();
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      conn.out().consume(bytes.size());
      if (conn.ready_requests().empty() &&
          (!until_idle || conn.in_flight() == 0)) {
        return;
      }
      core.wake().wait();
      conn.stalled = false;
      core.stalled.clear();
    }
  };

  // A malformed stream stops the reader but never the emitter: every
  // record completed before the bad line is served, then the summary
  // block reports the failure (the CLI turns it into a nonzero exit).
  try {
    while (!conn.peer_eof()) {
      const std::size_t n =
          read_piece(in, conn.writable(kReadPiece).first(kReadPiece));
      conn.commit(n);
      conn.pump();
      if (n == 0) conn.input_done();
      step(false);
    }
  } catch (const CheckError& e) {
    summary.stream_error = true;
    summary.stream_error_message = e.message();
  }
  step(true);

  static_cast<ServeSummary&>(summary) = core.report();
  summary.print_serve_lines(out);
  summary.print_cache_lines(out, config_.session_max_bytes);
  if (summary.stream_error) {
    out << "# serve: stream error: " << summary.stream_error_message << "\n";
  }
  return summary;
}

}  // namespace treeplace::serve
