#include "serve/wire.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "support/check.h"

namespace treeplace::serve {

// ---------------------------------------------------------------------------
// LineBuffer

std::span<char> LineBuffer::writable(std::size_t min_bytes) {
  // Compact first: consumed bytes are dead, and moving the live tail keeps
  // the buffer from creeping even on long-lived connections.
  if (begin_ > 0) {
    const std::size_t live = end_ - begin_;
    if (live > 0) std::memmove(data_.data(), data_.data() + begin_, live);
    end_ = live;
    scan_ -= begin_;
    begin_ = 0;
  }
  if (data_.size() - end_ < min_bytes) {
    data_.resize(std::max(end_ + min_bytes, data_.size() * 2));
  }
  return {data_.data() + end_, data_.size() - end_};
}

std::optional<std::string_view> LineBuffer::next_line() {
  const char* nl = static_cast<const char*>(
      std::memchr(data_.data() + scan_, '\n', end_ - scan_));
  if (nl == nullptr) {
    scan_ = end_;
    TREEPLACE_CHECK_MSG(end_ - begin_ <= max_line_bytes_,
                        "oversized line: " << (end_ - begin_)
                                           << " bytes without a newline "
                                              "(limit "
                                           << max_line_bytes_ << ")");
    return std::nullopt;
  }
  const std::size_t pos = static_cast<std::size_t>(nl - data_.data());
  std::size_t len = pos - begin_;
  TREEPLACE_CHECK_MSG(len <= max_line_bytes_,
                      "oversized line: " << len << " bytes (limit "
                                         << max_line_bytes_ << ")");
  if (len > 0 && data_[begin_ + len - 1] == '\r') --len;  // CRLF peers
  const std::string_view line(data_.data() + begin_, len);
  begin_ = pos + 1;
  scan_ = begin_;
  return line;
}

std::optional<std::string_view> LineBuffer::take_rest() {
  if (end_ == begin_) return std::nullopt;
  std::size_t len = end_ - begin_;
  if (data_[begin_ + len - 1] == '\r') --len;
  const std::string_view line(data_.data() + begin_, len);
  begin_ = end_;
  scan_ = end_;
  return line;
}

// ---------------------------------------------------------------------------
// OutputBuffer

void OutputBuffer::append(std::string_view bytes) {
  // Reclaim the consumed prefix before growing, once it dominates.
  if (begin_ > 4096 && begin_ > data_.size() - begin_) {
    data_.erase(0, begin_);
    begin_ = 0;
  }
  data_.append(bytes);
}

void OutputBuffer::consume(std::size_t n) {
  begin_ += n;
  if (begin_ == data_.size()) {
    data_.clear();
    begin_ = 0;
  }
}

// ---------------------------------------------------------------------------
// RecordParser

namespace {

std::string_view next_token(std::string_view& rest) {
  std::size_t i = 0;
  while (i < rest.size() && (rest[i] == ' ' || rest[i] == '\t')) ++i;
  std::size_t j = i;
  while (j < rest.size() && rest[j] != ' ' && rest[j] != '\t') ++j;
  const std::string_view token = rest.substr(i, j - i);
  rest = rest.substr(j);
  return token;
}

}  // namespace

bool is_hello_line(std::string_view line) {
  constexpr std::string_view kHello = "treeplace-hello";
  if (!line.starts_with(kHello)) return false;
  // Token-exact: "treeplace-helloX" is an unknown record, not a hello.
  return line.size() == kHello.size() || line[kHello.size()] == ' ' ||
         line[kHello.size()] == '\t';
}

HelloInfo parse_hello_line(std::string_view line) {
  std::string_view rest = line;
  const std::string_view kind = next_token(rest);
  HelloInfo hello;
  hello.version = next_token(rest);
  TREEPLACE_CHECK_MSG(kind == "treeplace-hello" && hello.version == "v1",
                      "unsupported hello record: '" << line << "'");
  for (std::string_view token = next_token(rest); !token.empty();
       token = next_token(rest)) {
    if (token.starts_with("name=")) {
      TREEPLACE_CHECK_MSG(hello.name.empty(),
                          "duplicate name= in hello: '" << line << "'");
      hello.name = token.substr(5);
      TREEPLACE_CHECK_MSG(!hello.name.empty(),
                          "empty name= in hello: '" << line << "'");
    } else {
      hello.features.emplace_back(token);  // unknown features are fine
    }
  }
  return hello;
}

std::string_view hello_reply() { return "# hello: treeplace v1\n"; }

ServeRequest RecordParser::complete() {
  ServeRequest done = std::exchange(current_, ServeRequest{});
  if (std::exchange(state_, State::kIdle) == State::kTree) {
    // May throw; the parser is already idle, and only successes count.
    done.tree = std::exchange(builder_, TreeBuilder{}).build();
    done.topology_key = std::to_string(++trees_);
  }
  done.id = ++requests_;
  return done;
}

std::optional<ServeRequest> RecordParser::feed(std::string_view line) {
  if (line.empty() || line[0] == '#') return std::nullopt;

  if (is_hello_line(line)) {
    // The handshake is a single header line with no body, valid only as
    // the very first record — which also means there is never an
    // in-progress record to complete, so it can be returned immediately
    // (a client waiting on the hello reply must not deadlock until its
    // next record arrives).
    TREEPLACE_CHECK_MSG(
        state_ == State::kIdle && requests_ == 0 && trees_ == 0 &&
            !hello_seen_,
        "hello must be the first record of the stream");
    hello_seen_ = true;
    ServeRequest request;  // id stays 0: hello consumes no ordinal
    request.hello = parse_hello_line(line);
    return request;
  }

  if (line.starts_with("treeplace-")) {
    // Parse the header before completing the record it ends, so a bad
    // header leaves that record to finish().  Token-exact matching: "v12"
    // is an unknown record, not v1 with a mangled key.
    const bool tree = line == TreeStreamReader::tree_header();
    std::string_view key;
    if (!tree) {
      std::string_view rest = line;
      const std::string_view kind = next_token(rest);
      const std::string_view version = next_token(rest);
      TREEPLACE_CHECK_MSG(kind == "treeplace-scenario" && version == "v1",
                          "unknown record header: '" << line << "'");
      key = next_token(rest);
      TREEPLACE_CHECK_MSG(!key.empty(),
                          "scenario record without a topology key: '"
                              << line << "'");
    }
    std::optional<ServeRequest> completed;
    if (state_ != State::kIdle) completed = complete();
    state_ = tree ? State::kTree : State::kScenario;
    current_.topology_key.assign(key);
    return completed;
  }

  try {
    switch (state_) {
      case State::kIdle:
        TREEPLACE_CHECK_MSG(false, "bad record header: '" << line << "'");
        break;
      case State::kTree:
        parse_node_line(builder_, line);
        break;
      case State::kScenario:
        current_.deltas.push_back(parse_delta_line(line));
        break;
    }
  } catch (const CheckError&) {
    // A bad body line drops the record it belongs to.
    state_ = State::kIdle;
    builder_ = TreeBuilder{};
    current_ = ServeRequest{};
    throw;
  }
  return std::nullopt;
}

std::optional<ServeRequest> RecordParser::finish() {
  if (state_ == State::kIdle) return std::nullopt;
  return complete();
}

// ---------------------------------------------------------------------------
// Result rendering

RenderedResult render_result(std::size_t id, const std::string& topo_key,
                             const ServeResult& result,
                             const ResultFormat& format) {
  RenderedResult out;
  out.warm = result.warm;
  out.solve_seconds = result.solve_seconds;
  std::ostringstream os;
  os << "result id=" << id << " topo=" << topo_key;
  if (!result.ok) {
    out.status = ResultStatus::kError;
    os << " status=error error=\"" << result.error << "\"\n";
    out.line = os.str();
    return out;
  }
  const Solution& s = result.solution;
  if (!s.feasible) {
    out.status = ResultStatus::kInfeasible;
    os << " status=infeasible queue_s=" << result.queue_seconds
       << " solve_s=" << result.solve_seconds << "\n";
    out.line = os.str();
    return out;
  }
  out.status = ResultStatus::kOk;
  os << " status=ok cost=" << s.breakdown.cost << " power=" << s.power
     << " servers=" << s.breakdown.servers << " reused=" << s.breakdown.reused
     << " created=" << s.breakdown.created
     << " deleted=" << s.breakdown.deleted
     << " frontier=" << s.frontier.size();
  if (format.has_budget) {
    os << " budget=" << (s.budget_met ? "met" : "miss");
    out.budget_missed = !s.budget_met;
  }
  os << " queue_s=" << result.queue_seconds
     << " solve_s=" << result.solve_seconds << " work=" << s.stats.work;
  if (format.print_placements) {
    os << " placement=";
    if (s.placement.empty()) {
      os << '-';
    } else {
      for (std::size_t i = 0; i < s.placement.nodes().size(); ++i) {
        if (i > 0) os << ',';
        os << s.placement.nodes()[i] << ':' << s.placement.modes()[i];
      }
    }
  }
  os << "\n";
  out.line = os.str();
  return out;
}

std::string strip_timings(const std::string& results) {
  std::istringstream is(results);
  std::string out;
  std::string line;
  while (std::getline(is, line)) {
    std::string_view rest = line;
    bool first = true;
    while (!rest.empty()) {
      const std::string_view token = next_token(rest);
      if (token.empty()) break;
      if (token.rfind("queue_s=", 0) == 0 || token.rfind("solve_s=", 0) == 0) {
        continue;
      }
      if (!first) out += ' ';
      out.append(token);
      first = false;
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// LatencyHistogram

namespace {
constexpr double kLatencyBase = 1e-6;  ///< bucket 0 upper bound: 1.25us
constexpr double kLatencyRatio = 1.25;
}  // namespace

void LatencyHistogram::record(double seconds) {
  std::size_t idx = 0;
  if (seconds > kLatencyBase) {
    idx = static_cast<std::size_t>(
        std::log(seconds / kLatencyBase) / std::log(kLatencyRatio));
    if (idx >= kBuckets) idx = kBuckets - 1;
  }
  ++buckets_[idx];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      return kLatencyBase * std::pow(kLatencyRatio, static_cast<double>(i + 1));
    }
  }
  return kLatencyBase * std::pow(kLatencyRatio, static_cast<double>(kBuckets));
}

}  // namespace treeplace::serve
