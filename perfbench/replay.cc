// `pbench replay`: verifies served results and, with --trace, replays the
// workload in-process with spans around each layer's public entry points.
//
//   pbench replay --plan P --results R [instance flags] [--trace-json F]
//
// 1. Reference: every stream of the plan is replayed serially through the
//    same calls a server makes — RecordParser::feed, TopologyCache::put /
//    get, apply_delta, Solver::solve(SolveRequest) with the entry's
//    session, render_result — and each rendered line is kept with id=,
//    queue_s=, solve_s= and work= removed.
// 2. Verification: every served result must equal its reference, and its
//    placement must pass the independent evaluator of model/placement.h
//    (valid, and the recomputed cost, power and server counts equal the
//    line).  Sampled ticks of a long stream are also re-solved cold.
// 3. Traced replay (--trace-json): the same replay with spans on, or with
//    --pipeline W the first stream pipelined through a SolveDispatcher
//    with W workers, plus client spans from the served run.  Spans are
//    written as Chrome trace-event JSON; self time per layer is derived
//    from them.  Tracing overhead is the traced replay's wall time against
//    the same replay with spans off.
//
// The last stdout line is a JSON object with the verdict and the layer
// metrics.  Nothing inside src/ is instrumented.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "model/placement.h"
#include "pbench.h"
#include "serve/dispatcher.h"
#include "serve/topology_cache.h"
#include "serve/wire.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "tree/scenario_delta.h"

namespace pbench {

namespace {

using namespace treeplace;
using namespace treeplace::serve;

// ---------------------------------------------------------------------------
// Instance parameters (the server's flags, interpreted as the CLI does)

// The workloads leave the CLI's cost flags at their defaults.
constexpr double kCreateCost = 0.1;
constexpr double kDeleteCost = 0.01;

// Records of the first stream the pipelined replay runs through the
// dispatcher: enough to fill 4 workers' queue many times over.
constexpr std::size_t kPipelineRecords = 48;

// Records of each stream the serial traced replay runs: a tree and one
// day of ticks, which is all of a churn stream.
constexpr std::size_t kTracedRecords = 289;

struct Params {
  std::string algo;
  ModeSet modes = ModeSet::single(10);
  CostModel costs = CostModel::simple(0.1, 0.01);
  bool single_mode = true;
  std::size_t cache_capacity = 16;
  int replay_threads = 1;  ///< solver threads for the serial replays
  int solver_threads = 1;  ///< server's solver threads (pipeline replay)
};

Params parse_params(int argc, char** argv) {
  Params p;
  p.algo = arg(argc, argv, "algo", "update-dp");
  const double stat = std::stod(arg(argc, argv, "static", "0"));
  const double alpha = std::stod(arg(argc, argv, "alpha", "3"));
  const std::string modes = arg(argc, argv, "modes");
  if (!modes.empty()) {
    std::vector<RequestCount> caps;
    std::istringstream ss(modes);
    std::string item;
    while (std::getline(ss, item, ',')) caps.push_back(std::stoull(item));
    p.modes = ModeSet(caps, stat, alpha);
    p.costs = CostModel::uniform(p.modes.count(), kCreateCost, kDeleteCost,
                                 0.0, 0.0);
    p.single_mode = false;
  } else {
    p.modes = ModeSet({std::stoull(arg(argc, argv, "capacity", "10"))}, stat,
                      alpha);
    p.costs = CostModel::simple(kCreateCost, kDeleteCost);
  }
  p.cache_capacity = std::stoul(arg(argc, argv, "cache", "16"));
  p.replay_threads = std::stoi(arg(argc, argv, "replay-threads", "1"));
  p.solver_threads = std::stoi(arg(argc, argv, "solver-threads", "1"));
  return p;
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  const char* name;
  std::int64_t start = 0;
  std::int64_t end = 0;
  int parent = -1;
  std::uint64_t request = 0;
  bool async = false;  ///< overlaps its siblings (dispatcher in-flight)
};

class Tracer {
 public:
  int open(const char* name, int parent, std::uint64_t request) {
    spans_.push_back(Span{name, now_ns(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now_ns(); }
  void add(Span span) { spans_.push_back(span); }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// A span over one scope; free when tracing is off (tracer == nullptr).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int parent, std::uint64_t request)
      : tracer_(tracer),
        id_(tracer ? tracer->open(name, parent, request) : -1) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void end() {
    if (tracer_ && !closed_) tracer_->close(id_);
    closed_ = true;
  }
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
  bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Replay

/// What the replay keeps per request.
struct Outcome {
  std::string normalized;
  Instance instance;
  std::uint64_t work = 0;
  bool tree = false;
};

struct ReplayTotals {
  std::size_t requests = 0;
  std::size_t trees = 0;
  std::uint64_t work = 0;
  std::uint64_t merge_steps = 0;
  std::uint64_t nodes_recomputed = 0;
  std::uint64_t nodes_reused = 0;
  std::uint64_t cells_skipped = 0;
  std::uint64_t fallback_ticks = 0;
  std::size_t peak_resident_bytes = 0;
  double seconds = 0.0;
};

void add_session_stats(ReplayTotals& t, const SolveSession::Stats& after,
                       const SolveSession::Stats& before) {
  t.merge_steps += after.merge_steps - before.merge_steps;
  t.nodes_recomputed += after.nodes_recomputed - before.nodes_recomputed;
  t.nodes_reused += after.nodes_reused - before.nodes_reused;
  t.cells_skipped += after.cells_skipped - before.cells_skipped;
}

/// A parsed record resolved against the cache: what a server hands to its
/// dispatcher.
struct Prepared {
  Instance instance;
  std::shared_ptr<SolveSession> session;
  std::vector<ScenarioDelta> deltas;
  std::string key;
  std::size_t id = 0;
};

class Replayer {
 public:
  Replayer(const Params& params, Tracer* tracer)
      : params_(params),
        tracer_(tracer),
        cache_(params.cache_capacity),
        solver_(make_solver(params.algo)) {
    solver_->set_options(Solver::Options{params.replay_threads});
  }

  /// Replays records [0, count) of `stream` serially.
  std::vector<Outcome> serial(const Stream& stream, std::size_t stream_id,
                              std::size_t count, ReplayTotals& totals) {
    std::vector<Outcome> out;
    RecordParser parser;
    parser.feed(first_line(stream.records[0].header));
    std::uint64_t cold_work = 0;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t rid = next_request_++;
      Scope request(tracer_, "request", -1, rid);
      std::optional<Prepared> prepared =
          parse(parser, stream, stream_id, k, count, request.id(), rid);
      if (!prepared) throw std::runtime_error("record did not complete");
      const bool is_tree = k == 0;
      Outcome o;
      o.tree = is_tree;
      o.instance = prepared->instance;
      ServeResult result;
      {
        Scope solve(tracer_, "solver.solve", request.id(), rid);
        const SolveSession::Stats before = prepared->session->stats();
        result.solution = solver_->solve(SolveRequest{
            prepared->instance, prepared->deltas, prepared->session.get()});
        add_session_stats(totals, prepared->session->stats(), before);
      }
      result.ok = true;
      result.warm = true;
      o.work = result.solution.stats.work;
      {
        Scope render(tracer_, "wire.render", request.id(), rid);
        o.normalized = normalize_result(
            render_result(prepared->id, prepared->key, result, format_).line);
      }
      request.end();
      totals.peak_resident_bytes = std::max(
          totals.peak_resident_bytes, prepared->session->resident_bytes());
      count_request(totals, o, is_tree, cold_work);
      out.push_back(std::move(o));
    }
    return out;
  }

  /// Pipelines records [0, count) of `stream` through a SolveDispatcher
  /// with `workers` workers, admitting with try_reserve_slot() as a
  /// server shard does and waiting for a completion when it is full.
  std::vector<Outcome> pipelined(const Stream& stream, std::size_t stream_id,
                                 std::size_t count, std::size_t workers,
                                 ReplayTotals& totals) {
    DispatcherConfig config;
    config.algos = {params_.algo};
    config.threads = workers;
    config.solver_threads = params_.solver_threads;

    struct Done {
      std::size_t index;
      ServeResult result;
      std::int64_t end;
    };
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Done> done;
    // Declared after what its completion callbacks touch, so its workers
    // are joined before those are destroyed.
    SolveDispatcher dispatcher(config);

    std::vector<Outcome> out(count);
    std::vector<std::int64_t> admitted(count, 0);
    std::vector<Prepared> keep(count);
    RecordParser parser;
    parser.feed(first_line(stream.records[0].header));
    std::shared_ptr<SolveSession> session;
    SolveSession::Stats before;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t rid = next_request_++;
      Scope request(tracer_, "request", -1, rid);
      std::optional<Prepared> prepared =
          parse(parser, stream, stream_id, k, count, request.id(), rid);
      if (!prepared) throw std::runtime_error("record did not complete");
      if (k == 0) {
        session = prepared->session;
        before = session->stats();
      }
      out[k].tree = k == 0;
      out[k].instance = prepared->instance;
      {
        Scope wait(tracer_, "dispatcher.backpressure", request.id(), rid);
        std::size_t seen = 0;
        while (!dispatcher.try_reserve_slot()) {
          std::unique_lock lock(mutex);
          cv.wait(lock, [&] { return done.size() > seen; });
          seen = done.size();
        }
      }
      admitted[k] = now_ns();
      keep[k] = std::move(*prepared);
      dispatcher.submit_reserved(
          0, keep[k].instance, keep[k].session, keep[k].deltas,
          [&, k](ServeResult result) {
            const std::int64_t end = now_ns();
            std::scoped_lock lock(mutex);
            done.push_back(Done{k, std::move(result), end});
            cv.notify_all();
          });
    }
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return done.size() == count; });
    }
    add_session_stats(totals, session->stats(), before);
    totals.peak_resident_bytes = session->resident_bytes();

    std::sort(done.begin(), done.end(),
              [](const Done& a, const Done& b) { return a.index < b.index; });
    std::uint64_t cold_work = 0;
    for (Done& d : done) {
      if (tracer_) {
        Span s{"dispatcher.inflight", admitted[d.index], d.end, -1,
               first_request_ + d.index};
        s.async = true;
        tracer_->add(s);
      }
      Outcome& o = out[d.index];
      if (!d.result.ok) throw std::runtime_error("solve failed: " + d.result.error);
      o.work = d.result.solution.stats.work;
      {
        Scope render(tracer_, "wire.render", -1, first_request_ + d.index);
        o.normalized = normalize_result(
            render_result(keep[d.index].id, keep[d.index].key, d.result,
                          format_)
                .line);
      }
      count_request(totals, o, o.tree, cold_work);
    }
    return out;
  }

  const Solver& solver() const { return *solver_; }
  const ResultFormat& format() const { return format_; }

 private:
  static std::string_view first_line(const std::string& header) {
    return std::string_view(header).substr(0, header.size() - 1);
  }

  /// Feeds record k's body and the next header (or finish()), then
  /// resolves the completed request against the cache.
  std::optional<Prepared> parse(RecordParser& parser, const Stream& stream,
                                std::size_t stream_id, std::size_t k,
                                std::size_t count, int parent,
                                std::uint64_t rid) {
    if (k == 0) first_request_ = rid;
    std::optional<ServeRequest> request;
    {
      Scope span(tracer_, k == 0 ? "tree.parse" : "wire.parse", parent, rid);
      const std::string& body = stream.records[k].body;
      std::size_t pos = 0;
      while (pos < body.size()) {
        const std::size_t nl = body.find('\n', pos);
        if (parser.feed(std::string_view(body).substr(pos, nl - pos))) {
          throw std::runtime_error("record completed early");
        }
        pos = nl + 1;
      }
      request = k + 1 < count && k + 1 < stream.records.size()
                    ? parser.feed(first_line(stream.records[k + 1].header))
                    : parser.finish();
    }
    if (!request) return std::nullopt;
    Prepared p;
    p.id = request->id;
    p.key = request->topology_key;
    const CacheKey key{stream_id, p.key};
    if (request->tree) {
      Scope span(tracer_, "cache.put", parent, rid);
      auto topology = request->tree->topology_ptr();
      Scenario base = std::move(request->tree->scenario());
      p.session = cache_.put(key, topology, base);
      p.instance = Instance(std::move(topology), std::move(base),
                            params_.modes, params_.costs);
    } else {
      std::optional<CachedTopology> entry;
      {
        Scope span(tracer_, "cache.get", parent, rid);
        entry = cache_.get(key);
      }
      if (!entry) throw std::runtime_error("replay cache miss");
      Scope span(tracer_, "tree.apply_delta", parent, rid);
      Scenario scen = std::move(entry->base);
      for (const ScenarioDelta& d : request->deltas) apply_delta(scen, d);
      p.session = std::move(entry->session);
      p.instance = Instance(std::move(entry->topology), std::move(scen),
                            params_.modes, params_.costs);
      p.deltas = std::move(request->deltas);
    }
    if (params_.single_mode) project_to_single_mode(p.instance.scenario);
    return p;
  }

  /// Per-request totals; a warm tick whose work reaches half of its
  /// stream's cold solve counts as a fallback tick.
  static void count_request(ReplayTotals& totals, const Outcome& o,
                            bool is_tree, std::uint64_t& cold_work) {
    ++totals.requests;
    totals.work += o.work;
    if (is_tree) {
      ++totals.trees;
      cold_work = o.work;
    } else if (cold_work > 0 && 2 * o.work >= cold_work) {
      ++totals.fallback_ticks;
    }
  }

  const Params& params_;
  Tracer* tracer_;
  TopologyCache cache_;
  std::unique_ptr<Solver> solver_;
  ResultFormat format_{};
  std::uint64_t next_request_ = 0;
  std::uint64_t first_request_ = 0;
};

// ---------------------------------------------------------------------------
// Verification

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

bool close_to(std::string_view field, double value) {
  if (field.empty()) return false;
  const double printed = std::stod(std::string(field));
  return std::fabs(printed - value) <=
         1e-5 * std::max(std::fabs(printed), std::fabs(value));
}

/// Checks a result line with the independent evaluator; returns the
/// reason it fails, or an empty string.
std::string evaluate(const Instance& inst, std::string_view line,
                     const Params& params) {
  if (result_field(line, "status") != "ok") return "status is not ok";
  Placement placement;
  const std::string_view list = result_field(line, "placement");
  if (list.empty()) return "no placement";
  if (list != "-") {
    std::size_t pos = 0;
    while (pos < list.size()) {
      std::size_t end = list.find(',', pos);
      if (end == std::string_view::npos) end = list.size();
      const std::string item(list.substr(pos, end - pos));
      const std::size_t colon = item.find(':');
      placement.add(static_cast<NodeId>(std::stoul(item.substr(0, colon))),
                    std::stoi(item.substr(colon + 1)));
      pos = end + 1;
    }
  }
  const ValidationResult v =
      validate(inst.topo(), inst.scen(), placement, params.modes);
  if (!v.valid) return "invalid placement: " + v.reason;
  const CostBreakdown b =
      evaluate_cost(inst.topo(), inst.scen(), placement, params.costs);
  const double power = total_power(placement, params.modes);
  if (!close_to(result_field(line, "cost"), b.cost)) {
    return "cost differs from evaluator (" + fmt(b.cost) + ")";
  }
  if (!close_to(result_field(line, "power"), power)) {
    return "power differs from evaluator (" + fmt(power) + ")";
  }
  if (result_field(line, "servers") != std::to_string(b.servers) ||
      result_field(line, "reused") != std::to_string(b.reused) ||
      result_field(line, "created") != std::to_string(b.created) ||
      result_field(line, "deleted") != std::to_string(b.deleted)) {
    return "server counts differ from evaluator";
  }
  return {};
}

/// The load generator's output (see load.cc): distinct result lines with
/// their counts, and the sampled requests' timings.
struct Served {
  struct Line {
    std::size_t stream = 0;
    std::size_t record = 0;
    std::uint64_t count = 0;
    std::string text;  ///< normalized result line
  };
  struct Request {
    std::int64_t sent_ns = 0;
    std::int64_t recv_ns = 0;
    double queue_s = 0.0;
    double solve_s = 0.0;
  };
  std::vector<Line> lines;
  std::vector<Request> requests;
};

Served read_results(const std::string& path) {
  Served out;
  std::istringstream in(read_file(path));
  std::string row;
  while (std::getline(in, row)) {
    std::istringstream ls(row);
    char kind = 0;
    ls >> kind;
    if (kind == 'L') {
      Served::Line l;
      ls >> l.stream >> l.record >> l.count;
      ls.get();
      std::getline(ls, l.text);
      out.lines.push_back(std::move(l));
    } else if (kind == 'R') {
      Served::Request r;
      std::size_t slot = 0, stream = 0, record = 0;
      ls >> slot >> stream >> record >> r.sent_ns >> r.recv_ns >> r.queue_s >>
          r.solve_s;
      out.requests.push_back(r);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Trace output and layer self times

const char* layer_of(std::string_view name) {
  static const char* const kLayers[] = {"wire",   "tree",       "cache",
                                        "solver", "dispatcher", "client",
                                        "served", "request"};
  for (const char* layer : kLayers) {
    if (name.rfind(layer, 0) == 0) return layer;
  }
  return "other";
}

/// Self time (span duration minus its children's) summed per layer, ns.
std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end - s.start);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[layer_of(spans[i].name)] +=
        static_cast<double>(spans[i].end - spans[i].start) - child[i];
  }
  return self;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start;
  out.precision(3);
  out << std::fixed;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double ts = 1e-3 * static_cast<double>(s.start - origin);
    const double dur = 1e-3 * static_cast<double>(s.end - s.start);
    const char* layer = layer_of(s.name);
    const std::string_view name(s.name);
    // Replay spans on thread 1, the served run's client spans on 2;
    // dispatcher in-flight spans overlap, so they are async events.
    const int tid = name.rfind("client", 0) == 0 || name.rfind("served", 0) == 0
                        ? 2
                        : 1;
    const std::string args = "{\"span\": " + std::to_string(i) +
                             ", \"parent\": " + std::to_string(s.parent) +
                             ", \"request\": " + std::to_string(s.request) +
                             "}";
    if (s.async) {
      out << "{\"name\": \"" << name << "\", \"cat\": \"" << layer
          << "\", \"ph\": \"b\", \"id\": " << s.request << ", \"ts\": " << ts
          << ", \"pid\": 1, \"tid\": 3, \"args\": " << args << "},\n"
          << "{\"name\": \"" << name << "\", \"cat\": \"" << layer
          << "\", \"ph\": \"e\", \"id\": " << s.request
          << ", \"ts\": " << ts + dur << ", \"pid\": 1, \"tid\": 3}";
    } else {
      out << "{\"name\": \"" << name << "\", \"cat\": \"" << layer
          << "\", \"ph\": \"X\", \"ts\": " << ts << ", \"dur\": " << dur
          << ", \"pid\": 1, \"tid\": " << tid << ", \"args\": " << args
          << "}";
    }
    out << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

/// Client spans of the served run: the request as the client saw it, with
/// the server-reported queue wait and solve as children (placed back to
/// back before the reply), so the client span's self time is the network
/// and serving-tier overhead.
void add_client_spans(Tracer& tracer, const Served& served,
                      std::int64_t origin, std::size_t limit) {
  std::size_t added = 0;
  for (const Served::Request& r : served.requests) {
    if (added++ >= limit) break;
    const auto queue = static_cast<std::int64_t>(1e9 * r.queue_s);
    const auto solve = static_cast<std::int64_t>(1e9 * r.solve_s);
    const std::int64_t sent = origin + r.sent_ns;
    const std::int64_t recv = origin + r.recv_ns;
    const std::int64_t solve_start = std::max(sent, recv - solve);
    const std::int64_t queue_start = std::max(sent, solve_start - queue);
    const int id = static_cast<int>(tracer.spans().size());
    const std::uint64_t req = 1000000 + added;
    tracer.add(Span{"client.request", sent, recv, -1, req});
    tracer.add(Span{"served.queue", queue_start, solve_start, id, req});
    tracer.add(Span{"served.solve", solve_start, recv, id, req});
  }
}

}  // namespace

int replay_main(int argc, char** argv) {
  const Plan plan = read_plan(arg(argc, argv, "plan"));
  const Params params = parse_params(argc, argv);
  const Served served = read_results(arg(argc, argv, "results"));
  const std::size_t spot_checks = std::stoul(arg(argc, argv, "spot-checks", "0"));
  const std::string trace_path = arg(argc, argv, "trace-json");
  const std::size_t pipeline = std::stoul(arg(argc, argv, "pipeline", "0"));

  // How far each stream must be replayed: the longest prefix any served
  // result refers to (a loop stream may not have wrapped).
  std::vector<std::size_t> needed(plan.streams.size(), 0);
  for (const Served::Line& r : served.lines) {
    if (r.stream >= plan.streams.size() ||
        r.record >= plan.streams[r.stream].records.size()) {
      throw std::runtime_error("result refers to an unknown record");
    }
    needed[r.stream] = std::max(needed[r.stream], r.record + 1);
  }

  // 1. Reference replay (spans off).
  std::vector<std::vector<Outcome>> reference(plan.streams.size());
  ReplayTotals ref_totals;
  Replayer ref_replayer(params, nullptr);
  {
    const std::int64_t start = now_ns();
    for (std::size_t s = 0; s < plan.streams.size(); ++s) {
      if (needed[s] == 0) continue;
      reference[s] = ref_replayer.serial(plan.streams[s], s, needed[s],
                                         ref_totals);
    }
    ref_totals.seconds = 1e-9 * static_cast<double>(now_ns() - start);
  }
  std::size_t ref_not_ok = 0;
  int base_frontier = -1;
  for (std::size_t s = 0; s < reference.size(); ++s) {
    for (const Outcome& o : reference[s]) {
      if (o.normalized.find(" status=ok ") == std::string::npos) ++ref_not_ok;
    }
    if (!reference[s].empty() && plan.streams[s].records.size() > 100) {
      base_frontier = std::stoi(
          std::string(result_field(reference[s][0].normalized, "frontier")));
    }
  }

  // 2. Verification of every served line; identical lines share a verdict,
  // so each distinct line is checked once and counted for all it stands
  // for.
  std::uint64_t verified = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  const auto mismatch = [&](std::uint64_t count, std::string what) {
    if (mismatches == 0) first_mismatch = std::move(what);
    mismatches += count;
  };
  for (const Served::Line& r : served.lines) {
    const Outcome& ref = reference[r.stream][r.record];
    const std::string where = "stream " + std::to_string(r.stream) +
                              " record " + std::to_string(r.record);
    verified += r.count;
    if (r.text != ref.normalized) {
      mismatch(r.count, where + ": served '" + r.text + "' vs reference '" +
                            ref.normalized + "'");
      continue;
    }
    const std::string why = evaluate(ref.instance, r.text, params);
    if (!why.empty()) mismatch(r.count, where + ": " + why);
  }

  // Spot checks: sampled records of long streams re-solved cold.
  std::size_t spot_done = 0;
  for (std::size_t s = 0; s < reference.size() && spot_checks > 0; ++s) {
    const std::size_t n = reference[s].size();
    if (n <= 100) continue;
    for (std::size_t i = 1; i <= spot_checks; ++i) {
      const std::size_t k = i * (n - 1) / (spot_checks + 1) + 1;
      ServeResult cold;
      cold.ok = true;
      cold.solution = ref_replayer.solver().solve(reference[s][k].instance);
      const std::string line = normalize_result(
          render_result(k + 1, "1", cold, ref_replayer.format()).line);
      ++spot_done;
      if (line != reference[s][k].normalized) {
        mismatch(1, "cold re-solve of stream " + std::to_string(s) + " record " +
                 std::to_string(k) + " differs: '" + line + "'");
      }
    }
  }

  std::cout.precision(9);
  std::ostringstream metrics;
  metrics.precision(9);
  const auto per = [](double total, std::size_t n) {
    return n ? total / static_cast<double>(n) : 0.0;
  };

  // 3. Traced replay.
  if (!trace_path.empty()) {
    Tracer tracer;
    ReplayTotals traced;
    ReplayTotals untraced;
    std::vector<std::vector<Outcome>> replayed(plan.streams.size());
    if (pipeline > 0) {
      const std::size_t count =
          std::min(kPipelineRecords, plan.streams[0].records.size());
      {
        Replayer r(params, nullptr);
        const std::int64_t start = now_ns();
        r.pipelined(plan.streams[0], 0, count, pipeline, untraced);
        untraced.seconds = 1e-9 * static_cast<double>(now_ns() - start);
      }
      Replayer r(params, &tracer);
      const std::int64_t start = now_ns();
      replayed[0] = r.pipelined(plan.streams[0], 0, count, pipeline, traced);
      traced.seconds = 1e-9 * static_cast<double>(now_ns() - start);
    } else {
      // Fixed prefixes of the streams, so the counts repeat exactly for a
      // seed however far the served run got.  The reference replay above
      // doubles as warm-up; the untraced timing is taken after the traced
      // one.
      const auto serial_pass = [&](Tracer* t, ReplayTotals& totals) {
        Replayer r(params, t);
        const std::int64_t start = now_ns();
        for (std::size_t s = 0; s < plan.streams.size(); ++s) {
          replayed[s] = r.serial(
              plan.streams[s], s,
              std::min(kTracedRecords, plan.streams[s].records.size()), totals);
        }
        totals.seconds = 1e-9 * static_cast<double>(now_ns() - start);
      };
      serial_pass(&tracer, traced);
      serial_pass(nullptr, untraced);
    }
    for (std::size_t s = 0; s < replayed.size(); ++s) {
      const std::size_t n = std::min(replayed[s].size(), reference[s].size());
      for (std::size_t k = 0; k < n; ++k) {
        if (replayed[s][k].normalized != reference[s][k].normalized) {
          mismatch(1, "traced replay of stream " + std::to_string(s) +
                   " record " + std::to_string(k) + " differs");
        }
      }
    }

    std::map<std::string, std::pair<double, std::size_t>> by_name;
    for (const Span& s : tracer.spans()) {
      auto& [total, n] = by_name[s.name];
      total += static_cast<double>(s.end - s.start);
      ++n;
    }
    const auto sum_ns = [&](const char* name) { return by_name[name].first; };
    const auto mean_ns = [&](const char* name) {
      return per(by_name[name].first, by_name[name].second);
    };
    const std::size_t scen_requests = traced.requests - traced.trees;
    const std::int64_t served_origin =
        tracer.spans().empty() ? now_ns() : tracer.spans().back().end;
    add_client_spans(tracer, served, served_origin, 5000);
    const std::size_t client_requests =
        std::min<std::size_t>(served.requests.size(), 5000);
    std::map<std::string, double> self = self_times(tracer.spans());
    write_chrome_trace(trace_path, tracer.spans());

    const double reused = static_cast<double>(traced.nodes_reused);
    const double recomputed = static_cast<double>(traced.nodes_recomputed);
    const double skipped = static_cast<double>(traced.cells_skipped);
    const double work = static_cast<double>(traced.work);
    metrics << "\"core.work_per_req\": " << per(work, traced.requests)
            << ", \"core.merge_steps_per_req\": "
            << per(static_cast<double>(traced.merge_steps), traced.requests)
            << ", \"core.nodes_recomputed_per_req\": "
            << per(recomputed, traced.requests)
            << ", \"core.reuse_ratio\": "
            << (reused + recomputed > 0 ? reused / (reused + recomputed) : 0.0)
            << ", \"core.lazy_skip_ratio\": "
            << (skipped + work > 0 ? skipped / (skipped + work) : 0.0)
            << ", \"core.fallback_ticks\": " << traced.fallback_ticks
            << ", \"session.resident_mb\": "
            << static_cast<double>(traced.peak_resident_bytes) / 1048576.0
            << ", \"wire.parse_us_per_req\": "
            << 1e-3 * per(sum_ns("wire.parse"), scen_requests)
            << ", \"wire.render_us_per_req\": "
            << 1e-3 * per(sum_ns("wire.render"), traced.requests)
            << ", \"cache.get_us\": " << 1e-3 * mean_ns("cache.get")
            << ", \"cache.put_us\": " << 1e-3 * mean_ns("cache.put")
            << ", \"tree.parse_ms_per_tree\": "
            << 1e-6 * per(sum_ns("tree.parse"), traced.trees)
            << ", \"tree.apply_delta_us_per_req\": "
            << 1e-3 * per(sum_ns("tree.apply_delta"), scen_requests)
            << ", \"trace.overhead_frac\": "
            << (untraced.seconds > 0 ? traced.seconds / untraced.seconds - 1.0
                                     : 0.0);
    for (const char* layer : {"wire", "tree", "cache", "solver"}) {
      metrics << ", \"self_us_per_req." << layer
              << "\": " << 1e-3 * per(self[layer], traced.requests);
    }
    metrics << ", \"self_us_per_req.client\": "
            << 1e-3 * per(self["client"], client_requests);
  }

  std::cout << "{\"verified\": " << verified
            << ", \"mismatches\": " << mismatches << ", \"first_mismatch\": \""
            << [&] {
                 std::string e;
                 for (char c : first_mismatch) {
                   if (c != '"' && c != '\\' && c != '\n') e.push_back(c);
                 }
                 return e;
               }()
            << "\", \"reference_not_ok\": " << ref_not_ok
            << ", \"base_frontier\": " << base_frontier
            << ", \"spot_checks\": " << spot_done
            << ", \"reference_s\": " << ref_totals.seconds
            << ", \"metrics\": {" << metrics.str() << "}}\n";
  return mismatches == 0 ? 0 : 1;
}

}  // namespace pbench
