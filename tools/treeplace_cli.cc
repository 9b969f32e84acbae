// treeplace command-line tool — drive the library without writing C++.
//
//   treeplace gen --nodes 50 --shape fat --seed 7 > tree.txt
//   treeplace solve --algo update-dp --capacity 10 --create 0.1 \
//             --delete 0.01 < tree.txt
//   treeplace solve --algo power-sym --modes 5,10 --static 12.5 --alpha 3 \
//             --create 0.1 --delete 0.01 --changed 0.001 [--budget 25] \
//             < tree.txt
//   treeplace solve --list-algos
//   treeplace serve --algo power-sym --modes 5,10 --threads 8 < stream.txt
//   treeplace validate --capacity 10 --servers 0,3,7 < tree.txt
//   treeplace stats < tree.txt
//   treeplace dot < tree.txt | dot -Tpng > tree.png
//
// Every placement algorithm is selected by name through the SolverRegistry
// (solver/registry.h); `solve --list-algos` enumerates them.  Trees are
// read/written in the text format of tree/io.h; `serve` additionally
// accepts scenario-delta records (serve/request_stream.h).
//
// Exit codes: 0 success; 1 infeasible instance or unmet --budget; 2 usage
// error (including unknown commands, flags and --algo names).
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "serve/net_server.h"
#include "serve/stream_server.h"
#include "treeplace.h"
#include "tree/aggregate.h"
#include "tree/metrics.h"

using namespace treeplace;

namespace {

constexpr int kExitSuccess = 0;
constexpr int kExitInfeasible = 1;
constexpr int kExitUsage = 2;

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: treeplace <command> [options]\n"
      "\n"
      "commands:\n"
      "  gen          generate a random distribution tree to stdout\n"
      "               --nodes N --shape fat|high --client-prob P\n"
      "               --requests LO,HI --pre E --modes M --seed S --index I\n"
      "  workload     emit a simulated day of diurnal traffic as a serve\n"
      "               stream (one skew tree + one scenario-delta record per\n"
      "               tick) — pipe into `treeplace serve`\n"
      "               --internal N       skew-tree internal nodes (400)\n"
      "               --users U          client population (100000)\n"
      "               --skew A           Zipf attachment skew (0.8)\n"
      "               --requests LO,HI --pre E --seed S --index I\n"
      "               --ticks T          delta batches (default: one day)\n"
      "               --tick-seconds S   batch cadence (300 = 288/day)\n"
      "               --touch F          clients re-drawn per tick (0.02)\n"
      "               --amplitude A      diurnal swing (0.6)\n"
      "               --flash-prob P     flash-crowd chance per tick (0.01)\n"
      "               --aggregate        emit the aggregated tree and fold\n"
      "                                  each batch into attachment-point\n"
      "                                  records (Aggregation::map_deltas)\n"
      "  solve        run a registered solver on the tree(s) from stdin;\n"
      "               concatenated trees stream as a batch (one placement\n"
      "               per tree, shared solver instance)\n"
      "               --algo NAME        solver to run (see --list-algos)\n"
      "               --list-algos       list registered solvers and exit\n"
      "               --threads K        solver-internal threads (power DPs\n"
      "                                  shard child merges; results are\n"
      "                                  bit-identical to --threads 1)\n"
      "               --capacity W       single-mode capacity (default 10)\n"
      "               --modes W1,W2,...  mode capacities (multi-mode)\n"
      "               --static P --alpha A      power model (Eq. 3)\n"
      "               --create C --delete D     cost model (Eq. 2/4)\n"
      "               --changed X --changed-same Y\n"
      "               --budget B         bounded-cost query\n"
      "  serve        batch-serving loop: read a stream of tree records\n"
      "               and scenario-delta records from stdin, keep hot\n"
      "               topologies resident, dispatch solves across a thread\n"
      "               pool and emit one result record per request (in\n"
      "               request order, bit-identical to a serial run)\n"
      "               --algo NAME        solver serving every request\n"
      "               --threads N        pool size (default: all cores)\n"
      "               --queue Q          bound on in-flight solves (4xN)\n"
      "               --cache C          resident topologies (default 16)\n"
      "               --session-bytes B  warm-state byte budget per resident\n"
      "                                  topology (0 = unbounded)\n"
      "               --solver-threads K solver-internal threads\n"
      "               (instance flags as for solve)\n"
      "               network mode (instead of stdin/stdout):\n"
      "               --listen HOST:PORT accept concurrent TCP connections,\n"
      "                                  each speaking the record protocol\n"
      "                                  (port 0 = ephemeral, printed as a\n"
      "                                  `# listen:` line); SIGTERM drains\n"
      "                                  gracefully\n"
      "               --max-conns N      connection cap (default 4096)\n"
      "               --idle-timeout S   reap idle connections after S\n"
      "                                  seconds (0 = never, default 300)\n"
      "               --keepalive S      arm TCP keepalive probes on every\n"
      "                                  accepted socket (SO_KEEPALIVE,\n"
      "                                  first probe after S idle seconds)\n"
      "                                  so half-dead peers are reaped by\n"
      "                                  the kernel (0 = off, default)\n"
      "               --shards K         independent serving shards behind\n"
      "                                  the router (default 1); a hello\n"
      "                                  name= pins a client to its shard\n"
      "                                  by consistent hashing; SIGUSR1\n"
      "                                  drains one shard (round-robin)\n"
      "               --persist DIR      snapshot named sessions to DIR at\n"
      "                                  shard drain and restore them when\n"
      "                                  the name republishes its trees\n"
      "  list-algos   same as solve --list-algos\n"
      "  validate     check a placement --capacity W --servers id,id,...\n"
      "  stats        structural metrics of the tree on stdin\n"
      "  dot          Graphviz rendering of the tree on stdin\n"
      "\n"
      "exit codes: 0 ok, 1 infeasible or over budget, 2 usage error\n";
  std::exit(kExitUsage);
}

/// Value-less flags.  "exact" stays one so the legacy `solve-power --exact`
/// invocation reaches the migration hint instead of dying in parsing.
const std::set<std::string> kSwitches = {"list-algos", "exact", "aggregate"};

/// Flags that take a value, across all commands.  Anything else is a usage
/// error: a silently dropped flag would also swallow the next argument as
/// its value.
const std::set<std::string> kValueFlags = {
    "algo", "alpha", "amplitude", "budget", "cache", "capacity", "changed",
    "changed-same", "client-prob", "create", "delete", "flash-prob",
    "idle-timeout", "index", "internal", "keepalive", "listen", "max-conns",
    "modes", "nodes", "persist", "pre", "queue", "requests", "seed", "servers",
    "session-bytes", "shape", "shards", "skew", "solver-threads", "static",
    "threads", "tick-seconds", "ticks", "touch", "users"};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) usage("unexpected argument '" + key + "'");
      key = key.substr(2);
      if (kSwitches.count(key) > 0) {
        values_[key] = "1";
      } else if (kValueFlags.count(key) > 0) {
        if (i + 1 >= argc) usage("missing value for --" + key);
        values_[key] = argv[++i];
      } else {
        usage("unknown flag --" + key);
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

  std::vector<std::uint64_t> get_list(const std::string& key) const {
    std::vector<std::uint64_t> out;
    auto it = values_.find(key);
    if (it == values_.end()) return out;
    std::istringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(std::stoull(item));
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

Tree read_tree() { return parse_tree(std::cin); }

/// A non-negative count flag; `--threads -1` wrapping to SIZE_MAX would
/// silently disable the serving loop's bounded-queue guarantee.
std::size_t get_count(const Args& args, const std::string& key,
                      std::int64_t fallback, std::int64_t min_value) {
  const std::int64_t value = args.get_int(key, fallback);
  if (value < min_value) {
    usage("--" + key + " must be >= " + std::to_string(min_value));
  }
  return static_cast<std::size_t>(value);
}

void print_placement(const Topology& topo, const Scenario& scen,
                     const Placement& placement) {
  const FlowResult flows = compute_flows(topo, scen, placement);
  for (std::size_t i = 0; i < placement.nodes().size(); ++i) {
    const NodeId node = placement.nodes()[i];
    std::cout << "  node " << node << "  mode " << placement.modes()[i]
              << "  load " << flows.load(topo, node)
              << (scen.pre_existing(node) ? "  (reused)" : "  (new)") << "\n";
  }
}

int cmd_gen(const Args& args) {
  TreeGenConfig config;
  config.num_internal = static_cast<int>(args.get_int("nodes", 50));
  const std::string shape = args.get("shape", "fat");
  if (shape == "fat") {
    config.shape = kFatShape;
  } else if (shape == "high") {
    config.shape = kHighShape;
  } else {
    usage("unknown shape '" + shape + "'");
  }
  config.client_probability = args.get_double("client-prob", 0.5);
  const auto requests = args.get_list("requests");
  if (requests.size() == 2) {
    config.min_requests = requests[0];
    config.max_requests = requests[1];
  } else if (!requests.empty()) {
    usage("--requests expects LO,HI");
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto index = static_cast<std::uint64_t>(args.get_int("index", 0));
  Tree tree = generate_tree(config, seed, index);
  const auto num_pre = static_cast<std::size_t>(args.get_int("pre", 0));
  if (num_pre > 0) {
    Xoshiro256 rng = make_rng(seed, index, RngStream::kPreExisting);
    assign_random_pre_existing(tree, num_pre, rng,
                               static_cast<int>(args.get_int("modes", 1)));
  }
  serialize_tree(tree, std::cout);
  return kExitSuccess;
}

/// One scenario delta as a serve-stream record line (the grammar of
/// serve/request_stream.h — the inverse of its parse_delta_line).
void print_delta_line(std::ostream& os, const ScenarioDelta& d) {
  switch (d.op) {
    case ScenarioDelta::Op::kSetRequests:
      os << "R " << d.node << " " << d.requests << "\n";
      break;
    case ScenarioDelta::Op::kSetPreExisting:
      os << "E " << d.node << " " << d.mode << "\n";
      break;
    case ScenarioDelta::Op::kClearPreExisting:
      os << "X " << d.node << "\n";
      break;
    case ScenarioDelta::Op::kClearAllPre:
      os << "Z\n";
      break;
  }
}

/// The diurnal workload engine driven through the serve stream format:
/// one skew tree record, then one `treeplace-scenario v1 1` record per
/// tick.  With --aggregate the *aggregated* tree is published and each
/// user-level batch is folded through Aggregation::map_deltas into
/// attachment-point records first — the million-user day collapses to a
/// stream whose per-tick record count is bounded by the number of touched
/// attachment points, not touched users.
int cmd_workload(const Args& args) {
  SkewTreeConfig gen;
  gen.num_internal = static_cast<int>(get_count(args, "internal", 400, 1));
  gen.num_users = get_count(args, "users", 100000, 1);
  gen.attach_skew = args.get_double("skew", 0.8);
  const auto requests = args.get_list("requests");
  if (requests.size() == 2) {
    gen.min_requests = requests[0];
    gen.max_requests = requests[1];
  } else if (!requests.empty()) {
    usage("--requests expects LO,HI");
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto index = static_cast<std::uint64_t>(args.get_int("index", 0));
  Tree tree = generate_skew_tree(gen, seed, index);
  const std::size_t num_pre = get_count(args, "pre", 0, 0);
  if (num_pre > 0) {
    Xoshiro256 pre_rng = make_rng(seed, index, RngStream::kPreExisting);
    assign_random_pre_existing(tree, num_pre, pre_rng,
                               static_cast<int>(args.get_int("modes", 1)));
  }

  DiurnalConfig day;
  day.tick_seconds = args.get_double("tick-seconds", day.tick_seconds);
  day.touch_fraction = args.get_double("touch", day.touch_fraction);
  day.amplitude = args.get_double("amplitude", day.amplitude);
  day.flash_probability = args.get_double("flash-prob", day.flash_probability);
  day.min_requests = gen.min_requests;
  day.max_requests = gen.max_requests;
  DiurnalWorkload workload(tree.topology_ptr(), day,
                           make_rng(seed, index, RngStream::kWorkloadUpdate));
  const std::size_t ticks =
      get_count(args, "ticks", static_cast<std::int64_t>(
                                   workload.ticks_per_day()), 1);

  const bool aggregate = args.has("aggregate");
  std::optional<Aggregation> agg;
  if (aggregate) {
    agg.emplace(tree.topology_ptr());
    serialize_tree(Tree(agg->aggregated(), agg->aggregate(tree.scenario())),
                   std::cout);
  } else {
    serialize_tree(tree, std::cout);
  }

  for (std::size_t tick = 0; tick < ticks; ++tick) {
    DiurnalWorkload::Tick t = workload.next();
    // map_deltas reads post-delta client masses, so the user-level
    // scenario is kept current even when only aggregate records are
    // emitted.
    for (const ScenarioDelta& d : t.deltas) apply_delta(tree.scenario(), d);
    std::cout << "# tick " << tick << " sim_s=" << t.sim_seconds
              << " mult=" << t.multiplier << (t.flash ? " flash" : "")
              << "\n";
    std::cout << "treeplace-scenario v1 1\n";
    if (aggregate) {
      for (const ScenarioDelta& d :
           agg->map_deltas(tree.scenario(), t.deltas)) {
        print_delta_line(std::cout, d);
      }
    } else {
      for (const ScenarioDelta& d : t.deltas) print_delta_line(std::cout, d);
    }
  }
  return kExitSuccess;
}

int cmd_list_algos() {
  const auto infos = SolverRegistry::instance().infos();
  std::cout << infos.size() << " registered solvers:\n\n";
  for (const SolverInfo& info : infos) {
    std::cout << "  " << info.name << "\n    " << info.summary << "\n    ["
              << (info.exact ? "exact" : "heuristic")
              << ", objective: "
              << (info.objective == Objective::kMinPower ? "min-power"
                                                         : "min-cost");
    if (info.needs_modes) std::cout << ", multi-mode";
    if (info.supports_pre_existing) std::cout << ", reuse-aware";
    if (!info.provides_placement) std::cout << ", value-only oracle";
    if (info.single_mode_only) std::cout << ", single-mode instances";
    if (info.max_internal > 0) {
      std::cout << ", N <= " << info.max_internal;
    }
    std::cout << "]\n";
  }
  return kExitSuccess;
}

/// The per-instance parameters assembled from CLI flags, shared by the
/// one-shot `solve` path and the `serve` loop (which applies them to every
/// request of the stream).
struct InstanceParams {
  ModeSet modes = ModeSet::single(10);
  CostModel costs = CostModel::simple(0.1, 0.01);
  std::optional<double> budget;
  /// Classic single-mode problem class: original modes of pre-existing
  /// servers are projected to 0 (Instance::single_mode semantics).
  bool single_mode = true;
};

/// Interprets the instance flags.  --modes (or a mode-aware solver with no
/// explicit --capacity) selects the multi-mode Eq. 4 setting with the
/// defaults of the paper's experiments; otherwise the classic single-mode
/// Eq. 2 setting — so `--capacity` is always honored, even for power
/// solvers (they then run with the single mode W).
InstanceParams parse_instance_params(const Args& args,
                                     const SolverInfo& info) {
  if (args.has("modes") && args.has("capacity")) {
    usage("--capacity conflicts with --modes; the capacity is W_M");
  }
  InstanceParams params;
  if (args.has("budget")) params.budget = args.get_double("budget", 0.0);
  if (args.has("modes") || (info.needs_modes && !args.has("capacity"))) {
    auto caps = args.get_list("modes");
    if (caps.empty()) caps = {5, 10};
    params.modes = ModeSet(std::vector<RequestCount>(caps.begin(), caps.end()),
                           args.get_double("static", 0.0),
                           args.get_double("alpha", 3.0));
    params.costs = CostModel::uniform(
        params.modes.count(), args.get_double("create", 0.1),
        args.get_double("delete", 0.01), args.get_double("changed", 0.0),
        args.get_double("changed-same", 0.0));
    params.single_mode = false;
    return params;
  }
  const auto capacity = static_cast<RequestCount>(args.get_int("capacity", 10));
  // Honor the power-model flags in the single-mode setting too (they
  // matter when a min-power solver runs with one mode).
  params.modes = ModeSet({capacity}, args.get_double("static", 0.0),
                         args.get_double("alpha", 3.0));
  params.costs = CostModel::simple(args.get_double("create", 0.1),
                                   args.get_double("delete", 0.01));
  params.single_mode = true;
  return params;
}

Instance build_instance(const InstanceParams& params, Tree tree) {
  auto topology = tree.topology_ptr();
  Scenario scen = std::move(tree.scenario());
  if (params.single_mode) project_to_single_mode(scen);
  return Instance{std::move(topology), std::move(scen), params.modes,
                  params.costs, params.budget};
}

/// Solves one tree and prints the result.  Returns the per-tree exit code.
int solve_one(const std::string& algo, const SolverInfo& info,
              const Solver& solver, const Instance& instance) {
  if (!info.accepts(instance.num_internal(), instance.modes.count())) {
    std::cerr << "error: '" << algo << "' does not accept this instance ("
              << instance.num_internal() << " internal nodes, "
              << instance.modes.count() << " modes";
    if (info.max_internal > 0) {
      std::cerr << "; solver limit N <= " << info.max_internal;
    }
    if (info.single_mode_only) std::cerr << "; single-mode only";
    std::cerr << ")\n";
    return kExitUsage;
  }

  const Solution solution = solver.solve(instance);
  if (!solution.feasible) {
    std::cout << "infeasible: some client group exceeds the capacity W_M\n";
    return kExitInfeasible;
  }

  if (!solution.frontier.empty()) {
    std::cout << "cost-power Pareto frontier (" << solution.frontier.size()
              << " points):\n";
    for (const PowerParetoPoint& p : solution.frontier) {
      std::cout << "  cost " << p.cost << "  power " << p.power;
      if (!p.placement.empty()) {
        std::cout << "  servers " << p.breakdown.servers;
      }
      std::cout << "\n";
    }
  }

  const bool multi_mode = instance.modes.count() > 1;
  std::cout << algo << ": cost " << solution.breakdown.cost;
  if (multi_mode) std::cout << "  power " << solution.power;
  if (info.provides_placement) {
    std::cout << "  (" << solution.breakdown.servers << " servers: "
              << solution.breakdown.reused << " reused, "
              << solution.breakdown.created << " new, "
              << solution.breakdown.deleted << " deleted)";
  } else {
    std::cout << "  (value-only oracle: optimal values certified, no "
                 "placement reconstructed)";
  }
  std::cout << "  [" << solution.stats.seconds << " s]\n";
  if (instance.cost_budget && !solution.budget_met) {
    std::cout << "no solution within budget " << *instance.cost_budget
              << "\n";
    return kExitInfeasible;
  }
  if (instance.cost_budget) {
    std::cout << "best within budget " << *instance.cost_budget << ": ";
    if (multi_mode) std::cout << "power " << solution.power << " at ";
    std::cout << "cost " << solution.breakdown.cost << "\n";
  }
  print_placement(instance.topo(), instance.scen(), solution.placement);
  return kExitSuccess;
}

/// Streaming batch serve: one placement per input tree.  A single tree on
/// stdin behaves exactly as before; concatenated trees (`cat a.txt b.txt`)
/// are solved one at a time by one solver instance, each over its own
/// zero-copy Instance.
int cmd_solve(const Args& args) {
  if (args.has("list-algos")) return cmd_list_algos();
  if (!args.has("algo")) usage("solve requires --algo NAME (or --list-algos)");
  const std::string algo = args.get("algo", "");
  const SolverRegistry& registry = SolverRegistry::instance();
  const SolverInfo* info = registry.find(algo);
  if (info == nullptr) {
    std::cerr << "error: unknown algorithm '" << algo << "'\n"
              << "available algorithms: " << registry.catalog() << "\n"
              << "(run `treeplace list-algos` for descriptions)\n";
    return kExitUsage;
  }

  const auto solver = make_solver(algo);
  const auto threads = static_cast<int>(get_count(args, "threads", 1, 1));
  if (threads != 1) solver->set_options(Solver::Options{threads});
  const InstanceParams params = parse_instance_params(args, *info);
  TreeStreamReader reader(std::cin);
  int worst = kExitSuccess;
  for (std::optional<Tree> tree = reader.next(); tree;
       tree = reader.next()) {
    if (reader.trees_read() > 1) {
      std::cout << "\n== tree " << reader.trees_read() << " ==\n";
    }
    const Instance instance = build_instance(params, std::move(*tree));
    // A per-instance failure (capability rejection, infeasibility) never
    // aborts the stream: remaining trees are still served and the exit
    // code reports the worst outcome.
    worst = std::max(worst, solve_one(algo, *info, *solver, instance));
  }
  if (reader.trees_read() == 0) usage("no tree on stdin");
  return worst;
}

serve::NetServer* g_net_server = nullptr;

extern "C" void handle_drain_signal(int) {
  // NetServer::shutdown() is async-signal-safe (atomic store + write()).
  if (g_net_server != nullptr) g_net_server->shutdown();
}

extern "C" void handle_kill_shard_signal(int) {
  // kill_next_shard() is async-signal-safe too (atomics + write()).
  if (g_net_server != nullptr) g_net_server->kill_next_shard();
}

/// Thousands of connections need thousands of fds; lift the soft limit to
/// the hard limit (best-effort).
void raise_nofile_limit() {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }
}

/// `serve --listen`: the async TCP front-end (serve/net_server.h).
int cmd_serve_net(const Args& args, serve::StreamServerConfig stream_config) {
  const std::string listen = args.get("listen", "");
  const auto colon = listen.rfind(':');
  if (colon == std::string::npos) usage("--listen expects HOST:PORT");
  serve::NetServerConfig config;
  config.host = listen.substr(0, colon);
  const std::int64_t port = std::stoll(listen.substr(colon + 1));
  if (port < 0 || port > 65535) usage("--listen port out of range");
  config.port = static_cast<std::uint16_t>(port);
  config.max_conns = get_count(args, "max-conns", 4096, 1);
  config.idle_timeout_seconds = args.get_double("idle-timeout", 300.0);
  config.keepalive_seconds =
      static_cast<int>(get_count(args, "keepalive", 0, 0));
  config.shards = get_count(args, "shards", 1, 1);
  config.persist_dir = args.get("persist", "");
  config.stream = std::move(stream_config);

  raise_nofile_limit();
  serve::NetServer server(std::move(config));
  const std::uint16_t bound = server.listen_and_bind();
  // Port 0 callers (tests, benches, scripts) learn the real port here.
  std::cout << "# listen: " << listen.substr(0, colon) << ":" << bound << "\n"
            << std::flush;

  g_net_server = &server;
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  std::signal(SIGUSR1, handle_kill_shard_signal);
  const serve::NetServerSummary summary = server.run(std::cout);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGUSR1, SIG_DFL);
  g_net_server = nullptr;

  if (summary.errors > 0 || summary.protocol_errors > 0) return kExitUsage;
  if (summary.infeasible > 0 || summary.over_budget > 0) {
    return kExitInfeasible;
  }
  return kExitSuccess;
}

/// The batch-serving loop: mixed tree / scenario-delta records on stdin,
/// one result record per request on stdout (see serve/stream_server.h).
int cmd_serve(const Args& args) {
  if (!args.has("algo")) usage("serve requires --algo NAME");
  const std::string algo = args.get("algo", "");
  const SolverRegistry& registry = SolverRegistry::instance();
  const SolverInfo* info = registry.find(algo);
  if (info == nullptr) {
    std::cerr << "error: unknown algorithm '" << algo << "'\n"
              << "available algorithms: " << registry.catalog() << "\n";
    return kExitUsage;
  }
  const InstanceParams params = parse_instance_params(args, *info);

  serve::StreamServerConfig config;
  config.dispatcher.algos = {algo};
  config.dispatcher.threads = get_count(args, "threads", 0, 0);
  config.dispatcher.queue_capacity = get_count(args, "queue", 0, 0);
  config.dispatcher.solver_threads =
      static_cast<int>(get_count(args, "solver-threads", 1, 1));
  config.cache_capacity = get_count(args, "cache", 16, 1);
  config.session_max_bytes = get_count(args, "session-bytes", 0, 0);
  config.modes = params.modes;
  config.costs = params.costs;
  config.cost_budget = params.budget;
  config.project_original_modes = params.single_mode;

  if (args.has("listen")) return cmd_serve_net(args, std::move(config));

  serve::StreamServer server(std::move(config));
  const serve::StreamServerSummary summary = server.serve(std::cin, std::cout);
  if (summary.stream_error) {
    std::cerr << "error: malformed request stream: "
              << summary.stream_error_message << "\n";
    return kExitUsage;
  }
  if (summary.requests == 0) usage("no request on stdin");
  if (summary.errors > 0) return kExitUsage;
  if (summary.infeasible > 0 || summary.over_budget > 0) {
    return kExitInfeasible;
  }
  return kExitSuccess;
}

int cmd_validate(const Args& args) {
  const Tree tree = read_tree();
  const auto capacity = static_cast<RequestCount>(args.get_int("capacity", 10));
  Placement placement;
  for (std::uint64_t id : args.get_list("servers")) {
    placement.add(static_cast<NodeId>(id), 0);
  }
  const ValidationResult v =
      validate(tree, placement, ModeSet::single(capacity));
  if (v.valid) {
    std::cout << "valid placement (" << placement.size() << " servers)\n";
    return kExitSuccess;
  }
  std::cout << "INVALID: " << v.reason << "\n";
  return kExitInfeasible;
}

int cmd_stats(const Args&) {
  const Tree tree = read_tree();
  const TreeMetrics m = compute_metrics(tree);
  std::cout << "internal nodes: " << m.num_internal << "\n"
            << "clients:        " << m.num_clients << "\n"
            << "pre-existing:   " << m.num_pre_existing << "\n"
            << "depth:          " << m.depth << "\n"
            << "fan-out:        " << m.min_fanout << ".." << m.max_fanout
            << " (mean " << m.mean_fanout << ")\n"
            << "total requests: " << m.total_requests << "\n"
            << "max client:     " << m.max_client_requests << "\n";
  return kExitSuccess;
}

int cmd_dot(const Args&) {
  std::cout << to_dot(read_tree());
  return kExitSuccess;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const Args args(argc, argv);
  try {
    if (command == "gen") return cmd_gen(args);
    if (command == "workload") return cmd_workload(args);
    if (command == "solve") return cmd_solve(args);
    if (command == "serve") return cmd_serve(args);
    if (command == "list-algos" || command == "--list-algos") {
      return cmd_list_algos();
    }
    if (command == "validate") return cmd_validate(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "dot") return cmd_dot(args);
    if (command == "solve-cost" || command == "solve-power" ||
        command == "greedy") {
      const std::string replacement =
          command == "solve-cost"
              ? "update-dp"
              : command == "greedy"
                    ? "greedy"
                    : args.has("exact") ? "power-exact" : "power-sym";
      usage("'" + command +
            "' was replaced by the generic solver interface; use `treeplace "
            "solve --algo " +
            replacement + "` (see `treeplace list-algos`)");
    }
    usage("unknown command '" + command + "'");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  }
}
