// One simulated day of diurnal traffic against a warm serving session at
// million-node scale.
//
// The acceptance shape of the aggregation + compact-encoding work: a skew
// tree with N=1e5 users (Zipf-attached to a few hundred internal nodes)
// is collapsed through an Aggregation, a DiurnalWorkload streams delta
// batches over the *user-level* scenario, Aggregation::map_deltas folds
// each batch into attachment-point records, and one persistent
// SolveSession absorbs the whole day of warm power-sym re-solves.  The
// table reports scenarios/sec, p50/p99 tick latency, the peak resident
// session bytes over the day, and the warm ticks' mean phase split
// (plan, join, root, reconstruct, evaluate; PowerPhaseSeconds).
//
// The hard gate runs in-bench (non-zero exit on failure): the small
// `verify` configuration re-solves every tick cold on the un-aggregated
// tree and demands bit-identical placements (after Aggregation::expand),
// costs and powers — the exactness contract.
//
// The JSON written for the CI bench-diff gate contains only deterministic
// columns (delta counts, DP work, the labels the warm ticks kept, the
// gate flag); throughput, latency, phase and byte columns stay in the
// CSV/stdout.
// Knobs: TREEPLACE_DAY_USERS / TREEPLACE_DAY_TICKS / TREEPLACE_DAY_INTERNAL
// override the big configuration, --out DIR / TREEPLACE_BENCH_DIR route
// file output.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "gen/workload.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/prng.h"
#include "tree/aggregate.h"
#include "tree/scenario_delta.h"

using namespace treeplace;

namespace {

constexpr const char* kAlgo = "power-sym";

struct DayConfig {
  std::string label;
  int num_internal = 0;
  std::size_t num_users = 0;
  std::size_t ticks = 0;
  std::size_t num_pre_existing = 0;
  bool verify_against_original = false;  ///< cold original solve per tick
  double touch_fraction = 0.02;  ///< DiurnalConfig::touch_fraction
};

struct DayResult {
  std::size_t user_deltas = 0;  ///< user-level delta records streamed
  std::size_t agg_deltas = 0;   ///< records after map_deltas folding
  std::uint64_t warm_work = 0;
  std::uint64_t labels = 0;  ///< labels kept by the warm ticks
  double cold_seconds = 0.0;  ///< the one priming solve
  double warm_seconds = 0.0;  ///< sum over all ticks
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  PowerPhaseSeconds phases;  ///< summed over the day's warm ticks
  std::size_t peak_bytes = 0;  ///< max resident over the day
  bool identical = true;  ///< verify config: aggregated == original
};

double percentile_ms(std::vector<double> seconds, double p) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(seconds.size() - 1) + 0.5);
  return seconds[std::min(idx, seconds.size() - 1)] * 1e3;
}

/// Capacities sized so the hottest Zipf attachment point (and the root's
/// total mass, up to max_requests x flash_magnitude per user) stays
/// absorbable; capacities do not enter the DP table dimensions, so large
/// values cost nothing (see src/model/modes.h).
Instance make_instance(const std::shared_ptr<const Topology>& topology,
                       const Scenario& scenario) {
  const ModeSet modes({4000000, 8000000}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  return Instance{topology, scenario, modes, costs, std::nullopt};
}

DayResult run_day(const DayConfig& config) {
  SkewTreeConfig gen;
  gen.num_internal = config.num_internal;
  gen.num_users = config.num_users;
  Tree tree = generate_skew_tree(gen, /*seed=*/7001, /*index=*/0);
  if (config.num_pre_existing > 0) {
    Xoshiro256 pre_rng = make_rng(7001, 0, RngStream::kPreExisting);
    assign_random_pre_existing(tree, config.num_pre_existing, pre_rng,
                               /*num_modes=*/2);
  }

  Aggregation aggregation(tree.topology_ptr());
  Scenario agg_scenario = aggregation.aggregate(tree.scenario());
  const auto warm_solver = make_solver(kAlgo);
  const auto cold_solver = make_solver(kAlgo);
  SolveSession session(aggregation.aggregated());

  DayResult r;
  Stopwatch cold_watch;
  const Solution primed = warm_solver->solve(SolveRequest{
      make_instance(aggregation.aggregated(), agg_scenario), {}, &session});
  r.cold_seconds = cold_watch.seconds();
  if (!primed.feasible) {
    r.identical = false;
    return r;
  }
  const std::uint64_t primed_work = primed.stats.work;
  const std::uint64_t labels_base = session.stats().labels;
  const PowerPhaseSeconds phases_base = session.stats().phases;

  DiurnalConfig diurnal;
  diurnal.touch_fraction = config.touch_fraction;
  DiurnalWorkload workload(tree.topology_ptr(), diurnal, Xoshiro256(7002));

  std::vector<double> latencies;
  latencies.reserve(config.ticks);
  for (std::size_t tick = 0; tick < config.ticks; ++tick) {
    DiurnalWorkload::Tick t = workload.next();
    for (const ScenarioDelta& d : t.deltas) apply_delta(tree.scenario(), d);
    const std::vector<ScenarioDelta> mapped =
        aggregation.map_deltas(tree.scenario(), t.deltas);
    for (const ScenarioDelta& d : mapped) apply_delta(agg_scenario, d);
    r.user_deltas += t.deltas.size();
    r.agg_deltas += mapped.size();

    const Instance instance =
        make_instance(aggregation.aggregated(), agg_scenario);
    Stopwatch tick_watch;
    const Solution warm =
        warm_solver->solve(SolveRequest{instance, mapped, &session});
    latencies.push_back(tick_watch.seconds());
    r.warm_seconds += latencies.back();
    r.warm_work += warm.stats.work;
    r.peak_bytes = std::max(r.peak_bytes, session.resident_bytes());

    if (config.verify_against_original && r.identical) {
      const Solution cold =
          cold_solver->solve(make_instance(tree.topology_ptr(),
                                           tree.scenario()));
      const Placement expanded = aggregation.expand(warm.placement);
      if (warm.feasible != cold.feasible || !(expanded == cold.placement) ||
          (cold.feasible && (warm.breakdown.cost != cold.breakdown.cost ||
                             warm.power != cold.power))) {
        r.identical = false;
      }
    }
  }
  r.warm_work += primed_work;  // the chain includes its priming solve
  r.labels = session.stats().labels - labels_base;
  r.phases = session.stats().phases;
  r.phases -= phases_base;
  r.p50_ms = percentile_ms(latencies, 0.50);
  r.p99_ms = percentile_ms(latencies, 0.99);
  return r;
}

void add_result(Table& table, Table& gate, const DayConfig& config,
                const DayResult& r) {
  const double scen_per_sec =
      r.warm_seconds > 0.0
          ? static_cast<double>(config.ticks) / r.warm_seconds
          : 0.0;
  const std::string identical = r.identical ? "yes" : "NO";
  // Phase columns: mean wall milliseconds per warm tick.
  const double per_tick =
      config.ticks > 0 ? 1e3 / static_cast<double>(config.ticks) : 0.0;
  table.add_row({config.label, static_cast<std::int64_t>(config.num_users),
                 static_cast<std::int64_t>(config.ticks),
                 static_cast<std::int64_t>(r.user_deltas),
                 static_cast<std::int64_t>(r.agg_deltas),
                 static_cast<std::int64_t>(r.warm_work),
                 static_cast<std::int64_t>(r.labels), scen_per_sec,
                 r.p50_ms, r.p99_ms, r.phases.plan * per_tick,
                 r.phases.join * per_tick, r.phases.root * per_tick,
                 r.phases.reconstruct * per_tick,
                 r.phases.evaluate * per_tick,
                 static_cast<double>(r.peak_bytes) / 1048576.0, identical});
  gate.add_row({config.label, static_cast<std::int64_t>(config.num_users),
                static_cast<std::int64_t>(config.ticks),
                static_cast<std::int64_t>(r.user_deltas),
                static_cast<std::int64_t>(r.agg_deltas),
                static_cast<std::int64_t>(r.warm_work),
                static_cast<std::int64_t>(r.labels), identical});
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  bench::banner(
      "day serve — a simulated day of diurnal traffic at N=1e5 users",
      "hierarchical aggregation + warm power-sym re-solves per delta "
      "batch; gate: aggregated solves bit-identical to un-aggregated");

  const std::vector<DayConfig> configs = {
      // The exactness gate: small enough to cold-solve the un-aggregated
      // tree every tick alongside the aggregated warm path.
      {"verify_N4k", 60, 4000, 20, /*num_pre_existing=*/10,
       /*verify_against_original=*/true},
      // The headline row: one day at 1e5 users.
      {"day_N1e5",
       static_cast<int>(env_size_t("TREEPLACE_DAY_INTERNAL", 400)),
       env_size_t("TREEPLACE_DAY_USERS", 100000),
       env_size_t("TREEPLACE_DAY_TICKS",
                  scaled<std::size_t>(96, 288)),
       /*num_pre_existing=*/0, /*verify_against_original=*/false},
      // Both rows again on a *sparse* day (a tick touches a handful of
      // users): the warm session's dirty set stays within the delta
      // fast-path gate, so planning skips the per-node signature sweep.
      {"verify_N4k_sparse", 60, 4000, 20, /*num_pre_existing=*/10,
       /*verify_against_original=*/true, /*touch_fraction=*/0.001},
      {"day_N1e5_sparse",
       static_cast<int>(env_size_t("TREEPLACE_DAY_INTERNAL", 400)),
       env_size_t("TREEPLACE_DAY_USERS", 100000),
       env_size_t("TREEPLACE_DAY_TICKS",
                  scaled<std::size_t>(96, 288)),
       /*num_pre_existing=*/0, /*verify_against_original=*/false,
       /*touch_fraction=*/0.0002},
  };

  Table table({"config", "users", "ticks", "user_deltas", "agg_deltas",
               "warm_work", "labels", "scen_per_sec", "p50_ms", "p99_ms",
               "plan_ms", "join_ms", "root_ms", "recon_ms", "eval_ms",
               "peak_mb", "identical"});
  table.set_title("Simulated day over a warm serving session");
  Table gate({"config", "users", "ticks", "user_deltas", "agg_deltas",
              "warm_work", "labels", "identical"});
  gate.set_title("day_serve (deterministic columns)");

  Stopwatch total;
  std::vector<std::string> failures;
  for (const DayConfig& config : configs) {
    const DayResult r = run_day(config);
    if (!r.identical) {
      failures.push_back("config " + config.label +
                         ": aggregated solve diverged from the "
                         "un-aggregated solve");
    }
    add_result(table, gate, config, r);
  }

  bench::emit(table, "day_serve", total.seconds());
  const std::string json_path = bench::out_path("BENCH_day_serve.json");
  gate.save_json(json_path);
  std::cout << "\n(JSON written to " << json_path << ")\n";
  if (!failures.empty()) {
    std::cout << "FAIL:\n";
    for (const std::string& failure : failures) {
      std::cout << "  " << failure << "\n";
    }
    return 1;
  }
  std::cout << "aggregated solves bit-identical\n";
  return 0;
}
