// Warm vs. cold re-solves by delta size: the incremental-solve acceptance
// harness.
//
// For each incremental engine (power-sym, update-dp) and each delta size
// (1 client, 1% of clients, 10% of clients touched per step), a chain of
// scenario steps is solved twice: cold (a fresh solve per step) and warm
// (through one persistent SolveSession).  Every warm solve is checked
// bit-identical to its cold twin — placements, costs, frontier — and the
// table reports the DP work-counter ratio (merge pairs for the power DP,
// inner-loop iterations for the MinCost DP) plus wall-clock speedup.  The
// work ratio is the hardware-independent signal: a single-client delta
// must recompute only the touched root path, so warm work collapses to a
// small fraction of cold work even on one core.
//
// The JSON written for the CI bench-diff gate contains only deterministic
// columns (work counters — labels is the power engines' label count,
// PowerSolveStats::labels, so a pruning regression fails the gate — node
// reuse counts, identity flags); timings stay
// in the CSV/stdout, including the warm solves' phase split (plan, join,
// root, reconstruct, evaluate — summed PowerPhaseSeconds, power engines
// only).  Knobs: TREEPLACE_WARM_STEPS overrides the steps per
// configuration, --out DIR / TREEPLACE_BENCH_DIR route file output.
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/prng.h"
#include "tree/scenario_delta.h"

using namespace treeplace;

namespace {

struct Config {
  std::string algo;
  int num_internal = 0;
  bool single_mode = false;
  /// > 0: a wide star (one root, `star_fanout` internal arms, one client
  /// per arm) instead of a generated tree — the high-fanout shape where
  /// the balanced merge tree cuts a single-client redo from O(k) chain
  /// merges to O(log k) slots.
  int star_fanout = 0;
  /// Near-tie pricing: modes {4, 8} at power W and changed_same ==
  /// changed_diff, so distinct count vectors share real costs and powers
  /// and only the tie-breaks pick the witness placements.
  bool near_tie = false;
};

struct DeltaSize {
  std::string label;
  std::size_t clients_touched = 0;  // resolved against the actual tree
};

Tree make_bench_tree(const Config& config) {
  if (config.star_fanout > 0) {
    TreeBuilder builder;
    const NodeId root = builder.add_root();
    for (int i = 0; i < config.star_fanout; ++i) {
      const NodeId arm = builder.add_internal(root);
      builder.add_client(arm, /*requests=*/1 + (i % 4));
    }
    return std::move(builder).build();
  }
  TreeGenConfig gen;
  gen.num_internal = config.num_internal;
  gen.shape = TreeShape{2, 4};
  gen.client_probability = 0.8;
  gen.min_requests = 1;
  gen.max_requests = 5;
  Tree tree = generate_tree(gen, /*seed=*/4011, /*index=*/0);
  Xoshiro256 pre_rng = make_rng(4011, 0, RngStream::kPreExisting);
  assign_random_pre_existing(tree, config.num_internal / 4, pre_rng,
                             /*num_modes=*/config.single_mode ? 1 : 2);
  return tree;
}

Instance make_instance(const Config& config, const Tree& tree) {
  if (config.single_mode) {
    return Instance::single_mode(tree.topology_ptr(), tree.scenario(), 10,
                                 0.1, 0.01);
  }
  if (config.near_tie) {
    return Instance{tree.topology_ptr(), tree.scenario(),
                    ModeSet({4, 8}, 0.0, 1.0),
                    CostModel::uniform(2, 0.7, 0.3, 0.1, 0.1), std::nullopt};
  }
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  return Instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                  std::nullopt};
}

/// Empty when identical; otherwise names the first diverging field so a
/// baseline refresh (or a real warm-start bug) is debuggable from the
/// failure output alone.
std::string solution_divergence(const Solution& warm, const Solution& cold) {
  if (warm.feasible != cold.feasible) return "feasible flag";
  if (!(warm.placement == cold.placement)) return "selected placement";
  if (warm.frontier.size() != cold.frontier.size()) {
    return "frontier size " + std::to_string(warm.frontier.size()) + " vs " +
           std::to_string(cold.frontier.size());
  }
  for (std::size_t i = 0; i < cold.frontier.size(); ++i) {
    if (warm.frontier[i].cost != cold.frontier[i].cost ||
        warm.frontier[i].power != cold.frontier[i].power) {
      return "frontier[" + std::to_string(i) + "] values";
    }
    if (!(warm.frontier[i].placement == cold.frontier[i].placement)) {
      return "frontier[" + std::to_string(i) + "] placement";
    }
  }
  if (cold.feasible && (warm.breakdown.cost != cold.breakdown.cost ||
                        warm.power != cold.power)) {
    return "cost/power accounting";
  }
  return "";
}

struct ChainResult {
  std::uint64_t cold_work = 0;
  std::uint64_t warm_work = 0;
  std::uint64_t nodes_recomputed = 0;
  std::uint64_t nodes_reused = 0;
  std::uint64_t cells_skipped = 0;
  std::uint64_t labels = 0;  ///< power engines' labels, warm solves
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  PowerPhaseSeconds warm_phases;  ///< summed over the chain's warm solves
  bool identical = true;
  std::string divergence;  ///< first diverging step/field when !identical
};

/// Runs one delta chain: per step, touch `clients_touched` random clients,
/// then solve cold and warm and compare.
ChainResult run_chain(const Config& config, const DeltaSize& delta,
                      std::size_t steps) {
  Tree tree = make_bench_tree(config);
  const auto cold_solver = make_solver(config.algo);
  const auto warm_solver = make_solver(config.algo);
  SolveSession session(tree.topology_ptr());

  // Fill the session once so every measured step is a true warm re-solve
  // (the serving loop's tree record plays the same role).
  warm_solver->solve(SolveRequest{make_instance(config, tree), {}, &session});
  const SolveSession::Stats primed = session.stats();

  ChainResult r;
  Xoshiro256 rng = make_rng(4012, config.num_internal + config.star_fanout,
                            RngStream::kWorkloadUpdate);
  const auto& clients = tree.client_ids();
  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<ScenarioDelta> deltas;
    deltas.reserve(delta.clients_touched);
    for (std::size_t k = 0; k < delta.clients_touched; ++k) {
      deltas.push_back(ScenarioDelta::set_requests(
          clients[rng.uniform(0, clients.size() - 1)], rng.uniform(1, 5)));
    }
    for (const ScenarioDelta& d : deltas) apply_delta(tree.scenario(), d);
    const Instance instance = make_instance(config, tree);

    Stopwatch cold_watch;
    const Solution cold = cold_solver->solve(instance);
    r.cold_seconds += cold_watch.seconds();

    Stopwatch warm_watch;
    const Solution warm =
        warm_solver->solve(SolveRequest{instance, deltas, &session});
    r.warm_seconds += warm_watch.seconds();

    r.cold_work += cold.stats.work;
    r.warm_work += warm.stats.work;
    if (r.identical) {
      const std::string divergence = solution_divergence(warm, cold);
      if (!divergence.empty()) {
        r.identical = false;
        r.divergence = "step " + std::to_string(step) + ": " + divergence;
      }
    }
  }
  const SolveSession::Stats stats = session.stats();
  r.nodes_recomputed = stats.nodes_recomputed - primed.nodes_recomputed;
  r.nodes_reused = stats.nodes_reused - primed.nodes_reused;
  r.cells_skipped = stats.cells_skipped - primed.cells_skipped;
  r.labels = stats.labels - primed.labels;
  r.warm_phases = stats.phases;
  r.warm_phases -= primed.phases;
  return r;
}

/// Emits one chain's rows: the full row into the human table, the
/// deterministic columns into the CI-gated JSON table (one place, so the
/// two halves of the baseline can never drift apart).
void add_result(Table& table, Table& gate, const std::string& algo,
                const std::string& label, std::size_t steps,
                const ChainResult& r) {
  const double ratio = r.cold_work > 0
                           ? static_cast<double>(r.warm_work) /
                                 static_cast<double>(r.cold_work)
                           : 0.0;
  const double speedup =
      r.warm_seconds > 0.0 ? r.cold_seconds / r.warm_seconds : 0.0;
  const std::string identical = r.identical ? "yes" : "NO";
  const PowerPhaseSeconds& ph = r.warm_phases;
  table.add_row({algo, label, static_cast<std::int64_t>(steps),
                 static_cast<std::int64_t>(r.cold_work),
                 static_cast<std::int64_t>(r.warm_work), ratio,
                 static_cast<std::int64_t>(r.nodes_recomputed),
                 static_cast<std::int64_t>(r.nodes_reused),
                 static_cast<std::int64_t>(r.cells_skipped),
                 static_cast<std::int64_t>(r.labels), r.cold_seconds,
                 r.warm_seconds, speedup, ph.plan * 1e3, ph.join * 1e3,
                 ph.root * 1e3, ph.reconstruct * 1e3, ph.evaluate * 1e3,
                 identical});
  gate.add_row({algo, label, static_cast<std::int64_t>(steps),
                static_cast<std::int64_t>(r.cold_work),
                static_cast<std::int64_t>(r.warm_work),
                static_cast<std::int64_t>(r.nodes_recomputed),
                static_cast<std::int64_t>(r.nodes_reused),
                static_cast<std::int64_t>(r.cells_skipped),
                static_cast<std::int64_t>(r.labels), identical});
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  bench::banner(
      "warm start — incremental re-solve vs. cold solve by delta size",
      "persistent SolveSession chains; warm results must be bit-identical "
      "to cold solves, warm DP work must shrink with the delta size");

  const std::size_t steps = env_size_t("TREEPLACE_WARM_STEPS", 16);
  const std::vector<Config> configs = {
      {"power-sym", 40, false},
      {"update-dp", 60, true},
  };

  Table table({"solver", "instance", "steps", "cold_work", "warm_work",
               "work_ratio", "nodes_recomputed", "nodes_reused",
               "cells_skipped", "labels", "cold_s", "warm_s", "speedup",
               "plan_ms",
               "join_ms", "root_ms", "recon_ms", "eval_ms", "identical"});
  table.set_title("Warm vs. cold re-solves (" + std::to_string(steps) +
                  " delta steps per row)");
  Table gate({"solver", "instance", "steps", "cold_work", "warm_work",
              "nodes_recomputed", "nodes_reused", "cells_skipped",
              "labels", "identical"});
  gate.set_title("warm_start (deterministic columns)");

  Stopwatch total;
  std::vector<std::string> failures;
  const auto run_row = [&](const Config& config, const DeltaSize& delta) {
    const ChainResult r = run_chain(config, delta, steps);
    if (!r.identical) {
      failures.push_back("row (" + config.algo + ", " + delta.label +
                         ") diverged at " + r.divergence);
    }
    add_result(table, gate, config.algo, delta.label, steps, r);
  };

  for (const Config& config : configs) {
    const std::size_t num_clients =
        make_bench_tree(config).client_ids().size();
    const std::vector<DeltaSize> sizes = {
        {"delta_1", 1},
        {"delta_1pct", std::max<std::size_t>(1, num_clients / 100)},
        {"delta_10pct", std::max<std::size_t>(1, num_clients / 10)},
    };
    for (const DeltaSize& delta : sizes) run_row(config, delta);
  }

  // Asymptotics: the single-client-delta work ratio falls as trees grow —
  // a delta dirties one root path, and the clean sibling subtrees it
  // skips are a growing share of the total DP work.  update-dp's near-
  // uniform per-node tables show the effect most cleanly.  The 480-node
  // row is the large-N regime the aggregation path serves (a 10^5-user
  // skew tree collapses to a few hundred aggregate clients).
  for (const int n : {30, 60, 120, 240, 480}) {
    const Config config{"update-dp", n, true};
    run_row(config, DeltaSize{"delta_1_N" + std::to_string(n), 1});
  }

  // High fanout: wide stars, where the balanced merge tree collapses a
  // single-arm redo from the old chain's O(k) suffix merges to O(log k)
  // slots — the gated evidence for the merge-tree refactor.
  for (const int fanout : {32, 96}) {
    const Config config{"power-sym", 0, false, fanout};
    run_row(config, DeltaSize{"star" + std::to_string(fanout) + "_delta_1",
                              1});
  }
  run_row(Config{"update-dp", 0, true, 96},
          DeltaSize{"star96_delta_1", 1});

  // Bursty batches: 8 arms of the 96-star dirty in ONE batch.  For
  // update-dp the rolling changed-cell footprint (dp::RollingDiffBudget)
  // keeps the root-path joins lazy across the whole burst where a per-slot
  // ratio bail would fall back to full joins — the cells_skipped column
  // pins the spliced volume alongside the usual identity/work gates.
  run_row(Config{"power-sym", 0, false, 96}, DeltaSize{"star96_burst8", 8});
  run_row(Config{"update-dp", 0, true, 96}, DeltaSize{"star96_burst8", 8});

  // Witness ties: under near-tie pricing many frontier points have
  // several optimal placements with bit-identical (cost, power), and the
  // Pareto root join must pick the same witness the full root table's
  // min-flow, first-occurrence winner did — the identical column checks
  // every placement against the cold solve, each re-priced by the
  // evaluator.
  for (const int n : {40, 60}) {
    run_row(Config{"power-sym", n, false, 0, /*near_tie=*/true},
            DeltaSize{"near_tie_N" + std::to_string(n), 2});
  }

  // The exact-key engine's warm path: the same two-mode tree shape, small
  // enough for the full (n_w, e_{o,w}) count vector, pinning its counters
  // next to the reduced-key rows above.
  run_row(Config{"power-exact", 16, false}, DeltaSize{"delta_1", 1});

  bench::emit(table, "warm_start", total.seconds());
  const std::string json_path = bench::out_path("BENCH_warm_start.json");
  gate.save_json(json_path);
  std::cout << "\n(JSON written to " << json_path << ")\n";
  if (!failures.empty()) {
    std::cout << "FAIL: warm solves diverged from cold solves\n";
    for (const std::string& failure : failures) {
      std::cout << "  " << failure << "\n";
    }
    return 1;
  }
  std::cout << "all warm re-solves bit-identical to cold solves\n";
  return 0;
}
