// Ablation C: the Section-6 "future work" heuristics against the optimal
// DPs — solution-quality gap and speedup.  This is the trade-off the paper
// anticipates: "with frequent updates or low-cost servers, we may prefer to
// resort to faster (but sub-optimal) update heuristics."
#include <cmath>

#include "bench/bench_util.h"
#include "core/dp_update.h"
#include "core/greedy.h"
#include "core/greedy_power.h"
#include "core/heuristics.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "support/stats.h"

using namespace treeplace;

int main() {
  bench::banner("Ablation C — heuristics vs optimal DPs",
                "cost/power gap and speedup of the future-work heuristics");

  Stopwatch total;
  const std::size_t trees = env_size_t("TREEPLACE_TREES",
                                       scaled<std::size_t>(20, 100));

  // --- Reuse heuristics vs the cost DP (Experiment-1-style trees).
  {
    RunningStats gr_gap, tie_gap, ls_gap, dp_time, heuristic_time;
    const CostModel costs = CostModel::simple(0.1, 0.01);
    for (std::uint64_t t = 0; t < trees; ++t) {
      TreeGenConfig config;
      config.num_internal = 100;
      config.shape = kFatShape;
      Tree tree = generate_tree(config, 99, t);
      Xoshiro256 rng = make_rng(99, t, RngStream::kPreExisting);
      assign_random_pre_existing(tree, 30, rng);

      Stopwatch dp_watch;
      const MinCostResult dp =
          solve_min_cost_with_pre(tree, MinCostConfig{
              .capacity = 10, .create = 0.1, .delete_cost = 0.01});
      dp_time.add(dp_watch.seconds());
      TREEPLACE_CHECK(dp.feasible);

      Stopwatch h_watch;
      const GreedyResult gr = solve_greedy_min_count(tree, 10);
      const GreedyResult tie = solve_greedy_prefer_pre(tree, 10);
      GreedyResult ls = tie;
      improve_reuse(tree, 10, costs, ls.placement);
      heuristic_time.add(h_watch.seconds());

      const double opt = dp.breakdown.cost;
      gr_gap.add(evaluate_cost(tree, gr.placement, costs).cost - opt);
      tie_gap.add(evaluate_cost(tree, tie.placement, costs).cost - opt);
      ls_gap.add(evaluate_cost(tree, ls.placement, costs).cost - opt);
    }
    Table table({"method", "mean_cost_gap_vs_DP", "max_gap", "chain_seconds"});
    table.set_title("Reuse heuristics (N=100, E=30, " +
                    std::to_string(trees) + " trees)");
    table.add_row({std::string("GR (plain)"), gr_gap.mean(), gr_gap.max(),
                   heuristic_time.mean()});
    table.add_row({std::string("GR + pre-aware ties"), tie_gap.mean(),
                   tie_gap.max(), heuristic_time.mean()});
    table.add_row({std::string("GR + ties + local search"), ls_gap.mean(),
                   ls_gap.max(), heuristic_time.mean()});
    table.add_row({std::string("update DP (optimal)"), 0.0, 0.0,
                   dp_time.mean()});
    bench::emit(table, "ablation_heuristics_cost", total.seconds());
  }

  // --- Power local search vs the power DP (Experiment-3-style trees).
  {
    RunningStats gr_ratio, ls_ratio, dp_time, ls_time;
    const ModeSet modes({5, 10}, 12.5, 3.0);
    const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
    const double bound = 33.0;
    for (std::uint64_t t = 0; t < trees; ++t) {
      TreeGenConfig config;
      config.num_internal = 50;
      config.shape = kFatShape;
      config.client_probability = 0.8;  // Figure 8 calibration
      config.max_requests = 5;
      Tree tree = generate_tree(config, 111, t);
      Xoshiro256 rng = make_rng(111, t, RngStream::kPreExisting);
      assign_random_pre_existing(tree, 5, rng, 2);

      Stopwatch dp_watch;
      const PowerDPResult dp = solve_power_symmetric(tree, modes, costs);
      dp_time.add(dp_watch.seconds());
      const PowerParetoPoint* opt = dp.best_within_cost(bound);
      if (opt == nullptr) continue;

      Stopwatch ls_watch;
      const GreedyPowerResult gr = solve_greedy_power(tree, modes, costs);
      const GreedyPowerCandidate* start = gr.best_within_cost(bound);
      if (start == nullptr) continue;
      Placement improved = start->placement;
      improve_power(tree, modes, costs, bound, improved);
      ls_time.add(ls_watch.seconds());

      gr_ratio.add(start->power / opt->power);
      ls_ratio.add(total_power(improved, modes) / opt->power);
    }
    Table table({"method", "mean_power_ratio_vs_DP", "max_ratio",
                 "mean_seconds"});
    table.set_title("Power heuristics (N=50, E=5, cost bound 33, " +
                    std::to_string(trees) + " trees)");
    table.add_row({std::string("GR capacity sweep"), gr_ratio.mean(),
                   gr_ratio.max(), ls_time.mean()});
    table.add_row({std::string("GR + power local search"), ls_ratio.mean(),
                   ls_ratio.max(), ls_time.mean()});
    table.add_row({std::string("power DP (optimal)"), 1.0, 1.0,
                   dp_time.mean()});
    bench::emit(table, "ablation_heuristics_power", total.seconds());
  }
  return 0;
}
