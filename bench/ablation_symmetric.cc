// Ablation B: the symmetric-cost reduced-state power DP vs the exact
// general-cost DP — identical frontiers, smaller label tables.  This quantifies why Figures 8-11 run the symmetric solver.
#include <cmath>

#include "bench/bench_util.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"

using namespace treeplace;

int main() {
  bench::banner("Ablation B — exact vs symmetric-cost power DP",
                "same frontier, reduced state space (M + M² -> M + 2 dims)");

  Stopwatch total;
  Table table({"N", "E", "exact_s", "sym_s", "speedup", "exact_labels",
               "sym_labels", "frontier_equal"});
  table.set_title("Per-tree solve comparison (modes {5,10}, paper costs)");

  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (const auto& [n, e] : std::vector<std::pair<int, std::size_t>>{
           {15, 3}, {20, 5}, {30, 5}, {40, 5}, {40, 10}}) {
    TreeGenConfig config;
    config.num_internal = n;
    config.shape = kFatShape;
    config.max_requests = 5;
    Tree tree = generate_tree(config, 88, static_cast<std::uint64_t>(n));
    Xoshiro256 rng = make_rng(88, static_cast<std::uint64_t>(n),
                              RngStream::kPreExisting);
    assign_random_pre_existing(tree, e, rng, 2);

    Stopwatch exact_watch;
    const PowerDPResult exact = solve_power_exact(tree, modes, costs);
    const double exact_s = exact_watch.seconds();
    Stopwatch sym_watch;
    const PowerDPResult sym = solve_power_symmetric(tree, modes, costs);
    const double sym_s = sym_watch.seconds();

    bool equal = exact.frontier.size() == sym.frontier.size();
    for (std::size_t k = 0; equal && k < exact.frontier.size(); ++k) {
      equal = std::fabs(exact.frontier[k].cost - sym.frontier[k].cost) < 1e-9 &&
              std::fabs(exact.frontier[k].power - sym.frontier[k].power) <
                  1e-9;
    }
    table.add_row({static_cast<std::int64_t>(n), static_cast<std::int64_t>(e),
                   exact_s, sym_s, exact_s / std::max(1e-9, sym_s),
                   static_cast<std::int64_t>(exact.stats.labels),
                   static_cast<std::int64_t>(sym.stats.labels),
                   std::string(equal ? "yes" : "NO — BUG")});
  }
  bench::emit(table, "ablation_symmetric", total.seconds());
  return 0;
}
