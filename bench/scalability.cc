// Scalability check for the paper's Section 5 runtime claims (on 2008
// hardware): cost DP — 500 nodes / 125 pre-existing in ~30 min; power DP
// without pre-existing — 300 nodes in ~1 h; power DP with pre-existing —
// 70 nodes / 10 pre-existing in ~1 h.  We measure the same configurations
// (scaled down by default; TREEPLACE_SCALE=paper runs the full sizes) on
// our bounded-table implementation.
#include "bench/bench_util.h"
#include "core/dp_update.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"

using namespace treeplace;

namespace {

Tree make_tree(int n, std::size_t num_pre, int num_modes, std::uint64_t seed,
               RequestCount max_requests) {
  TreeGenConfig config;
  config.num_internal = n;
  config.shape = kFatShape;
  config.client_probability = 0.5;
  config.min_requests = 1;
  config.max_requests = max_requests;
  Tree tree = generate_tree(config, seed, 0);
  Xoshiro256 rng = make_rng(seed, 0, RngStream::kPreExisting);
  assign_random_pre_existing(tree, num_pre, rng, num_modes);
  return tree;
}

}  // namespace

int main() {
  bench::banner("Scalability — single-tree DP wall-clock vs instance size",
                "paper claims (2008 Xeon): cost DP 500/125 ≈ 30 min; power "
                "DP no-pre 300 ≈ 1 h; power DP 70/10 ≈ 1 h");
  Stopwatch total;
  Table table({"solver", "N", "E", "modes", "seconds", "merge_pairs"});
  table.set_title("Per-instance solve times (bounded-table implementation)");

  // --- Cost DP (MinCost-WithPre), E = N/4 like the paper's 500/125.
  for (int n : bench_scale() == BenchScale::kPaper
                   ? std::vector<int>{100, 200, 300, 500}
                   : std::vector<int>{100, 200, 300}) {
    Tree tree = make_tree(n, static_cast<std::size_t>(n / 4), 1, 51, 6);
    Stopwatch watch;
    const MinCostResult r =
        solve_min_cost_with_pre(tree, MinCostConfig{
            .capacity = 10, .create = 0.1, .delete_cost = 0.01});
    TREEPLACE_CHECK(r.feasible);
    table.add_row({std::string("cost DP"), static_cast<std::int64_t>(n),
                   static_cast<std::int64_t>(n / 4), std::int64_t{1},
                   watch.seconds(),
                   static_cast<std::int64_t>(r.merge_iterations)});
  }

  // --- Power DP without pre-existing servers (paper: 300 nodes).
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (int n : bench_scale() == BenchScale::kPaper
                   ? std::vector<int>{50, 100, 200, 300}
                   : std::vector<int>{50, 100, 150}) {
    Tree tree = make_tree(n, 0, 2, 52, 5);
    Stopwatch watch;
    const PowerDPResult r = solve_power_symmetric(tree, modes, costs);
    TREEPLACE_CHECK(r.feasible);
    table.add_row({std::string("power DP (sym, no pre)"),
                   static_cast<std::int64_t>(n), std::int64_t{0},
                   std::int64_t{2}, watch.seconds(),
                   static_cast<std::int64_t>(r.stats.merge_pairs)});
  }

  // --- Power DP with pre-existing servers (paper: 70 nodes, 10 pre).
  for (int n : bench_scale() == BenchScale::kPaper
                   ? std::vector<int>{30, 50, 70}
                   : std::vector<int>{30, 50, 70}) {
    Tree tree = make_tree(n, 10, 2, 53, 5);
    Stopwatch watch;
    const PowerDPResult r = solve_power_symmetric(tree, modes, costs);
    TREEPLACE_CHECK(r.feasible);
    table.add_row({std::string("power DP (sym, with pre)"),
                   static_cast<std::int64_t>(n), std::int64_t{10},
                   std::int64_t{2}, watch.seconds(),
                   static_cast<std::int64_t>(r.stats.merge_pairs)});
  }

  // --- Exact (general-cost) power DP, the paper's O(N^{2M²+2M+1}) scheme.
  for (int n : std::vector<int>{20, 30, 40}) {
    Tree tree = make_tree(n, 5, 2, 54, 5);
    Stopwatch watch;
    const PowerDPResult r = solve_power_exact(tree, modes, costs);
    TREEPLACE_CHECK(r.feasible);
    table.add_row({std::string("power DP (exact, with pre)"),
                   static_cast<std::int64_t>(n), std::int64_t{5},
                   std::int64_t{2}, watch.seconds(),
                   static_cast<std::int64_t>(r.stats.merge_pairs)});
  }

  bench::emit(table, "scalability", total.seconds());
  return 0;
}
