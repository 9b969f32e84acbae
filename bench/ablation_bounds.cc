// Ablation A: how much do the subtree-size-bounded DP tables save over the
// paper's unbounded O(N·(N-E+1)²·(E+1)²) loop structure?
//
// We count the merge-loop iterations the bounded implementation actually
// executes and compare with the iteration count the paper's pseudo-code
// (Algorithm 3, full-range loops at every node) would perform.
#include "bench/bench_util.h"
#include "core/dp_update.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"

using namespace treeplace;

int main() {
  bench::banner("Ablation A — bounded vs unbounded DP table ranges",
                "iterations executed vs the paper's worst-case loop count");

  Stopwatch total;
  Table table({"shape", "N", "E", "bounded_iters", "paper_iters", "speedup"});
  table.set_title("MinCost-WithPre merge-loop iteration counts");

  const std::size_t trees = env_size_t("TREEPLACE_TREES", 5);
  for (const auto& [shape_name, shape] :
       std::vector<std::pair<std::string, TreeShape>>{{"fat", kFatShape},
                                                      {"high", kHighShape}}) {
    for (const int n : {50, 100, 200}) {
      for (const int e : {0, n / 10, n / 4, n / 2}) {
        double bounded = 0;
        for (std::uint64_t t = 0; t < trees; ++t) {
          TreeGenConfig config;
          config.num_internal = n;
          config.shape = shape;
          Tree tree = generate_tree(config, 77 + t, t);
          Xoshiro256 rng = make_rng(77, t, RngStream::kPreExisting);
          assign_random_pre_existing(tree, static_cast<std::size_t>(e), rng);
          const MinCostResult r =
              solve_min_cost_with_pre(tree, MinCostConfig{
                  .capacity = 10, .create = 0.1, .delete_cost = 0.01});
          TREEPLACE_CHECK(r.feasible);
          bounded += static_cast<double>(r.merge_iterations);
        }
        bounded /= static_cast<double>(trees);
        // Paper Algorithm 3: every one of the N merge calls loops over the
        // full (e, n, e', n') ranges.
        const double paper = static_cast<double>(n) *
                             static_cast<double>(n - e + 1) *
                             static_cast<double>(n - e + 1) *
                             static_cast<double>(e + 1) *
                             static_cast<double>(e + 1);
        table.add_row({shape_name, static_cast<std::int64_t>(n),
                       static_cast<std::int64_t>(e), bounded, paper,
                       paper / std::max(1.0, bounded)});
      }
    }
  }
  bench::emit(table, "ablation_bounds", total.seconds());
  return 0;
}
