// google-benchmark microbenchmarks of the library's kernels: tree
// generation, closest-policy flow routing, the greedy, and all three DPs.
#include <benchmark/benchmark.h>

#include "core/dp_update.h"
#include "core/greedy.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "model/placement.h"

namespace treeplace {
namespace {

Tree bench_tree(int n, std::size_t num_pre, int num_modes,
                RequestCount max_requests = 6) {
  TreeGenConfig config;
  config.num_internal = n;
  config.shape = kFatShape;
  config.max_requests = max_requests;
  Tree tree = generate_tree(config, 7, 0);
  Xoshiro256 rng = make_rng(7, 0, RngStream::kPreExisting);
  assign_random_pre_existing(tree, num_pre, rng, num_modes);
  return tree;
}

void BM_TreeGeneration(benchmark::State& state) {
  TreeGenConfig config;
  config.num_internal = static_cast<int>(state.range(0));
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_tree(config, 7, index++));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TreeGeneration)->Arg(100)->Arg(1000)->Arg(10000)->Complexity();

void BM_ComputeFlows(benchmark::State& state) {
  const Tree tree = bench_tree(static_cast<int>(state.range(0)), 0, 1);
  Placement placement;
  int i = 0;
  for (NodeId id : tree.internal_ids()) {
    if (i++ % 3 == 0) placement.add(id, 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_flows(tree, placement));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ComputeFlows)->Arg(100)->Arg(1000)->Arg(10000)->Complexity();

void BM_Greedy(benchmark::State& state) {
  const Tree tree = bench_tree(static_cast<int>(state.range(0)), 0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_greedy_min_count(tree, 10));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Greedy)->Arg(100)->Arg(1000)->Arg(10000)->Complexity();

void BM_CostDp(benchmark::State& state) {
  const Tree tree = bench_tree(static_cast<int>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)), 1);
  const MinCostConfig config{
      .capacity = 10, .create = 0.1, .delete_cost = 0.01};
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_min_cost_with_pre(tree, config));
  }
}
BENCHMARK(BM_CostDp)
    ->Args({50, 0})
    ->Args({50, 12})
    ->Args({100, 0})
    ->Args({100, 25})
    ->Args({200, 50});

void BM_PowerDpSymmetric(benchmark::State& state) {
  const Tree tree = bench_tree(static_cast<int>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)), 2, 5);
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_power_symmetric(tree, modes, costs));
  }
}
BENCHMARK(BM_PowerDpSymmetric)->Args({30, 0})->Args({30, 5})->Args({50, 5});

void BM_PowerDpExact(benchmark::State& state) {
  const Tree tree = bench_tree(static_cast<int>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)), 2, 5);
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_power_exact(tree, modes, costs));
  }
}
BENCHMARK(BM_PowerDpExact)->Args({20, 3})->Args({30, 5});

void BM_EvaluateCost(benchmark::State& state) {
  Tree tree = bench_tree(200, 50, 1);
  const GreedyResult gr = solve_greedy_min_count(tree, 10);
  const CostModel costs = CostModel::simple(0.1, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_cost(tree, gr.placement, costs));
  }
}
BENCHMARK(BM_EvaluateCost);

}  // namespace
}  // namespace treeplace

BENCHMARK_MAIN();
