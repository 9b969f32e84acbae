// End-to-end pipeline tests: generate → seed E → solve with every algorithm
// → re-validate everything with the independent evaluator, exactly the flow
// the bench harnesses run at scale.
#include <gtest/gtest.h>

#include "core/dp_update.h"
#include "core/greedy.h"
#include "core/greedy_power.h"
#include "core/heuristics.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "gen/workload.h"
#include "model/placement.h"
#include "tree/io.h"

namespace treeplace {
namespace {

/// The paper's Experiment 1 tree family, scaled down.
Tree make_experiment_tree(std::uint64_t index, std::size_t num_pre) {
  TreeGenConfig config;
  config.num_internal = 40;
  config.shape = kFatShape;
  config.client_probability = 0.5;
  config.min_requests = 1;
  config.max_requests = 6;
  Tree tree = generate_tree(config, 9090, index);
  Xoshiro256 rng = make_rng(9090, index, RngStream::kPreExisting);
  // Single-mode original modes: these trees feed the Eq. 2 cost pipeline.
  assign_random_pre_existing(tree, num_pre, rng, 1);
  return tree;
}

TEST(PipelineTest, CostPipelineOnPaperStyleTrees) {
  for (std::uint64_t i = 0; i < 6; ++i) {
    Tree tree = make_experiment_tree(i, 10);
    const MinCostConfig config{
        .capacity = 10, .create = 0.1, .delete_cost = 0.01};
    const GreedyResult gr = solve_greedy_min_count(tree, config.capacity);
    const MinCostResult dp = solve_min_cost_with_pre(tree, config);
    ASSERT_TRUE(gr.feasible);
    ASSERT_TRUE(dp.feasible);

    const ModeSet single = ModeSet::single(config.capacity);
    EXPECT_TRUE(validate(tree, gr.placement, single).valid);
    EXPECT_TRUE(validate(tree, dp.placement, single).valid);

    // Same (minimum) replica count; DP reuses at least as much.
    EXPECT_EQ(dp.breakdown.servers, static_cast<int>(gr.placement.size()));
    const CostModel costs = CostModel::simple(0.1, 0.01);
    const CostBreakdown gr_cost = evaluate_cost(tree, gr.placement, costs);
    EXPECT_GE(dp.breakdown.reused, gr_cost.reused);
    EXPECT_LE(dp.breakdown.cost, gr_cost.cost + 1e-12);
  }
}

TEST(PipelineTest, PowerPipelineOnPaperStyleTrees) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (std::uint64_t i = 0; i < 4; ++i) {
    TreeGenConfig config;
    config.num_internal = 20;
    config.max_requests = 5;
    Tree tree = generate_tree(config, 8080, i);
    Xoshiro256 rng = make_rng(8080, i, RngStream::kPreExisting);
    assign_random_pre_existing(tree, 4, rng, 2);

    const PowerDPResult dp = solve_power_symmetric(tree, modes, costs);
    const GreedyPowerResult gr = solve_greedy_power(tree, modes, costs);
    ASSERT_TRUE(dp.feasible);

    for (const PowerParetoPoint& p : dp.frontier) {
      EXPECT_TRUE(validate(tree, p.placement, modes).valid);
    }
    // GR's best unbounded candidate is never better than the DP optimum.
    const GreedyPowerCandidate* g = gr.best_within_cost(1e12);
    ASSERT_NE(g, nullptr);
    EXPECT_GE(g->power, dp.min_power()->power - 1e-9);
  }
}

TEST(PipelineTest, DynamicChainKeepsSolutionsValidAcrossSteps) {
  Tree tree = make_experiment_tree(0, 0);
  const MinCostConfig config{
      .capacity = 10, .create = 0.1, .delete_cost = 0.01};
  Placement previous;
  for (std::size_t step = 0; step < 6; ++step) {
    Xoshiro256 rng = make_rng(7070, step, RngStream::kWorkloadUpdate);
    redraw_requests(tree, 1, 6, rng);
    set_pre_existing_from_placement(tree, previous);
    const MinCostResult dp = solve_min_cost_with_pre(tree, config);
    ASSERT_TRUE(dp.feasible) << "step " << step;
    EXPECT_TRUE(validate(tree, dp.placement, ModeSet::single(10)).valid);
    // Reuse never exceeds the previous server count.
    EXPECT_LE(static_cast<std::size_t>(dp.breakdown.reused), previous.size());
    previous = dp.placement;
  }
}

TEST(PipelineTest, SerializationRoundTripPreservesSolverResults) {
  Tree tree = make_experiment_tree(2, 8);
  const Tree reparsed = parse_tree(serialize_tree(tree));
  const MinCostConfig config{
      .capacity = 10, .create = 0.1, .delete_cost = 0.01};
  const MinCostResult a = solve_min_cost_with_pre(tree, config);
  const MinCostResult b = solve_min_cost_with_pre(reparsed, config);
  ASSERT_TRUE(a.feasible && b.feasible);
  EXPECT_NEAR(a.breakdown.cost, b.breakdown.cost, 1e-12);
  EXPECT_EQ(a.placement.nodes(), b.placement.nodes());
}

TEST(PipelineTest, HeuristicsSlotBetweenGreedyAndDp) {
  const CostModel costs = CostModel::simple(0.1, 0.01);
  for (std::uint64_t i = 0; i < 6; ++i) {
    Tree tree = make_experiment_tree(i + 20, 12);
    GreedyResult gr = solve_greedy_min_count(tree, 10);
    ASSERT_TRUE(gr.feasible);
    const double gr_cost = evaluate_cost(tree, gr.placement, costs).cost;
    improve_reuse(tree, 10, costs, gr.placement);
    const double heuristic_cost =
        evaluate_cost(tree, gr.placement, costs).cost;
    const MinCostResult dp =
        solve_min_cost_with_pre(tree, MinCostConfig{
            .capacity = 10, .create = 0.1, .delete_cost = 0.01});
    EXPECT_LE(heuristic_cost, gr_cost + 1e-12);
    EXPECT_GE(heuristic_cost, dp.breakdown.cost - 1e-9);
  }
}

}  // namespace
}  // namespace treeplace
