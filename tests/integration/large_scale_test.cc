// Invariant tests on paper-scale instances, where the exhaustive oracles no
// longer apply: the optimal algorithms must still agree with each other and
// with the independent evaluator.
#include <gtest/gtest.h>

#include "core/dp_update.h"
#include "core/greedy.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "model/placement.h"

namespace treeplace {
namespace {

TEST(LargeScaleTest, GreedyAndDpAgreeOnCountAtExperimentSize) {
  // N = 100 fat trees (the Figure 4 family): min-cost with create/delete < 1
  // must use the greedy's minimum replica count.
  for (std::uint64_t t = 0; t < 10; ++t) {
    TreeGenConfig config;
    config.num_internal = 100;
    config.shape = kFatShape;
    Tree tree = generate_tree(config, 1234, t);
    Xoshiro256 rng = make_rng(1234, t, RngStream::kPreExisting);
    assign_random_pre_existing(tree, 25, rng);

    const GreedyResult gr = solve_greedy_min_count(tree, 10);
    const MinCostResult dp =
        solve_min_cost_with_pre(tree, MinCostConfig{
            .capacity = 10, .create = 0.1, .delete_cost = 0.01});
    ASSERT_TRUE(gr.feasible && dp.feasible);
    EXPECT_EQ(static_cast<int>(gr.placement.size()), dp.breakdown.servers);
    EXPECT_TRUE(validate(tree, dp.placement, ModeSet::single(10)).valid);
  }
}

TEST(LargeScaleTest, DpReuseDominatesGreedyPerTree) {
  const CostModel costs = CostModel::simple(0.1, 0.01);
  for (std::uint64_t t = 0; t < 10; ++t) {
    TreeGenConfig config;
    config.num_internal = 100;
    config.shape = kHighShape;
    Tree tree = generate_tree(config, 4321, t);
    Xoshiro256 rng = make_rng(4321, t, RngStream::kPreExisting);
    assign_random_pre_existing(tree, 40, rng);

    const GreedyResult gr = solve_greedy_min_count(tree, 10);
    const MinCostResult dp =
        solve_min_cost_with_pre(tree, MinCostConfig{
            .capacity = 10, .create = 0.1, .delete_cost = 0.01});
    ASSERT_TRUE(gr.feasible && dp.feasible);
    EXPECT_GE(dp.breakdown.reused,
              evaluate_cost(tree, gr.placement, costs).reused);
  }
}

TEST(LargeScaleTest, PowerFrontierInvariantsAtExperimentSize) {
  // N = 50 (the Figure 8 family): frontier sorted, all points valid, the
  // cheapest point's cost equals the M=1-style cost optimum computed on
  // the same modes.
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (std::uint64_t t = 0; t < 5; ++t) {
    TreeGenConfig config;
    config.num_internal = 50;
    config.client_probability = 0.8;
    config.max_requests = 5;
    Tree tree = generate_tree(config, 5678, t);
    Xoshiro256 rng = make_rng(5678, t, RngStream::kPreExisting);
    assign_random_pre_existing(tree, 5, rng, 2);

    const PowerDPResult dp = solve_power_symmetric(tree, modes, costs);
    ASSERT_TRUE(dp.feasible);
    ASSERT_FALSE(dp.frontier.empty());
    for (std::size_t k = 0; k < dp.frontier.size(); ++k) {
      const PowerParetoPoint& p = dp.frontier[k];
      EXPECT_TRUE(validate(tree, p.placement, modes).valid);
      EXPECT_NEAR(p.power, total_power(p.placement, modes), 1e-9);
      EXPECT_NEAR(p.cost, evaluate_cost(tree, p.placement, costs).cost, 1e-9);
      if (k > 0) {
        EXPECT_GT(p.cost, dp.frontier[k - 1].cost);
        EXPECT_LT(p.power, dp.frontier[k - 1].power);
      }
    }
    // The min-power end uses only mode-0 servers whenever feasible demand
    // splitting allows it — at least, no point may use more power than
    // running every internal node at mode 0.
    const double all_mode0 =
        static_cast<double>(tree.num_internal()) * modes.power(0);
    EXPECT_LE(dp.min_power()->power, all_mode0 + 1e-9);
  }
}

TEST(LargeScaleTest, MemoryBoundedReconstructionMatchesTableCost) {
  // Reconstructed placements re-priced by the independent evaluator must
  // reproduce the DP's claimed optimum exactly, even on deep trees where
  // the decision chain is hundreds of merges long.
  TreeGenConfig config;
  config.num_internal = 300;
  config.shape = kHighShape;  // deep: long reconstruction chains
  Tree tree = generate_tree(config, 8765, 0);
  Xoshiro256 rng = make_rng(8765, 0, RngStream::kPreExisting);
  assign_random_pre_existing(tree, 75, rng);

  const MinCostResult dp =
      solve_min_cost_with_pre(tree, MinCostConfig{
          .capacity = 10, .create = 0.1, .delete_cost = 0.01});
  ASSERT_TRUE(dp.feasible);
  const CostBreakdown check =
      evaluate_cost(tree, dp.placement, CostModel::simple(0.1, 0.01));
  EXPECT_NEAR(dp.breakdown.cost, check.cost, 1e-9);
  EXPECT_TRUE(validate(tree, dp.placement, ModeSet::single(10)).valid);
}

TEST(LargeScaleTest, ThreeModeSymmetricDpAtModerateSize) {
  // M = 3 stresses the mode loops beyond the paper's experiments.
  const ModeSet modes({4, 7, 10}, 5.0, 2.0);
  const CostModel costs = CostModel::uniform(3, 0.1, 0.01, 0.001);
  TreeGenConfig config;
  config.num_internal = 30;
  config.max_requests = 5;
  Tree tree = generate_tree(config, 999, 0);
  Xoshiro256 rng = make_rng(999, 0, RngStream::kPreExisting);
  assign_random_pre_existing(tree, 4, rng, 3);

  const PowerDPResult dp = solve_power_symmetric(tree, modes, costs);
  ASSERT_TRUE(dp.feasible);
  for (const PowerParetoPoint& p : dp.frontier) {
    EXPECT_TRUE(validate(tree, p.placement, modes).valid);
  }
}

}  // namespace
}  // namespace treeplace
