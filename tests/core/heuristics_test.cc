#include "core/heuristics.h"

#include <gtest/gtest.h>

#include "core/dp_update.h"
#include "core/greedy_power.h"
#include "core/power_dp.h"
#include "tests/core/test_instances.h"

namespace treeplace {
namespace {

using testing::make_fig1;
using testing::make_fig2;
using testing::make_random_small;

TEST(GreedyPreferPreTest, SameCountAsPlainGreedy) {
  for (std::uint64_t i = 0; i < 25; ++i) {
    Tree tree = make_random_small(71, i, 12, 1, 6, 4);
    const GreedyResult plain = solve_greedy_min_count(tree, 10);
    const GreedyResult pre = solve_greedy_prefer_pre(tree, 10);
    ASSERT_EQ(plain.feasible, pre.feasible);
    if (plain.feasible) {
      EXPECT_EQ(plain.placement.size(), pre.placement.size()) << "tree " << i;
      EXPECT_TRUE(validate(tree, pre.placement, ModeSet::single(10)).valid);
    }
  }
}

TEST(GreedyPreferPreTest, PicksPreExistingOnTie) {
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  const NodeId a = builder.add_internal(r);
  builder.add_client(a, 6);
  const NodeId b = builder.add_internal(r);
  builder.add_client(b, 6);
  builder.set_pre_existing(b);
  const Tree tree = std::move(builder).build();
  // Plain greedy breaks the 6-6 tie towards the smaller id (a).
  const GreedyResult plain = solve_greedy_min_count(tree, 10);
  ASSERT_TRUE(plain.feasible);
  EXPECT_TRUE(plain.placement.contains(a));
  // The reuse-aware variant picks the pre-existing b instead.
  const GreedyResult pre = solve_greedy_prefer_pre(tree, 10);
  ASSERT_TRUE(pre.feasible);
  EXPECT_TRUE(pre.placement.contains(b));
  EXPECT_EQ(pre.placement.size(), plain.placement.size());
}

TEST(ImproveReuseTest, RecoversFig1Reuse) {
  // GR on Figure 1 (2 root requests) places {A or C, root} with no reuse;
  // local search should swap onto the pre-existing B when profitable.
  const auto f = make_fig1(2);
  GreedyResult gr = solve_greedy_min_count(f.tree, 10);
  ASSERT_TRUE(gr.feasible);
  const CostModel costs = CostModel::simple(0.1, 0.01);
  const double before = evaluate_cost(f.tree, gr.placement, costs).cost;
  improve_reuse(f.tree, 10, costs, gr.placement);
  const double after = evaluate_cost(f.tree, gr.placement, costs).cost;
  EXPECT_LT(after, before);
  EXPECT_TRUE(gr.placement.contains(f.b));
  // Matches the DP optimum on this instance.
  const MinCostResult dp =
      solve_min_cost_with_pre(f.tree, MinCostConfig{
          .capacity = 10, .create = 0.1, .delete_cost = 0.01});
  EXPECT_NEAR(after, dp.breakdown.cost, 1e-9);
}

TEST(ImproveReuseTest, NeverWorsensAndStaysValid) {
  const CostModel costs = CostModel::simple(0.1, 0.01);
  for (std::uint64_t i = 0; i < 20; ++i) {
    Tree tree = make_random_small(82, i, 14, 1, 6, 5);
    GreedyResult gr = solve_greedy_min_count(tree, 10);
    ASSERT_TRUE(gr.feasible);
    const double before = evaluate_cost(tree, gr.placement, costs).cost;
    improve_reuse(tree, 10, costs, gr.placement);
    const double after = evaluate_cost(tree, gr.placement, costs).cost;
    EXPECT_LE(after, before + 1e-12);
    EXPECT_TRUE(validate(tree, gr.placement, ModeSet::single(10)).valid);
  }
}

TEST(ImproveReuseTest, NeverBeatsTheDp) {
  const CostModel costs = CostModel::simple(0.1, 0.01);
  for (std::uint64_t i = 0; i < 20; ++i) {
    Tree tree = make_random_small(93, i, 12, 1, 6, 4);
    GreedyResult gr = solve_greedy_min_count(tree, 10);
    ASSERT_TRUE(gr.feasible);
    improve_reuse(tree, 10, costs, gr.placement);
    const double heuristic = evaluate_cost(tree, gr.placement, costs).cost;
    const MinCostResult dp =
        solve_min_cost_with_pre(tree, MinCostConfig{
            .capacity = 10, .create = 0.1, .delete_cost = 0.01});
    EXPECT_GE(heuristic, dp.breakdown.cost - 1e-9) << "tree " << i;
  }
}

TEST(ImprovePowerTest, ReachesFig2Optimum) {
  const auto f = make_fig2(4);
  const ModeSet modes({7, 10}, 10.0, 2.0);
  const CostModel costs = CostModel::uniform(2, 0.0, 0.0, 0.0);
  // Start from the worst valid solution: a server everywhere.
  Placement p;
  for (NodeId id : f.tree.internal_ids()) p.add(id, 0);
  minimize_modes(f.tree, p, modes);
  improve_power(f.tree, modes, costs, /*cost_bound=*/1e9, p);
  EXPECT_NEAR(total_power(p, modes), 118.0, 1e-9);
}

TEST(ImprovePowerTest, RespectsBudgetAndValidity) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (std::uint64_t i = 0; i < 15; ++i) {
    Tree tree = make_random_small(104, i, 12, 1, 5, 3, 2);
    const GreedyPowerResult gr = solve_greedy_power(tree, modes, costs);
    const GreedyPowerCandidate* start = gr.best_within_cost(40.0);
    ASSERT_NE(start, nullptr);
    Placement p = start->placement;
    const double before = start->power;
    improve_power(tree, modes, costs, 40.0, p);
    EXPECT_TRUE(validate(tree, p, modes).valid);
    EXPECT_LE(evaluate_cost(tree, p, costs).cost, 40.0 + 1e-9);
    EXPECT_LE(total_power(p, modes), before + 1e-12);
  }
}

TEST(ImprovePowerTest, NeverBeatsTheDp) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (std::uint64_t i = 0; i < 10; ++i) {
    Tree tree = make_random_small(115, i, 12, 1, 5, 3, 2);
    const GreedyPowerResult gr = solve_greedy_power(tree, modes, costs);
    const GreedyPowerCandidate* start = gr.best_within_cost(40.0);
    ASSERT_NE(start, nullptr);
    Placement p = start->placement;
    improve_power(tree, modes, costs, 40.0, p);
    const PowerDPResult dp = solve_power_symmetric(tree, modes, costs);
    const PowerParetoPoint* opt = dp.best_within_cost(40.0);
    ASSERT_NE(opt, nullptr);
    EXPECT_GE(total_power(p, modes), opt->power - 1e-9) << "tree " << i;
  }
}

TEST(ImprovePowerTest, InvalidStartThrows) {
  const auto f = make_fig2(4);
  const ModeSet modes({7, 10}, 10.0, 2.0);
  const CostModel costs = CostModel::uniform(2, 0.0, 0.0, 0.0);
  Placement empty;  // serves nobody: invalid start
  EXPECT_THROW(improve_power(f.tree, modes, costs, 1e9, empty), CheckError);
}

}  // namespace
}  // namespace treeplace
