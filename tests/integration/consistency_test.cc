// Cross-solver consistency on a randomized corpus: every optimal algorithm
// must tell the same story wherever their problem statements overlap.
#include <gtest/gtest.h>

#include "core/dp_update.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/power_dp.h"
#include "tests/core/test_instances.h"

namespace treeplace {
namespace {

using testing::make_random_small;

/// MinCost-WithPre via the Section 3 DP vs the M=1 power DP frontier: the
/// cheapest frontier point must carry the same optimal cost.
TEST(ConsistencyTest, CostDpAgreesWithSingleModePowerDp) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Tree tree = make_random_small(515, i, 11, 1, 7, 4);
    for (const auto& [create, del] :
         std::vector<std::pair<double, double>>{
             {0.1, 0.01}, {1.0, 1.0}, {0.0, 0.0}, {0.4, 1.6}}) {
      const MinCostResult cost_dp = solve_min_cost_with_pre(
          tree,
          MinCostConfig{.capacity = 10, .create = create, .delete_cost = del});
      const PowerDPResult power_dp = solve_power_exact(
          tree, ModeSet::single(10), CostModel::simple(create, del));
      ASSERT_EQ(cost_dp.feasible, power_dp.feasible);
      if (!cost_dp.feasible) continue;
      ASSERT_FALSE(power_dp.frontier.empty());
      EXPECT_NEAR(cost_dp.breakdown.cost, power_dp.frontier.front().cost,
                  1e-9)
          << "tree " << i << " create=" << create << " delete=" << del;
    }
  }
}

/// Greedy count == cheapest server count the power DP can achieve when cost
/// is pure server count (create = delete = 0, M = 1).
TEST(ConsistencyTest, GreedyCountAgreesWithPowerDp) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Tree tree = make_random_small(616, i, 12, 1, 7, 0);
    const int greedy = greedy_replica_count(tree, 10);
    const PowerDPResult dp = solve_power_exact(
        tree, ModeSet::single(10), CostModel::simple(0.0, 0.0));
    if (greedy < 0) {
      EXPECT_FALSE(dp.feasible);
      continue;
    }
    ASSERT_TRUE(dp.feasible);
    // cost == R when create = delete = 0.
    EXPECT_NEAR(dp.frontier.front().cost, greedy, 1e-9) << "tree " << i;
  }
}

/// All three frontier producers agree on symmetric instances.
TEST(ConsistencyTest, ThreeWayFrontierAgreement) {
  const ModeSet modes({4, 9}, 1.5, 2.0);
  const CostModel costs = CostModel::uniform(2, 0.2, 0.05, 0.01);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Tree tree = make_random_small(717, i, 7, 1, 8, 3, 2);
    const PowerDPResult exact = solve_power_exact(tree, modes, costs);
    const PowerDPResult sym = solve_power_symmetric(tree, modes, costs);
    const auto oracle = exhaustive_cost_power_frontier(tree, modes, costs);
    ASSERT_EQ(exact.feasible, sym.feasible);
    ASSERT_EQ(exact.feasible, !oracle.empty());
    if (!exact.feasible) continue;
    ASSERT_EQ(exact.frontier.size(), oracle.size()) << "tree " << i;
    ASSERT_EQ(sym.frontier.size(), oracle.size()) << "tree " << i;
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      EXPECT_NEAR(exact.frontier[k].cost, oracle[k].cost, 1e-9);
      EXPECT_NEAR(sym.frontier[k].power, oracle[k].power, 1e-9);
    }
  }
}

/// Monotonicity across problem relaxations: more pre-existing servers can
/// only lower the optimal cost (reuse is free capacity), and a larger W can
/// only lower the replica count.
TEST(ConsistencyTest, RelaxationsNeverHurt) {
  for (std::uint64_t i = 0; i < 15; ++i) {
    Tree tree = make_random_small(818, i, 12, 1, 7, 0);
    // delete cost 0 isolates reuse
    const MinCostConfig config{
        .capacity = 10, .create = 0.1, .delete_cost = 0.0};
    const MinCostResult none = solve_min_cost_with_pre(tree, config);
    ASSERT_TRUE(none.feasible);

    Xoshiro256 rng(derive_seed(818, i));
    assign_random_pre_existing(tree, 6, rng, 1);
    const MinCostResult some = solve_min_cost_with_pre(tree, config);
    ASSERT_TRUE(some.feasible);
    EXPECT_LE(some.breakdown.cost, none.breakdown.cost + 1e-9) << "tree " << i;

    const int count10 = greedy_replica_count(tree, 10);
    const int count20 = greedy_replica_count(tree, 20);
    ASSERT_GT(count10, 0);
    EXPECT_LE(count20, count10);
  }
}

}  // namespace
}  // namespace treeplace
