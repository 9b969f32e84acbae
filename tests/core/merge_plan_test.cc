// The balanced child-merge tree (dp::MergePlan) and the DP engines wired
// through it.
//
// Three layers of coverage:
//   * structural properties of the plan itself — slot counts, execution
//     order, contiguous leaf ranges, and the O(log k) root-path depth that
//     warm re-solves rely on;
//   * randomized equivalence fuzz over trees of varying fanout (including
//     wide stars): the merge-tree DPs must reproduce the exhaustive
//     oracles' optimal values and frontiers, and power-exact/power-sym
//     must agree with each other — the merge *order* changed relative to
//     the paper's left-deep chain, the *values* must not;
//   * work-counter sanity: a cold solve builds exactly 2k-1 merge-plan
//     slots per node with k internal children, on all three engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/dp_update.h"
#include "core/dp_util.h"
#include "core/exhaustive.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "support/prng.h"
#include "tests/support/test_math.h"

namespace treeplace {
namespace {

using test::ceil_log2;

TEST(MergePlanTest, StructureAndDepth) {
  for (std::uint32_t k = 0; k <= 64; ++k) {
    const dp::MergePlan plan(k);
    ASSERT_EQ(plan.num_leaves(), k);
    if (k == 0) {
      EXPECT_TRUE(plan.steps().empty());
      continue;
    }
    ASSERT_EQ(plan.num_slots(), 2 * k - 1);
    ASSERT_EQ(plan.steps().size(), k - 1);
    EXPECT_EQ(plan.root_slot(), 2 * k - 2);

    std::vector<std::pair<std::uint32_t, std::uint32_t>> range(
        plan.num_slots());
    for (std::uint32_t leaf = 0; leaf < k; ++leaf) range[leaf] = {leaf, leaf};
    std::vector<int> consumed(plan.num_slots(), 0);
    for (std::size_t s = 0; s < plan.steps().size(); ++s) {
      const dp::MergePlan::Step& step = plan.steps()[s];
      const std::uint32_t out = plan.step_slot(s);
      // Operands are produced before they are consumed, exactly once.
      ASSERT_LT(step.left, out);
      ASSERT_LT(step.right, out);
      EXPECT_EQ(consumed[step.left]++, 0);
      EXPECT_EQ(consumed[step.right]++, 0);
      // The step covers exactly its operands' contiguous leaf ranges.
      ASSERT_EQ(range[step.left].second + 1, range[step.right].first)
          << "operands must be adjacent (k=" << k << ", step " << s << ")";
      range[out] = {range[step.left].first, range[step.right].second};
      EXPECT_EQ(range[out].first, step.first_leaf);
      EXPECT_EQ(range[out].second, step.last_leaf);
    }
    EXPECT_EQ(range[plan.root_slot()],
              (std::pair<std::uint32_t, std::uint32_t>{0, k - 1}));

    // O(log k) root paths: every leaf sits inside at most ceil(log2 k)
    // internal slots — the merge redo set of a single dirty child.
    for (std::uint32_t leaf = 0; leaf < k; ++leaf) {
      int depth = 0;
      for (const dp::MergePlan::Step& step : plan.steps()) {
        if (step.first_leaf <= leaf && leaf <= step.last_leaf) ++depth;
      }
      EXPECT_LE(depth, ceil_log2(k)) << "leaf " << leaf << " of k=" << k;
    }
  }
}

Tree make_tree(std::uint64_t seed, std::uint64_t index, int num_internal,
               const TreeShape& shape, int num_modes) {
  TreeGenConfig config;
  config.num_internal = num_internal;
  config.shape = shape;
  config.client_probability = 0.8;
  config.min_requests = 1;
  config.max_requests = 5;
  Tree tree = generate_tree(config, seed, index);
  Xoshiro256 pre_rng = make_rng(seed, index, RngStream::kPreExisting);
  assign_random_pre_existing(tree, num_internal / 4, pre_rng, num_modes);
  return tree;
}

std::uint64_t expected_cold_steps(const Topology& topo) {
  std::uint64_t steps = 0;
  for (NodeId j : topo.internal_post_order()) {
    const std::size_t k = topo.internal_children(j).size();
    if (k > 0) steps += 2 * k - 1;
  }
  return steps;
}

/// The power DPs skip the root's last merge step: the root join pairs its
/// two operand slots' non-dominated cells instead (core/pareto_root.h).
std::uint64_t expected_power_cold_steps(const Topology& topo) {
  return expected_cold_steps(topo) -
         (topo.internal_children(topo.root()).size() > 1 ? 1 : 0);
}

/// The shapes the fuzz sweeps: narrow, paper-fat, and star-like wide
/// fanout (where the balanced tree differs most from the old chain).
const TreeShape kFuzzShapes[] = {{2, 4}, {6, 9}, {12, 16}};

TEST(MergePlanTest, PowerDpMatchesExhaustiveFrontierAcrossFanouts) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (const TreeShape& shape : kFuzzShapes) {
    for (std::uint64_t index = 0; index < 3; ++index) {
      const Tree tree = make_tree(501, index, 9, shape, 2);
      const auto oracle = exhaustive_cost_power_frontier(tree, modes, costs);
      const PowerDPResult exact = solve_power_exact(tree, modes, costs);
      const PowerDPResult sym = solve_power_symmetric(tree, modes, costs);
      ASSERT_EQ(exact.feasible, !oracle.empty());
      ASSERT_EQ(exact.frontier.size(), oracle.size());
      ASSERT_EQ(sym.frontier.size(), oracle.size());
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_NEAR(exact.frontier[i].cost, oracle[i].cost, 1e-9);
        EXPECT_NEAR(exact.frontier[i].power, oracle[i].power, 1e-9);
        EXPECT_NEAR(sym.frontier[i].cost, oracle[i].cost, 1e-9);
        EXPECT_NEAR(sym.frontier[i].power, oracle[i].power, 1e-9);
      }
      // Work-counter sanity: cold solves build every slot exactly once
      // (but the root slot, which the root join never materializes).
      EXPECT_EQ(exact.stats.merge_steps,
                expected_power_cold_steps(tree.topology()));
      EXPECT_EQ(sym.stats.merge_steps,
                expected_power_cold_steps(tree.topology()));
      EXPECT_EQ(exact.stats.nodes_recomputed, tree.num_internal());
      EXPECT_EQ(sym.stats.nodes_recomputed, tree.num_internal());
    }
  }
}

TEST(MergePlanTest, UpdateDpMatchesExhaustiveCostAcrossFanouts) {
  const CostModel costs = CostModel::simple(0.1, 0.01);
  for (const TreeShape& shape : kFuzzShapes) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      Tree tree = make_tree(502, index, 10, shape, 1);
      const MinCostConfig config{
          .capacity = 10, .create = 0.1, .delete_cost = 0.01};
      const MinCostResult dp = solve_min_cost_with_pre(tree, config);
      const auto oracle = exhaustive_min_cost(tree, 10, costs);
      ASSERT_EQ(dp.feasible, oracle.has_value());
      if (!dp.feasible) continue;
      EXPECT_NEAR(dp.breakdown.cost, oracle->breakdown.cost, 1e-9)
          << "shape [" << shape.min_children << "," << shape.max_children
          << "] tree " << index;
      EXPECT_EQ(dp.merge_steps, expected_cold_steps(tree.topology()));
      EXPECT_EQ(dp.nodes_recomputed, tree.num_internal());
    }
  }
}

TEST(MergePlanTest, SymAgreesWithExactOnLargerWideTrees) {
  // Too large for the oracle: cross-check the two power DPs against each
  // other on star-ish fanouts, where the balanced tree's shape diverges
  // most from the old left-deep chain.
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (std::uint64_t index = 0; index < 2; ++index) {
    const Tree tree = make_tree(503, index, 20, TreeShape{10, 14}, 2);
    const PowerDPResult exact = solve_power_exact(tree, modes, costs);
    const PowerDPResult sym = solve_power_symmetric(tree, modes, costs);
    ASSERT_EQ(exact.feasible, sym.feasible);
    ASSERT_EQ(exact.frontier.size(), sym.frontier.size());
    for (std::size_t i = 0; i < exact.frontier.size(); ++i) {
      EXPECT_NEAR(exact.frontier[i].cost, sym.frontier[i].cost, 1e-9);
      EXPECT_NEAR(exact.frontier[i].power, sym.frontier[i].power, 1e-9);
    }
  }
}

TEST(MergePlanTest, CachedColdSolveMatchesOneShot) {
  // The first solve through a cache must produce the one-shot solve's
  // exact frontier and work counters (same slots built, snapshots kept).
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const Tree tree = make_tree(504, 0, 16, TreeShape{6, 9}, 2);
  const PowerDPResult one_shot = solve_power_symmetric(tree, modes, costs);
  dp::PowerSubtreeCache cache;
  PowerDPOptions options;
  options.cache = &cache;
  const PowerDPResult cached =
      solve_power_symmetric(tree.topology(), tree.scenario(), modes, costs,
                            options);
  ASSERT_EQ(cached.frontier.size(), one_shot.frontier.size());
  for (std::size_t i = 0; i < one_shot.frontier.size(); ++i) {
    EXPECT_EQ(cached.frontier[i].cost, one_shot.frontier[i].cost);
    EXPECT_EQ(cached.frontier[i].power, one_shot.frontier[i].power);
    EXPECT_TRUE(cached.frontier[i].placement ==
                one_shot.frontier[i].placement);
  }
  EXPECT_EQ(cached.stats.merge_pairs, one_shot.stats.merge_pairs);
  EXPECT_EQ(cached.stats.merge_steps, one_shot.stats.merge_steps);
}

}  // namespace
}  // namespace treeplace
