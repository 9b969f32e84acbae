#include "core/dp_update.h"

#include <gtest/gtest.h>

#include "core/exhaustive.h"
#include "core/greedy.h"
#include "model/placement.h"
#include "tests/core/test_instances.h"

namespace treeplace {
namespace {

using testing::make_fig1;
using testing::make_random_small;

constexpr MinCostConfig kPaperConfig{
    .capacity = 10, .create = 0.1, .delete_cost = 0.01};

TEST(DpUpdateTest, Fig1WithTwoRootRequestsReusesB) {
  // Paper Section 3.1: "if the root r has two client requests, then it was
  // better to keep the pre-existing server B."
  const auto f = make_fig1(2);
  const MinCostResult r = solve_min_cost_with_pre(f.tree, kPaperConfig);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.placement.contains(f.b));
  EXPECT_EQ(r.breakdown.reused, 1);
  EXPECT_EQ(r.breakdown.servers, 2);
  EXPECT_NEAR(r.breakdown.cost, 2.1, 1e-9);  // 2 + 1 create + 0 delete
}

TEST(DpUpdateTest, Fig1WithFourRootRequestsDeletesB) {
  // "if it has four requests ... one can then remove server B ... keep one
  // server at node C and one server at node r."
  const auto f = make_fig1(4);
  const MinCostResult r = solve_min_cost_with_pre(f.tree, kPaperConfig);
  ASSERT_TRUE(r.feasible);
  EXPECT_FALSE(r.placement.contains(f.b));
  EXPECT_TRUE(r.placement.contains(f.c));
  EXPECT_TRUE(r.placement.contains(f.r));
  EXPECT_EQ(r.breakdown.deleted, 1);
  EXPECT_NEAR(r.breakdown.cost, 2.21, 1e-9);  // 2 + 2 create + 1 delete
}

TEST(DpUpdateTest, SolutionsAreAlwaysValid) {
  for (std::uint64_t i = 0; i < 30; ++i) {
    const Tree tree = make_random_small(303, i, 12, 1, 6, 4);
    const MinCostResult r = solve_min_cost_with_pre(tree, kPaperConfig);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(validate(tree, r.placement, ModeSet::single(10)).valid)
        << "tree " << i;
  }
}

TEST(DpUpdateTest, NoPreEqualsGreedyCount) {
  // Without pre-existing servers and with create/delete < 1, the optimal
  // cost solution uses the minimum replica count — the greedy's count.
  for (std::uint64_t i = 0; i < 30; ++i) {
    const Tree tree = make_random_small(404, i, 14, 1, 6, 0);
    const MinCostResult dp = solve_min_cost_with_pre(tree, kPaperConfig);
    const int greedy = greedy_replica_count(tree, 10);
    ASSERT_TRUE(dp.feasible);
    EXPECT_EQ(dp.breakdown.servers, greedy) << "tree " << i;
  }
}

TEST(DpUpdateTest, InfeasibleClientMass) {
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  const NodeId a = builder.add_internal(r);
  builder.add_client(a, 6);
  builder.add_client(a, 6);
  const Tree tree = std::move(builder).build();
  EXPECT_FALSE(solve_min_cost_with_pre(tree, kPaperConfig).feasible);
}

TEST(DpUpdateTest, EmptyDemandNeedsNoServers) {
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  builder.add_internal(r);
  const Tree tree = std::move(builder).build();
  const MinCostResult res = solve_min_cost_with_pre(tree, kPaperConfig);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(res.placement.empty());
  EXPECT_NEAR(res.breakdown.cost, 0.0, 1e-12);
}

TEST(DpUpdateTest, DeletesIdlePreExistingWhenCheap) {
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  const NodeId a = builder.add_internal(r);
  builder.set_pre_existing(a);  // no demand anywhere
  const Tree tree = std::move(builder).build();
  (void)r;
  const MinCostResult res = solve_min_cost_with_pre(tree, kPaperConfig);
  ASSERT_TRUE(res.feasible);
  EXPECT_TRUE(res.placement.empty());
  EXPECT_NEAR(res.breakdown.cost, 0.01, 1e-12);  // one delete
}

TEST(DpUpdateTest, KeepsIdlePreExistingWhenDeletingIsExpensive) {
  // Deviation covered by our extended root scan (DESIGN.md): with
  // delete > 1, keeping an idle pre-existing server beats deleting it.
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  const NodeId a = builder.add_internal(r);
  builder.add_client(a, 5);
  builder.set_pre_existing(r);
  builder.set_pre_existing(a);
  const Tree tree = std::move(builder).build();
  const MinCostConfig config{.capacity = 10, .create = 0.5, .delete_cost = 2.0};
  const MinCostResult res = solve_min_cost_with_pre(tree, config);
  ASSERT_TRUE(res.feasible);
  // Reuse both: cost 2.  Alternatives: reuse A only = 1 + 2 = 3.
  EXPECT_EQ(res.breakdown.reused, 2);
  EXPECT_NEAR(res.breakdown.cost, 2.0, 1e-9);
  EXPECT_TRUE(res.placement.contains(r));
  EXPECT_TRUE(res.placement.contains(a));
}

TEST(DpUpdateTest, AllNodesPreExisting) {
  for (std::uint64_t i = 0; i < 10; ++i) {
    Tree tree = make_random_small(505, i, 8, 1, 6, 8);
    ASSERT_EQ(tree.num_pre_existing(), 8u);
    const MinCostResult res = solve_min_cost_with_pre(tree, kPaperConfig);
    ASSERT_TRUE(res.feasible);
    EXPECT_EQ(res.breakdown.created, 0);  // plenty of reusable servers
  }
}

TEST(DpUpdateTest, BreakdownMatchesIndependentEvaluator) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Tree tree = make_random_small(606, i, 10, 1, 6, 3);
    const MinCostResult res = solve_min_cost_with_pre(tree, kPaperConfig);
    ASSERT_TRUE(res.feasible);
    const CostBreakdown check = evaluate_cost(
        tree, res.placement, CostModel::simple(0.1, 0.01));
    EXPECT_EQ(res.breakdown.servers, check.servers);
    EXPECT_EQ(res.breakdown.reused, check.reused);
    EXPECT_NEAR(res.breakdown.cost, check.cost, 1e-12);
  }
}

TEST(DpUpdateTest, MergeIterationsBelowPaperBound) {
  const Tree tree = make_random_small(707, 0, 15, 1, 6, 5);
  const MinCostResult res = solve_min_cost_with_pre(tree, kPaperConfig);
  ASSERT_TRUE(res.feasible);
  const std::uint64_t n = 15;
  const std::uint64_t e = 5;
  const std::uint64_t paper_bound = n * (n - e + 1) * (n - e + 1) * (e + 1) *
                                    (e + 1);
  EXPECT_LT(res.merge_iterations, paper_bound);
}

TEST(DpUpdateTest, MultipleClientsPerNodeAggregate) {
  // Several clients under one node share every ancestor, so their combined
  // mass acts as one demand (the paper's client(j) sum).  Exercises
  // client_mass() aggregation, which the random generator never does.
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  const NodeId a = builder.add_internal(r);
  builder.add_client(a, 3);
  builder.add_client(a, 4);
  builder.add_client(a, 2);  // mass 9 at A
  builder.add_client(r, 5);
  const Tree tree = std::move(builder).build();
  const MinCostResult res = solve_min_cost_with_pre(tree, kPaperConfig);
  ASSERT_TRUE(res.feasible);
  // 9 + 5 = 14 > 10: two servers needed (A and the root).
  EXPECT_EQ(res.breakdown.servers, 2);
  EXPECT_TRUE(res.placement.contains(a));
  EXPECT_TRUE(res.placement.contains(r));
}

TEST(DpUpdateTest, MultiClientOracleSweep) {
  // Random trees with several clients per node, checked against the
  // exhaustive oracle.
  const CostModel costs = CostModel::simple(0.1, 0.01);
  for (std::uint64_t i = 0; i < 15; ++i) {
    Xoshiro256 rng(derive_seed(31337, i));
    TreeBuilder builder;
    std::vector<NodeId> internals{builder.add_root()};
    for (int k = 0; k < 7; ++k) {
      const NodeId parent = internals[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(internals.size()) - 1))];
      internals.push_back(builder.add_internal(parent));
    }
    for (NodeId node : internals) {
      const int clients = rng.uniform_int(0, 3);
      for (int c = 0; c < clients; ++c) {
        builder.add_client(node, rng.uniform(1, 4));
      }
      if (rng.bernoulli(0.3)) builder.set_pre_existing(node);
    }
    const Tree tree = std::move(builder).build();
    const MinCostResult dp = solve_min_cost_with_pre(tree, kPaperConfig);
    const auto oracle = exhaustive_min_cost(tree, 10, costs);
    ASSERT_EQ(dp.feasible, oracle.has_value()) << "tree " << i;
    if (oracle) {
      EXPECT_NEAR(dp.breakdown.cost, oracle->breakdown.cost, 1e-9)
          << "tree " << i;
    }
  }
}

/// Oracle sweep over tree sizes, pre-existing densities and cost regimes.
struct DpOracleParam {
  int n;
  std::size_t num_pre;
  double create;
  double delete_cost;
};

class DpUpdateOracleTest : public ::testing::TestWithParam<DpOracleParam> {};

TEST_P(DpUpdateOracleTest, MatchesExhaustiveOptimum) {
  const DpOracleParam p = GetParam();
  const MinCostConfig config{
      .capacity = 10, .create = p.create, .delete_cost = p.delete_cost};
  const CostModel costs = CostModel::simple(p.create, p.delete_cost);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Tree tree = make_random_small(
        808 + static_cast<std::uint64_t>(p.n), i, p.n, 1, 6, p.num_pre);
    const auto oracle = exhaustive_min_cost(tree, 10, costs);
    const MinCostResult dp = solve_min_cost_with_pre(tree, config);
    ASSERT_EQ(dp.feasible, oracle.has_value()) << "tree " << i;
    if (oracle.has_value()) {
      EXPECT_NEAR(dp.breakdown.cost, oracle->breakdown.cost, 1e-9)
          << "n=" << p.n << " pre=" << p.num_pre << " create=" << p.create
          << " delete=" << p.delete_cost << " tree=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, DpUpdateOracleTest,
    ::testing::Values(
        DpOracleParam{4, 0, 0.1, 0.01},   // tiny, no pre-existing
        DpOracleParam{6, 2, 0.1, 0.01},   // paper-style costs
        DpOracleParam{8, 3, 0.1, 0.01},
        DpOracleParam{10, 4, 0.1, 0.01},
        DpOracleParam{8, 4, 1.0, 1.0},    // expensive updates (Fig. 11 style)
        DpOracleParam{8, 3, 0.0, 0.0},    // pure replica-count minimization
        DpOracleParam{8, 3, 0.5, 2.0},    // deletion dearer than operating
        DpOracleParam{8, 8, 0.1, 0.01},   // everything pre-existing
        DpOracleParam{9, 3, 0.05, 0.45},  // create + 2*delete < 1 (paper
                                          // replacement-priority regime)
        DpOracleParam{7, 2, 3.0, 0.2}));  // creation very expensive

}  // namespace
}  // namespace treeplace
