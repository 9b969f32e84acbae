#include "core/power_dp.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/dp_update.h"
#include "core/exhaustive.h"
#include "model/placement.h"
#include "tests/core/full_root_scan.h"
#include "tests/core/test_instances.h"

namespace treeplace {
namespace {

using testing::make_fig2;
using testing::make_random_small;

const ModeSet kFig2Modes({7, 10}, 10.0, 2.0);  // P = 10 + W², paper §4.1

TEST(PowerDpTest, Fig2WithFourRootRequests) {
  // Paper Section 4.1: with four client requests at the root it is better
  // to let 3 requests through (server at C, mode W1) — two W1 servers,
  // power 2·59 = 118 — than to run A at W2 (110 + 59 = 169).
  const auto f = make_fig2(4);
  const CostModel costs = CostModel::uniform(2, 0.0, 0.0, 0.0);
  const PowerDPResult r = solve_power_exact(f.tree, kFig2Modes, costs);
  ASSERT_TRUE(r.feasible);
  const PowerParetoPoint* best = r.min_power();
  ASSERT_NE(best, nullptr);
  EXPECT_NEAR(best->power, 118.0, 1e-9);
  EXPECT_TRUE(best->placement.contains(f.c));
  EXPECT_TRUE(best->placement.contains(f.r));
  EXPECT_EQ(best->placement.mode(f.c), 0);
  EXPECT_EQ(best->placement.mode(f.r), 0);
}

TEST(PowerDpTest, Fig2WithTenRootRequests) {
  // "if it has ten requests, it is necessary to have no request going
  // through A": server at A at W2 plus the root at W2 — power 220.
  const auto f = make_fig2(10);
  const CostModel costs = CostModel::uniform(2, 0.0, 0.0, 0.0);
  const PowerDPResult r = solve_power_exact(f.tree, kFig2Modes, costs);
  ASSERT_TRUE(r.feasible);
  const PowerParetoPoint* best = r.min_power();
  ASSERT_NE(best, nullptr);
  EXPECT_NEAR(best->power, 220.0, 1e-9);
  EXPECT_TRUE(best->placement.contains(f.a));
  EXPECT_EQ(best->placement.mode(f.a), 1);
  EXPECT_TRUE(best->placement.contains(f.r));
}

TEST(PowerDpTest, FrontierPointsAreValidPlacements) {
  for (std::uint64_t i = 0; i < 15; ++i) {
    const Tree tree = make_random_small(111, i, 8, 1, 8, 3, 2);
    const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001);
    const ModeSet modes({5, 10}, 1.0, 2.0);
    const PowerDPResult r = solve_power_exact(tree, modes, costs);
    ASSERT_TRUE(r.feasible);
    for (const PowerParetoPoint& p : r.frontier) {
      EXPECT_TRUE(validate(tree, p.placement, modes).valid) << "tree " << i;
      EXPECT_NEAR(p.power, total_power(p.placement, modes), 1e-9);
      EXPECT_NEAR(p.cost, evaluate_cost(tree, p.placement, costs).cost, 1e-9);
    }
  }
}

TEST(PowerDpTest, FrontierShapeInvariant) {
  for (std::uint64_t i = 0; i < 15; ++i) {
    const Tree tree = make_random_small(222, i, 9, 1, 8, 2, 2);
    const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001);
    const ModeSet modes({5, 10}, 1.0, 2.0);
    const PowerDPResult r = solve_power_exact(tree, modes, costs);
    ASSERT_TRUE(r.feasible);
    for (std::size_t k = 1; k < r.frontier.size(); ++k) {
      EXPECT_GT(r.frontier[k].cost, r.frontier[k - 1].cost);
      EXPECT_LT(r.frontier[k].power, r.frontier[k - 1].power);
    }
  }
}

TEST(PowerDpTest, BoundedCostMonotoneInBound) {
  const Tree tree = make_random_small(333, 0, 10, 1, 8, 3, 2);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001);
  const ModeSet modes({5, 10}, 1.0, 2.0);
  const PowerDPResult r = solve_power_exact(tree, modes, costs);
  ASSERT_TRUE(r.feasible);
  double previous = std::numeric_limits<double>::infinity();
  for (double bound = 2.0; bound <= 20.0; bound += 0.5) {
    const PowerParetoPoint* p = r.best_within_cost(bound);
    if (p == nullptr) continue;
    EXPECT_LE(p->power, previous);
    EXPECT_LE(p->cost, bound + 1e-9);
    previous = p->power;
  }
}

TEST(PowerDpTest, TightBudgetYieldsNull) {
  const auto f = make_fig2(4);
  const CostModel costs = CostModel::uniform(2, 1.0, 1.0, 0.1);
  const PowerDPResult r = solve_power_exact(f.tree, kFig2Modes, costs);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.best_within_cost(0.5), nullptr);  // any solution needs >= 2
  EXPECT_NE(r.best_within_cost(100.0), nullptr);
}

TEST(PowerDpTest, InfeasibleInstance) {
  TreeBuilder builder;
  builder.add_client(builder.add_root(), 11);
  const Tree tree = std::move(builder).build();
  const PowerDPResult r = solve_power_exact(
      tree, ModeSet({5, 10}, 0, 2), CostModel::uniform(2, 0.1, 0.01, 0.001));
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.frontier.empty());
  EXPECT_EQ(r.min_power(), nullptr);
}

TEST(PowerDpTest, SingleModeMatchesCostDp) {
  // With M = 1 the frontier's cheapest point must equal the Section 3 DP's
  // optimal cost, and its power is just R·P(0).
  for (std::uint64_t i = 0; i < 15; ++i) {
    const Tree tree = make_random_small(444, i, 10, 1, 6, 3);
    const CostModel costs = CostModel::simple(0.1, 0.01);
    const ModeSet modes = ModeSet::single(10);
    const PowerDPResult power = solve_power_exact(tree, modes, costs);
    const MinCostResult cost =
        solve_min_cost_with_pre(tree, MinCostConfig{
            .capacity = 10, .create = 0.1, .delete_cost = 0.01});
    ASSERT_EQ(power.feasible, cost.feasible);
    if (!power.feasible) continue;
    ASSERT_FALSE(power.frontier.empty());
    EXPECT_NEAR(power.frontier.front().cost, cost.breakdown.cost, 1e-9)
        << "tree " << i;
  }
}

TEST(PowerDpTest, MinPowerMatchesExhaustiveWithZeroCosts) {
  for (std::uint64_t i = 0; i < 20; ++i) {
    const Tree tree = make_random_small(555, i, 8, 1, 9, 0, 2);
    const ModeSet modes({6, 11}, 3.0, 2.0);
    const CostModel costs = CostModel::uniform(2, 0.0, 0.0, 0.0);
    const PowerDPResult dp = solve_power_exact(tree, modes, costs);
    const auto oracle = exhaustive_min_power(tree, modes);
    ASSERT_EQ(dp.feasible, oracle.has_value()) << "tree " << i;
    if (oracle) {
      EXPECT_NEAR(dp.min_power()->power, *oracle, 1e-9) << "tree " << i;
    }
  }
}

/// The exact engine's side of the oracle comparisons: its make_candidate
/// pricing over (n_w, e_{o,w}) and its replica dimensions, copied
/// operation for operation.
testing::RootFuzzEngine exact_fuzz_engine(const ModeSet& modes,
                                          const CostModel& costs) {
  const int m = modes.count();
  const auto dim_reused = [m](int o, int w) {
    return static_cast<std::size_t>(m + o * m + w);
  };
  testing::RootFuzzEngine engine;
  engine.dims = static_cast<std::size_t>(m + m * m);
  engine.solve = [](const Topology& topo, const Scenario& scen,
                    const ModeSet& ms, const CostModel& cm,
                    const PowerDPOptions& options) {
    return solve_power_exact(topo, scen, ms, cm, options);
  };
  engine.price = [m, modes, costs, dim_reused](const Scenario& scen) {
    std::vector<int> pre_total(static_cast<std::size_t>(m), 0);
    for (NodeId e : scen.pre_existing_nodes()) {
      ++pre_total[static_cast<std::size_t>(scen.original_mode(e))];
    }
    return [m, modes, costs, dim_reused,
            pre_total](const std::vector<int>& counts) {
      testing::RootPrice p;
      double cost = 0.0;
      for (int w = 0; w < m; ++w) {
        const int n_w = counts[static_cast<std::size_t>(w)];
        p.servers += n_w;
        cost += static_cast<double>(n_w) * costs.create(w);
        p.power += static_cast<double>(n_w) * modes.power(w);
      }
      std::vector<int> reused(static_cast<std::size_t>(m), 0);
      for (int o = 0; o < m; ++o) {
        for (int w = 0; w < m; ++w) {
          const int e_ow = counts[dim_reused(o, w)];
          p.servers += e_ow;
          reused[static_cast<std::size_t>(o)] += e_ow;
          cost += static_cast<double>(e_ow) * costs.changed(o, w);
          p.power += static_cast<double>(e_ow) * modes.power(w);
        }
      }
      cost += static_cast<double>(p.servers);
      for (int o = 0; o < m; ++o) {
        const int deleted = pre_total[static_cast<std::size_t>(o)] -
                            reused[static_cast<std::size_t>(o)];
        cost += static_cast<double>(deleted) * costs.del(o);
      }
      p.cost = cost;
      return p;
    };
  };
  engine.replica_dims = [dim_reused](const Scenario& scen) {
    return [dim_reused, &scen](NodeId node, int w) {
      return std::vector<std::size_t>{
          scen.pre_existing(node) ? dim_reused(scen.original_mode(node), w)
                                  : static_cast<std::size_t>(w)};
    };
  };
  return engine;
}

/// Full frontier comparison against the exhaustive oracle across mode
/// structures and pre-existing densities.
struct FrontierParam {
  int n;
  std::size_t num_pre;
  int num_modes;
  double static_power;
  double alpha;
};

class PowerFrontierOracleTest
    : public ::testing::TestWithParam<FrontierParam> {};

TEST_P(PowerFrontierOracleTest, MatchesExhaustiveFrontier) {
  const FrontierParam p = GetParam();
  std::vector<RequestCount> caps;
  for (int m = 0; m < p.num_modes; ++m) {
    caps.push_back(static_cast<RequestCount>(4 + 3 * m));
  }
  const ModeSet modes(caps, p.static_power, p.alpha);
  const CostModel costs = CostModel::uniform(p.num_modes, 0.1, 0.01, 0.001);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const Tree tree =
        make_random_small(666 + static_cast<std::uint64_t>(p.n), i, p.n, 1,
                          modes.max_capacity(), p.num_pre, p.num_modes);
    const PowerDPResult dp = solve_power_exact(tree, modes, costs);
    const auto oracle = exhaustive_cost_power_frontier(tree, modes, costs);
    ASSERT_EQ(dp.feasible, !oracle.empty()) << "tree " << i;
    // Witnesses too: bit for bit against the unpruned count-vector DP.
    testing::expect_same_frontier(
        dp.frontier, exact_fuzz_engine(modes, costs).oracle(tree, modes, costs),
        "tree " + std::to_string(i));
    ASSERT_EQ(dp.frontier.size(), oracle.size()) << "tree " << i;
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      EXPECT_NEAR(dp.frontier[k].cost, oracle[k].cost, 1e-9)
          << "tree " << i << " point " << k;
      EXPECT_NEAR(dp.frontier[k].power, oracle[k].power, 1e-9)
          << "tree " << i << " point " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Structures, PowerFrontierOracleTest,
    ::testing::Values(FrontierParam{6, 0, 2, 1.0, 2.0},
                      FrontierParam{7, 2, 2, 1.0, 2.0},
                      FrontierParam{8, 3, 2, 0.0, 3.0},
                      FrontierParam{6, 2, 3, 2.0, 2.0},
                      FrontierParam{5, 5, 3, 1.0, 2.5},
                      FrontierParam{7, 0, 1, 1.0, 2.0}));

TEST(PowerDpTest, ParetoRootJoinMatchesFullRootScanOnNearTies) {
  // The exact-engine twin of the symmetric fuzz (power_symmetric_test.cc):
  // 300 `treeplace gen` trees, frontiers and witnesses bit-identical to
  // the full root scan and the oracle, at 1 and 4 solver threads.  The
  // general regime prices each mode and mode change differently; the
  // near-tie regime gives distinct count vectors one real cost.
  const std::vector<testing::RootFuzzConfig> configs = {
      {"paper", ModeSet({5, 10}, 12.5, 3.0),
       CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001)},
      {"general", ModeSet({4, 9}, 2.0, 2.0),
       CostModel({0.1, 0.3}, {0.05, 0.2}, {{0.0, 0.15}, {0.25, 0.0}})},
      {"near-tie", ModeSet({4, 8}, 0.0, 1.0),
       CostModel::uniform(2, 0.7, 0.3, 0.1, 0.1)},
  };
  testing::RootFuzzTally tally;
  std::uint64_t seed = 620;
  for (const testing::RootFuzzConfig& config : configs) {
    testing::run_root_fuzz(exact_fuzz_engine(config.modes, config.costs),
                           config, seed++, /*trees=*/100, /*max_nodes=*/14,
                           /*oracle_nodes=*/8, tally);
  }
  EXPECT_GT(tally.near_ties, 0u) << "no rounding-level cost ties exercised";
  EXPECT_GT(tally.oracle_trees, 20);
}

}  // namespace
}  // namespace treeplace
