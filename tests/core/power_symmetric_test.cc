#include "core/power_dp_symmetric.h"

#include <gtest/gtest.h>

#include "core/exhaustive.h"
#include "core/power_dp.h"
#include "model/placement.h"
#include "support/check.h"
#include "tests/core/full_root_scan.h"
#include "tests/core/test_instances.h"

namespace treeplace {
namespace {

using testing::make_fig2;
using testing::make_random_small;

TEST(PowerSymmetricTest, RequiresSymmetricCosts) {
  const auto f = make_fig2(4);
  CostModel asym({0.1, 0.2}, {0.01, 0.01}, {{0.0, 0.1}, {0.1, 0.0}});
  EXPECT_THROW(
      solve_power_symmetric(f.tree, ModeSet({7, 10}, 10, 2), asym),
      CheckError);
}

TEST(PowerSymmetricTest, Fig2WorkedExample) {
  const auto f = make_fig2(4);
  const ModeSet modes({7, 10}, 10.0, 2.0);
  const CostModel costs = CostModel::uniform(2, 0.0, 0.0, 0.0);
  const PowerDPResult r = solve_power_symmetric(f.tree, modes, costs);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.min_power()->power, 118.0, 1e-9);
}

TEST(PowerSymmetricTest, SolutionsAreValid) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (std::uint64_t i = 0; i < 15; ++i) {
    const Tree tree = make_random_small(121, i, 12, 1, 9, 4, 2);
    const PowerDPResult r = solve_power_symmetric(tree, modes, costs);
    ASSERT_TRUE(r.feasible);
    for (const PowerParetoPoint& p : r.frontier) {
      EXPECT_TRUE(validate(tree, p.placement, modes).valid) << "tree " << i;
      EXPECT_NEAR(p.power, total_power(p.placement, modes), 1e-9);
      EXPECT_NEAR(p.cost, evaluate_cost(tree, p.placement, costs).cost, 1e-9);
    }
  }
}

TEST(PowerSymmetricTest, AutoDispatch) {
  const auto f = make_fig2(4);
  const ModeSet modes({7, 10}, 10.0, 2.0);
  const CostModel sym = CostModel::uniform(2, 0.1, 0.01, 0.001);
  CostModel asym({0.1, 0.2}, {0.01, 0.01}, {{0.0, 0.1}, {0.1, 0.0}});
  EXPECT_TRUE(solve_power_auto(f.tree, modes, sym).feasible);
  EXPECT_TRUE(solve_power_auto(f.tree, modes, asym).feasible);
}

/// The core guarantee: the reduced state space loses nothing.  Frontier
/// equality with the exact DP over random instances and cost regimes.
struct EquivParam {
  int n;
  std::size_t num_pre;
  double create;
  double del;
  double changed_diff;
  double changed_same;
};

class SymmetricEquivalenceTest
    : public ::testing::TestWithParam<EquivParam> {};

TEST_P(SymmetricEquivalenceTest, FrontierMatchesExactDp) {
  const EquivParam p = GetParam();
  const ModeSet modes({5, 10}, 2.0, 2.0);
  const CostModel costs = CostModel::uniform(2, p.create, p.del,
                                             p.changed_diff, p.changed_same);
  for (std::uint64_t i = 0; i < 12; ++i) {
    const Tree tree = make_random_small(
        232 + static_cast<std::uint64_t>(p.n), i, p.n, 1, 9, p.num_pre, 2);
    const PowerDPResult exact = solve_power_exact(tree, modes, costs);
    const PowerDPResult sym = solve_power_symmetric(tree, modes, costs);
    ASSERT_EQ(exact.feasible, sym.feasible) << "tree " << i;
    ASSERT_EQ(exact.frontier.size(), sym.frontier.size()) << "tree " << i;
    for (std::size_t k = 0; k < exact.frontier.size(); ++k) {
      EXPECT_NEAR(exact.frontier[k].cost, sym.frontier[k].cost, 1e-9)
          << "tree " << i << " point " << k;
      EXPECT_NEAR(exact.frontier[k].power, sym.frontier[k].power, 1e-9)
          << "tree " << i << " point " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CostRegimes, SymmetricEquivalenceTest,
    ::testing::Values(
        EquivParam{8, 3, 0.1, 0.01, 0.001, 0.001},  // paper Exp. 3
        EquivParam{8, 3, 1.0, 1.0, 0.1, 0.1},       // paper Fig. 11
        EquivParam{8, 3, 0.1, 0.01, 0.001, 0.0},    // changed_{o,o} = 0
        EquivParam{10, 0, 0.1, 0.01, 0.001, 0.0},   // NoPre
        EquivParam{9, 9, 0.5, 0.3, 0.2, 0.0},       // all pre-existing
        EquivParam{8, 4, 0.0, 0.0, 0.0, 0.0}));     // pure MinPower

TEST(PowerSymmetricTest, MuchSmallerTablesThanExact) {
  const Tree tree = make_random_small(343, 0, 14, 1, 9, 5, 2);
  const ModeSet modes({5, 10}, 2.0, 2.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001);
  const PowerDPResult exact = solve_power_exact(tree, modes, costs);
  const PowerDPResult sym = solve_power_symmetric(tree, modes, costs);
  ASSERT_TRUE(exact.feasible && sym.feasible);
  EXPECT_LT(sym.stats.table_cells, exact.stats.table_cells);
}

/// The symmetric engine's side of the near-tie fuzz: its make_candidate
/// pricing over (m_0..m_{M-1}, e_same, e_changed), copied operation for
/// operation.
testing::RootFuzzEngine symmetric_fuzz_engine(const ModeSet& modes,
                                              const CostModel& costs) {
  const int m = modes.count();
  testing::RootFuzzEngine engine;
  engine.dims = static_cast<std::size_t>(m) + 2;
  engine.solve = [](const Topology& topo, const Scenario& scen,
                    const ModeSet& ms, const CostModel& cm,
                    const PowerDPOptions& options) {
    return solve_power_symmetric(topo, scen, ms, cm, options);
  };
  engine.price = [m, modes, costs](const Scenario& scen) {
    const int e_total = static_cast<int>(scen.num_pre_existing());
    return [m, modes, costs, e_total](const std::vector<int>& counts) {
      testing::RootPrice p;
      for (int w = 0; w < m; ++w) {
        p.servers += counts[static_cast<std::size_t>(w)];
        p.power += static_cast<double>(counts[static_cast<std::size_t>(w)]) *
                   modes.power(w);
      }
      const int e_same = counts[static_cast<std::size_t>(m)];
      const int e_changed = counts[static_cast<std::size_t>(m) + 1];
      const int reused = e_same + e_changed;
      const int created = p.servers - reused;
      p.cost = static_cast<double>(p.servers) +
               static_cast<double>(created) * costs.symmetric_create() +
               static_cast<double>(e_same) * costs.symmetric_changed_same() +
               static_cast<double>(e_changed) *
                   costs.symmetric_changed_diff() +
               static_cast<double>(e_total - reused) *
                   costs.symmetric_delete();
      return p;
    };
  };
  engine.root_dims = [m](const Topology& topo, const Scenario& scen) {
    return [m, &scen, root = topo.root()](int w) {
      std::vector<std::size_t> dims{static_cast<std::size_t>(w)};
      if (scen.pre_existing(root)) {
        dims.push_back(static_cast<std::size_t>(m) +
                       (w == scen.original_mode(root) ? 0 : 1));
      }
      return dims;
    };
  };
  return engine;
}

TEST(PowerSymmetricTest, ParetoRootJoinMatchesFullRootScanOnNearTies) {
  // The root join pairs only the operands' non-dominated cells; this
  // sweeps 300 `treeplace gen` trees over three mode/cost regimes and
  // demands the full root scan's frontier and witnesses bit for bit (and
  // the exhaustive oracle's values on small trees).  The last regime
  // makes distinct count vectors share a real cost: changed_same ==
  // changed_diff prices a same-mode and a mode-changing reuse alike, and
  // the non-dyadic prices round their sums apart by an ulp.
  const std::vector<testing::RootFuzzConfig> configs = {
      {"paper", ModeSet({5, 10}, 12.5, 3.0),
       CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001)},
      {"three-mode", ModeSet({4, 7, 12}, 2.0, 2.0),
       CostModel::uniform(3, 0.5, 0.25, 0.125, 0.0)},
      {"near-tie", ModeSet({4, 8}, 0.0, 1.0),
       CostModel::uniform(2, 0.7, 0.3, 0.1, 0.1)},
  };
  testing::RootFuzzTally tally;
  std::uint64_t seed = 610;
  for (const testing::RootFuzzConfig& config : configs) {
    testing::run_root_fuzz(symmetric_fuzz_engine(config.modes, config.costs),
                           config, seed++, /*trees=*/100, /*max_nodes=*/20,
                           /*oracle_nodes=*/8, tally);
  }
  EXPECT_GT(tally.near_ties, 0u) << "no rounding-level cost ties exercised";
  EXPECT_GT(tally.oracle_trees, 20);
}

TEST(PowerSymmetricTest, CleanRootWithShedSnapshotsIsRebuilt) {
  // The root keeps no folded table, so its root join always reads the
  // operand slots; a budget that shed the root's slot snapshots must make
  // the next solve rebuild the root even when nothing changed.
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const Tree tree = testing::make_gen_tree(630, 0, 24, 6, 2);
  for (const bool exact : {false, true}) {
    const PowerDPResult cold = exact
                                   ? solve_power_exact(tree, modes, costs)
                                   : solve_power_symmetric(tree, modes, costs);
    ASSERT_TRUE(cold.feasible);
    dp::PowerSubtreeCache cache;
    PowerDPOptions options;
    options.cache = &cache;
    const auto solve = [&] {
      return exact ? solve_power_exact(tree.topology(), tree.scenario(),
                                       modes, costs, options)
                   : solve_power_symmetric(tree.topology(), tree.scenario(),
                                           modes, costs, options);
    };
    solve();
    const std::size_t root = tree.topology().internal_index(tree.root());
    cache.drop_snapshots(root);
    const PowerDPResult again = solve();
    EXPECT_EQ(again.stats.nodes_recomputed, 1u) << "exact=" << exact;
    testing::expect_same_frontier(again.frontier, cold.frontier,
                                  exact ? "exact" : "sym");
  }
}

}  // namespace
}  // namespace treeplace
