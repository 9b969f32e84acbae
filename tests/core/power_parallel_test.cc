// Sharded DP merges must be bit-identical to the serial solve.
//
// dp::sharded_merge promises that the parallel per-child merges reproduce
// the serial tables — flows *and* decisions — exactly, for any thread
// count.  These tests assert the user-visible consequence on both power
// DPs: identical frontiers (values and witness placements), identical
// selected placements and identical work counters across thread counts,
// over a batch of randomized instances.  Run under TSan in CI, they are
// also the race-freedom net for the solver-internal parallelism.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "solver/registry.h"
#include "support/prng.h"

namespace treeplace {
namespace {

Tree make_instance_tree(std::uint64_t index, int num_internal) {
  TreeGenConfig config;
  config.num_internal = num_internal;
  config.shape = TreeShape{2, 4};
  config.client_probability = 0.8;
  config.min_requests = 1;
  config.max_requests = 5;
  Tree tree = generate_tree(config, /*seed=*/1234, index);
  Xoshiro256 pre_rng = make_rng(1234, index, RngStream::kPreExisting);
  assign_random_pre_existing(tree, num_internal / 4, pre_rng,
                             /*num_modes=*/2);
  return tree;
}

void expect_identical(const PowerDPResult& serial,
                      const PowerDPResult& parallel) {
  ASSERT_EQ(parallel.feasible, serial.feasible);
  ASSERT_EQ(parallel.frontier.size(), serial.frontier.size());
  for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.frontier[i].cost, serial.frontier[i].cost);
    EXPECT_DOUBLE_EQ(parallel.frontier[i].power, serial.frontier[i].power);
    EXPECT_EQ(parallel.frontier[i].placement, serial.frontier[i].placement);
  }
  // The shards visit exactly the serial pair set.
  EXPECT_EQ(parallel.stats.merge_pairs, serial.stats.merge_pairs);
  EXPECT_EQ(parallel.stats.table_cells, serial.stats.table_cells);
}

TEST(PowerParallelTest, SymmetricDpIdenticalAcrossThreadCounts) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  for (std::uint64_t index = 0; index < 4; ++index) {
    const Tree tree = make_instance_tree(index, 24);
    const PowerDPResult serial = solve_power_symmetric(tree, modes, costs);
    for (const std::size_t threads : {2, 3, 8}) {
      const PowerDPResult parallel =
          solve_power_symmetric(tree, modes, costs,
                                PowerDPOptions{.threads = threads});
      expect_identical(serial, parallel);
    }
  }
}

TEST(PowerParallelTest, ExactDpIdenticalAcrossThreadCounts) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const Tree tree = make_instance_tree(/*index=*/1, /*num_internal=*/14);
  const PowerDPResult serial = solve_power_exact(tree, modes, costs);
  ASSERT_TRUE(serial.feasible);
  for (const std::size_t threads : {2, 4}) {
    const PowerDPResult parallel =
        solve_power_exact(tree, modes, costs,
                          PowerDPOptions{.threads = threads});
    expect_identical(serial, parallel);
  }
}

TEST(PowerParallelTest, SolverOptionsThreadsGivesIdenticalSolution) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const Tree tree = make_instance_tree(/*index=*/2, /*num_internal=*/30);
  const Instance instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                          std::nullopt};

  const auto serial = make_solver("power-sym");
  const Solution expected = serial->solve(instance);

  const auto threaded = make_solver("power-sym");
  threaded->set_options(Solver::Options{8});
  const Solution actual = threaded->solve(instance);

  ASSERT_EQ(actual.feasible, expected.feasible);
  EXPECT_EQ(actual.placement, expected.placement);
  EXPECT_DOUBLE_EQ(actual.breakdown.cost, expected.breakdown.cost);
  EXPECT_DOUBLE_EQ(actual.power, expected.power);
  EXPECT_EQ(actual.stats.work, expected.stats.work);
  ASSERT_EQ(actual.frontier.size(), expected.frontier.size());
}

TEST(PowerParallelTest, OptionsRejectNonPositiveThreads) {
  const auto solver = make_solver("power-sym");
  EXPECT_THROW(solver->set_options(Solver::Options{0}), CheckError);
  EXPECT_THROW(solver->set_options(Solver::Options{-3}), CheckError);
}

}  // namespace
}  // namespace treeplace
