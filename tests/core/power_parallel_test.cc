// Solver threads must not change a power solve.
//
// Solver::Options::threads (the CLI's --solver-threads) is accepted by
// every strategy; the power DPs' label tables solve serially whatever its
// value.  These tests assert the user-visible promise on both power DPs:
// identical frontiers (values and witness placements), identical selected
// placements and identical work counters across thread counts, over a
// batch of randomized instances.  Run under TSan in CI, they also cover
// solvers configured with threads shared by concurrent callers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

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

void expect_identical(const Solution& serial, const Solution& parallel) {
  ASSERT_EQ(parallel.feasible, serial.feasible);
  ASSERT_EQ(parallel.frontier.size(), serial.frontier.size());
  for (std::size_t i = 0; i < serial.frontier.size(); ++i) {
    EXPECT_DOUBLE_EQ(parallel.frontier[i].cost, serial.frontier[i].cost);
    EXPECT_DOUBLE_EQ(parallel.frontier[i].power, serial.frontier[i].power);
    EXPECT_EQ(parallel.frontier[i].placement, serial.frontier[i].placement);
  }
  EXPECT_EQ(parallel.stats.work, serial.stats.work);
}

Solution solve_with_threads(const std::string& algo, const Tree& tree,
                            int threads) {
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const auto solver = make_solver(algo);
  solver->set_options(Solver::Options{threads});
  return solver->solve(Instance{tree.topology_ptr(), tree.scenario(), modes,
                                costs, std::nullopt});
}

TEST(PowerParallelTest, SymmetricDpIdenticalAcrossThreadCounts) {
  for (std::uint64_t index = 0; index < 4; ++index) {
    const Tree tree = make_instance_tree(index, 24);
    const Solution serial = solve_with_threads("power-sym", tree, 1);
    for (const int threads : {2, 3, 8}) {
      expect_identical(serial, solve_with_threads("power-sym", tree, threads));
    }
  }
}

TEST(PowerParallelTest, ExactDpIdenticalAcrossThreadCounts) {
  const Tree tree = make_instance_tree(/*index=*/1, /*num_internal=*/14);
  const Solution serial = solve_with_threads("power-exact", tree, 1);
  ASSERT_TRUE(serial.feasible);
  for (const int threads : {2, 4}) {
    expect_identical(serial, solve_with_threads("power-exact", tree, threads));
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
