// Exactness gate for hierarchical client aggregation (tree/aggregate.h).
//
// The contract is bit-identity: collapsing leaf client populations into one
// weighted aggregate client per attachment point must leave every solver
// observable unchanged — objective value, power, placement (over internal
// nodes, which survive 1:1), feasibility and the frontier — across all
// three DP engines, serial and threaded, cold and warm.  The fuzz drives
// random delta streams through both the original and the aggregated
// serving path (deltas rewritten by map_deltas) and compares after every
// step.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "gen/workload.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/prng.h"
#include "tree/aggregate.h"
#include "tree/scenario_delta.h"

namespace treeplace {
namespace {

Tree make_fuzz_tree(std::uint64_t seed, std::uint64_t index,
                    int num_internal) {
  TreeGenConfig config;
  config.num_internal = num_internal;
  config.shape = TreeShape{2, 4};
  config.client_probability = 0.8;
  config.min_requests = 1;
  config.max_requests = 5;
  Tree tree = generate_tree(config, seed, index);
  Xoshiro256 pre_rng = make_rng(seed, index, RngStream::kPreExisting);
  assign_random_pre_existing(tree, num_internal / 4, pre_rng,
                             /*num_modes=*/2);
  return tree;
}

/// Client-volume and pre-existing edits over the ORIGINAL tree — the
/// user-level vocabulary the aggregation must fold correctly.
std::vector<ScenarioDelta> random_step(const Topology& topo, Xoshiro256& rng) {
  std::vector<ScenarioDelta> deltas;
  const int edits = 1 + static_cast<int>(rng.uniform(0, 4));
  for (int e = 0; e < edits; ++e) {
    switch (rng.uniform(0, 7)) {
      case 0: {
        const auto& ids = topo.internal_ids();
        deltas.push_back(ScenarioDelta::set_pre_existing(
            ids[rng.uniform(0, ids.size() - 1)],
            static_cast<int>(rng.uniform(0, 1))));
        break;
      }
      case 1: {
        const auto& ids = topo.internal_ids();
        deltas.push_back(ScenarioDelta::clear_pre_existing(
            ids[rng.uniform(0, ids.size() - 1)]));
        break;
      }
      default: {
        const auto& ids = topo.client_ids();
        deltas.push_back(ScenarioDelta::set_requests(
            ids[rng.uniform(0, ids.size() - 1)], rng.uniform(0, 5)));
        break;
      }
    }
  }
  return deltas;
}

void expect_equivalent(const Solution& orig, const Solution& agg,
                       const Aggregation& aggregation,
                       const std::string& context) {
  ASSERT_EQ(orig.feasible, agg.feasible) << context;
  EXPECT_EQ(orig.budget_met, agg.budget_met) << context;
  EXPECT_EQ(orig.placement, aggregation.expand(agg.placement)) << context;
  if (!orig.feasible) return;
  EXPECT_DOUBLE_EQ(orig.breakdown.cost, agg.breakdown.cost) << context;
  EXPECT_DOUBLE_EQ(orig.power, agg.power) << context;
  EXPECT_EQ(orig.breakdown.servers, agg.breakdown.servers) << context;
  EXPECT_EQ(orig.breakdown.reused, agg.breakdown.reused) << context;
  ASSERT_EQ(orig.frontier.size(), agg.frontier.size()) << context;
  for (std::size_t i = 0; i < orig.frontier.size(); ++i) {
    EXPECT_DOUBLE_EQ(orig.frontier[i].cost, agg.frontier[i].cost) << context;
    EXPECT_DOUBLE_EQ(orig.frontier[i].power, agg.frontier[i].power)
        << context;
    EXPECT_EQ(orig.frontier[i].placement,
              aggregation.expand(agg.frontier[i].placement))
        << context;
  }
}

void run_fuzz(const std::string& algo, int solver_threads) {
  const bool single_mode = algo == "update-dp";
  const ModeSet modes =
      single_mode ? ModeSet::single(10) : ModeSet({5, 10}, 12.5, 3.0);
  const CostModel costs =
      single_mode ? CostModel::simple(0.1, 0.01)
                  : CostModel::uniform(modes.count(), 0.1, 0.01, 0.001, 0.001);

  const auto orig_solver = make_solver(algo);
  const auto agg_solver = make_solver(algo);
  orig_solver->set_options(Solver::Options{solver_threads});
  agg_solver->set_options(Solver::Options{solver_threads});

  for (std::uint64_t index = 0; index < 2; ++index) {
    Tree tree = make_fuzz_tree(91, index, 24);
    const Aggregation aggregation(tree.topology_ptr());
    Scenario agg_scenario = aggregation.aggregate(tree.scenario());

    SolveSession orig_session(tree.topology_ptr());
    SolveSession agg_session(aggregation.aggregated());
    Xoshiro256 rng = make_rng(91, index, RngStream::kWorkloadUpdate);

    const auto make_instances = [&] {
      return std::pair<Instance, Instance>{
          single_mode
              ? Instance::single_mode(tree.topology_ptr(), tree.scenario(),
                                      10, 0.1, 0.01)
              : Instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                         std::nullopt},
          single_mode
              ? Instance::single_mode(aggregation.aggregated(), agg_scenario,
                                      10, 0.1, 0.01)
              : Instance{aggregation.aggregated(), agg_scenario, modes, costs,
                         std::nullopt}};
    };

    for (int step = 0; step < 10; ++step) {
      std::vector<ScenarioDelta> deltas;
      if (step > 0) {
        deltas = random_step(tree.topology(), rng);
        for (const ScenarioDelta& delta : deltas) {
          apply_delta(tree.scenario(), delta);
        }
      }
      const std::vector<ScenarioDelta> agg_deltas =
          aggregation.map_deltas(tree.scenario(), deltas);
      for (const ScenarioDelta& delta : agg_deltas) {
        apply_delta(agg_scenario, delta);
      }
      const auto [orig_instance, agg_instance] = make_instances();
      const Solution orig = orig_solver->solve(
          SolveRequest{orig_instance, deltas, &orig_session});
      const Solution agg = agg_solver->solve(
          SolveRequest{agg_instance, agg_deltas, &agg_session});
      expect_equivalent(orig, agg, aggregation,
                        algo + " threads=" + std::to_string(solver_threads) +
                            " tree=" + std::to_string(index) + " step=" +
                            std::to_string(step));
    }
  }
}

TEST(AggregateTest, PowerSymBitIdenticalSerial) { run_fuzz("power-sym", 1); }
TEST(AggregateTest, PowerSymBitIdenticalThreaded) {
  run_fuzz("power-sym", 4);
}
TEST(AggregateTest, PowerExactBitIdenticalSerial) {
  run_fuzz("power-exact", 1);
}
TEST(AggregateTest, PowerExactBitIdenticalThreaded) {
  run_fuzz("power-exact", 4);
}
TEST(AggregateTest, UpdateDpBitIdenticalSerial) { run_fuzz("update-dp", 1); }
TEST(AggregateTest, UpdateDpBitIdenticalThreaded) {
  run_fuzz("update-dp", 4);
}

TEST(AggregateTest, AggregatedScenarioMatchesClientMasses) {
  const Tree tree = make_fuzz_tree(13, 0, 20);
  const Aggregation aggregation(tree.topology_ptr());
  const Scenario agg = aggregation.aggregate(tree.scenario());

  EXPECT_EQ(agg.total_requests(), tree.total_requests());
  for (NodeId node : tree.internal_ids()) {
    const NodeId client = aggregation.aggregate_client(node);
    // Internal ids survive 1:1 and masses match attachment point by
    // attachment point.
    const NodeId agg_node = aggregation.to_aggregated(node);
    EXPECT_EQ(aggregation.to_original(agg_node), node);
    EXPECT_EQ(agg.client_mass(agg_node), tree.client_mass(node));
    if (client != kNoNode) {
      EXPECT_EQ(agg.requests(client), tree.client_mass(node));
      EXPECT_EQ(aggregation.to_original(client), node);
    } else {
      EXPECT_EQ(tree.client_mass(node), 0u);
    }
    EXPECT_EQ(agg.pre_existing(agg_node), tree.pre_existing(node));
  }
}

TEST(AggregateTest, PlacementExpansionRoundTripOnSkewTrees) {
  // The million-user shape: many single-user leaves, few attachment
  // points.  Solve the aggregated instance and expand the placement — it
  // must name valid internal nodes of the original topology, and solving
  // the ORIGINAL instance must produce exactly the expanded placement.
  SkewTreeConfig config;
  config.num_internal = 60;
  config.num_users = 4000;
  config.hub_probability = 0.1;
  config.hub_fanout = 12;
  for (std::uint64_t index = 0; index < 2; ++index) {
    Tree tree = generate_skew_tree(config, 29, index);
    ASSERT_EQ(tree.num_clients(), config.num_users);
    const Aggregation aggregation(tree.topology_ptr());
    const Scenario agg_scenario = aggregation.aggregate(tree.scenario());
    // Aggregation pays for attachment points, not users.
    EXPECT_LE(aggregation.aggregated()->num_nodes(),
              2 * tree.num_internal());

    // Capacities sized to the population: a handful of big servers cover
    // the ~12k total requests, so the boxes stay small while the masses
    // exercise the wide-count regime.
    const ModeSet modes({5000, 20000}, 12.5, 3.0);
    const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
    const auto solver = make_solver("power-sym");
    const Solution agg = solver->solve(Instance{
        aggregation.aggregated(), agg_scenario, modes, costs, std::nullopt});
    ASSERT_TRUE(agg.feasible);
    const Placement expanded = aggregation.expand(agg.placement);
    for (NodeId node : expanded.nodes()) {
      EXPECT_TRUE(tree.is_internal(node));
    }
    const Solution orig = solver->solve(Instance{
        tree.topology_ptr(), tree.scenario(), modes, costs, std::nullopt});
    ASSERT_TRUE(orig.feasible);
    EXPECT_EQ(orig.placement, expanded);
    EXPECT_DOUBLE_EQ(orig.breakdown.cost, agg.breakdown.cost);
    EXPECT_DOUBLE_EQ(orig.power, agg.power);
  }
}

TEST(AggregateTest, MapDeltasFoldsBurstsPerAttachmentPoint) {
  // Many users under one attachment point fold into a single R record
  // carrying the parent's final mass.
  SkewTreeConfig config;
  config.num_internal = 30;
  config.num_users = 500;
  Tree tree = generate_skew_tree(config, 7, 0);
  const Aggregation aggregation(tree.topology_ptr());

  // Pick one attachment point with several users.
  NodeId hot = kNoNode;
  for (NodeId node : tree.internal_ids()) {
    int users = 0;
    for (NodeId child : tree.children(node)) {
      if (tree.is_client(child)) ++users;
    }
    if (users >= 3) {
      hot = node;
      break;
    }
  }
  ASSERT_NE(hot, kNoNode);

  std::vector<ScenarioDelta> deltas;
  for (NodeId child : tree.children(hot)) {
    if (!tree.is_client(child)) continue;
    deltas.push_back(
        ScenarioDelta::set_requests(child, tree.requests(child) + 2));
    apply_delta(tree.scenario(), deltas.back());
  }
  ASSERT_GE(deltas.size(), 3u);

  const std::vector<ScenarioDelta> mapped =
      aggregation.map_deltas(tree.scenario(), deltas);
  ASSERT_EQ(mapped.size(), 1u);
  EXPECT_EQ(mapped.front().op, ScenarioDelta::Op::kSetRequests);
  EXPECT_EQ(mapped.front().node, aggregation.aggregate_client(hot));
  EXPECT_EQ(mapped.front().requests, tree.client_mass(hot));
}

}  // namespace
}  // namespace treeplace
