// A reference for the power DPs' Pareto root join: the full root scan.
//
// The engines never build the root's last merge slot; they pair the
// non-dominated cells of its two operand slots (core/pareto_root.h).
// This header computes the root frontier the direct way from a cached
// solve's root state: the full min-flow join of the two operands (first
// occurrence of the least flow wins, as in the join kernel), the
// client-mass fold, the scan of every root cell x root option, the
// frontier sweep, and the decision walk of each chosen point.  Tests compare the engines'
// frontiers — values and witness placements — against it bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include <string>

#include "core/dp_cache.h"
#include "core/exhaustive.h"
#include "core/power_common.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "model/cost.h"
#include "model/modes.h"
#include "model/placement.h"
#include "support/prng.h"
#include "tree/tree.h"

namespace treeplace::testing {

/// Prices one root count vector: fills cost, power and servers exactly as
/// the engine's make_candidate does (same operations, same order).
struct RootPrice {
  double cost = 0.0;
  double power = 0.0;
  int servers = 0;
};
using PriceFn = std::function<RootPrice(const std::vector<int>& counts)>;
/// The count-vector dimensions a replica on the root at mode w increments
/// (the symmetric DP also bumps its same/changed dimension).  `near_ties`,
/// when set, counts adjacent sorted candidates whose costs differ by a
/// rounding-sized amount (0 < gap <= 1e-9) — the cases the root join's
/// near-tie rule exists for.
using RootDimsFn = std::function<std::vector<std::size_t>(int w)>;

namespace detail {

inline void walk_slot(const Topology& topo, dp::PowerSubtreeCache& cache,
                      dp::MergePlanCache& plans, const dp::PowerNodeState& s,
                      std::span<const NodeId> children,
                      const dp::MergePlan& mplan, std::uint32_t slot,
                      std::size_t flat, Placement& placement) {
  const dp::Decision d = s.slot_decisions[slot][flat];
  if (slot < mplan.num_leaves()) {
    const NodeId c = children[slot];
    if (d.mode >= 0) placement.add(c, d.mode);
    reconstruct_power_subtree(topo, cache, plans, c, d.right, placement);
    return;
  }
  const dp::MergePlan::Step& step = mplan.steps()[slot - mplan.num_leaves()];
  walk_slot(topo, cache, plans, s, children, mplan, step.left, d.left,
            placement);
  walk_slot(topo, cache, plans, s, children, mplan, step.right, d.right,
            placement);
}

}  // namespace detail

/// The frontier the full root scan picks over `cache`'s root state (the
/// cache must hold a completed solve of (topo, scen); `dims` is the
/// engine's count-vector width).  Points carry the evaluator's prices,
/// like the engines' frontiers.
inline std::vector<PowerParetoPoint> full_root_scan(
    const Topology& topo, const Scenario& scen, const ModeSet& modes,
    const CostModel& costs, std::size_t dims, dp::PowerSubtreeCache& cache,
    const PriceFn& price, const RootDimsFn& root_dims,
    std::size_t* near_ties = nullptr) {
  const NodeId root = topo.root();
  const std::size_t ri = topo.internal_index(root);
  cache.ensure_unpacked(ri);
  const dp::PowerNodeState& s = cache.state(ri);
  const auto children = topo.internal_children(root);
  dp::MergePlanCache plans;
  const dp::MergePlan& mplan = plans.get(children.size());
  const RequestCount cap = modes.max_capacity();

  // Operand slots: the last step's two operands, a lone leaf, or none.
  std::vector<std::uint32_t> operands;
  if (mplan.num_leaves() == 1) operands = {0};
  if (!mplan.steps().empty()) {
    operands = {mplan.steps().back().left, mplan.steps().back().right};
  }
  std::vector<int> bounds(dims, 0);
  for (const std::uint32_t o : operands) {
    const std::vector<int>& b = s.slot_boxes[o].bounds();
    for (std::size_t d = 0; d < dims; ++d) bounds[d] += b[d];
  }
  const dp::Box rbox(bounds);

  // Full join: flow and (left, right) winner per root cell.
  struct Cell {
    RequestCount flow = dp::kInvalidFlow;
    std::uint32_t left = 0;
    std::uint32_t right = 0;
  };
  std::vector<Cell> table(rbox.size());
  std::vector<int> digits(rbox.dims());
  if (operands.empty()) {
    table[0].flow = 0;
  } else {
    // Valid cells of an operand (the empty cell for a lone leaf's missing
    // partner) with their offsets in the root box, in ascending flat order.
    struct Entry {
      std::uint32_t flat;
      RequestCount flow;
      std::size_t dot;
    };
    const auto entries = [&](std::size_t k) {
      std::vector<Entry> out;
      if (k >= operands.size()) return std::vector<Entry>{{0, 0, 0}};
      const dp::Box& box = s.slot_boxes[operands[k]];
      const auto& flow = s.slot_flows[operands[k]];
      std::vector<int> d;
      for (std::size_t flat = 0; flat < box.size(); ++flat) {
        if (flow[flat] == dp::kInvalidFlow) continue;
        box.decode(flat, d);
        out.push_back({static_cast<std::uint32_t>(flat), flow[flat],
                       rbox.flat(d)});
      }
      return out;
    };
    const std::vector<Entry> left = entries(0);
    const std::vector<Entry> right = entries(1);
    for (const Entry& a : left) {
      for (const Entry& b : right) {
        const RequestCount sum = a.flow + b.flow;
        if (sum > cap) continue;
        Cell& cell = table[a.dot + b.dot];
        if (sum < cell.flow) cell = Cell{sum, a.flat, b.flat};
      }
    }
  }

  struct Candidate {
    RootPrice price;
    std::uint32_t flat;
    std::int8_t root_mode;
  };
  std::vector<Candidate> candidates;
  const RequestCount base = scen.client_mass(root);
  for (std::size_t flat = 0; flat < table.size(); ++flat) {
    if (table[flat].flow == dp::kInvalidFlow) continue;
    const RequestCount f = table[flat].flow + base;
    if (f > cap) continue;
    rbox.decode(flat, digits);
    if (f == 0) {
      candidates.push_back(
          {price(digits), static_cast<std::uint32_t>(flat), -1});
    }
    for (int w = modes.mode_for_load(f); w < modes.count(); ++w) {
      std::vector<int> counts = digits;
      for (const std::size_t d : root_dims(w)) counts[d] += 1;
      candidates.push_back({price(counts), static_cast<std::uint32_t>(flat),
                            static_cast<std::int8_t>(w)});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.price.cost != b.price.cost) {
                return a.price.cost < b.price.cost;
              }
              if (a.price.power != b.price.power) {
                return a.price.power < b.price.power;
              }
              if (a.price.servers != b.price.servers) {
                return a.price.servers < b.price.servers;
              }
              if (a.flat != b.flat) return a.flat < b.flat;
              return a.root_mode < b.root_mode;
            });
  constexpr double kEps = 1e-9;
  for (std::size_t i = 1; near_ties != nullptr && i < candidates.size(); ++i) {
    const double gap = candidates[i].price.cost - candidates[i - 1].price.cost;
    if (gap > 0.0 && gap <= kEps) ++*near_ties;
  }
  std::vector<Candidate> swept;
  for (const Candidate& c : candidates) {
    if (swept.empty() || c.price.power < swept.back().price.power - kEps) {
      if (!swept.empty() &&
          std::fabs(c.price.cost - swept.back().price.cost) <= kEps) {
        swept.back() = c;
      } else {
        swept.push_back(c);
      }
    }
  }

  std::vector<PowerParetoPoint> frontier;
  for (const Candidate& c : swept) {
    PowerParetoPoint point;
    if (c.root_mode >= 0) point.placement.add(root, c.root_mode);
    if (!operands.empty()) {
      const Cell& cell = table[c.flat];
      detail::walk_slot(topo, cache, plans, s, children, mplan, operands[0],
                        cell.left, point.placement);
      if (operands.size() == 2) {
        detail::walk_slot(topo, cache, plans, s, children, mplan,
                          operands[1], cell.right, point.placement);
      }
    }
    point.breakdown = evaluate_cost(topo, scen, point.placement, costs);
    point.cost = point.breakdown.cost;
    point.power = total_power(point.placement, modes);
    frontier.push_back(std::move(point));
  }
  return frontier;
}

/// A `treeplace gen` tree: the CLI's generator defaults (fat shape,
/// client probability 0.5, 1-6 requests), `num_pre` random pre-existing
/// servers over `num_modes` original modes.
inline Tree make_gen_tree(std::uint64_t seed, std::uint64_t index, int nodes,
                          std::size_t num_pre, int num_modes) {
  TreeGenConfig config;
  config.num_internal = nodes;
  Tree tree = generate_tree(config, seed, index);
  Xoshiro256 rng = make_rng(seed, index, RngStream::kPreExisting);
  assign_random_pre_existing(tree, num_pre, rng, num_modes);
  return tree;
}

using PowerEngineFn = std::function<PowerDPResult(
    const Topology&, const Scenario&, const ModeSet&, const CostModel&,
    const PowerDPOptions&)>;

/// One engine's side of the near-tie fuzz: its solve entry point, its
/// count-vector width, and its candidate pricing for one instance.
struct RootFuzzEngine {
  PowerEngineFn solve;
  std::size_t dims = 0;
  std::function<PriceFn(const Scenario&)> price;
  std::function<RootDimsFn(const Topology&, const Scenario&)> root_dims;
};

struct RootFuzzConfig {
  std::string name;
  ModeSet modes;
  CostModel costs;
};

struct RootFuzzTally {
  int oracle_trees = 0;     ///< trees also checked against the oracle
  std::size_t near_ties = 0;
};

inline void expect_same_frontier(const std::vector<PowerParetoPoint>& got,
                                 const std::vector<PowerParetoPoint>& want,
                                 const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].cost, want[i].cost) << context << " point " << i;
    EXPECT_EQ(got[i].power, want[i].power) << context << " point " << i;
    EXPECT_TRUE(got[i].placement == want[i].placement)
        << context << " point " << i;
  }
}

/// Solves `trees` random gen trees per config three ways — one-shot at 1
/// and 4 solver threads, and through a cache — and demands bit-identical
/// frontiers, witnesses and work counters among them and against the full
/// root scan; trees of at most `oracle_nodes` internal nodes are also
/// checked bit for bit against the exhaustive-power oracle's values.
/// Adds the regime's coverage to `tally`.
inline void run_root_fuzz(const RootFuzzEngine& engine,
                          const RootFuzzConfig& config, std::uint64_t seed,
                          int trees, int max_nodes, int oracle_nodes,
                          RootFuzzTally& tally) {
  const int num_modes = config.modes.count();
  Xoshiro256 size_rng = make_rng(seed, 0, RngStream::kWorkloadUpdate);
  for (int t = 0; t < trees; ++t) {
    const int nodes = static_cast<int>(size_rng.uniform(1, max_nodes));
    const std::size_t num_pre =
        static_cast<std::size_t>(size_rng.uniform(0, nodes / 2));
    const Tree tree = make_gen_tree(seed, static_cast<std::uint64_t>(t),
                                    nodes, num_pre, num_modes);
    const std::string context = config.name + " tree " + std::to_string(t) +
                                " (" + std::to_string(nodes) + " nodes)";
    PowerDPOptions serial;
    PowerDPOptions threaded;
    threaded.threads = 4;
    dp::PowerSubtreeCache cache;
    PowerDPOptions cached;
    cached.cache = &cache;
    const PowerDPResult one = engine.solve(tree.topology(), tree.scenario(),
                                           config.modes, config.costs, serial);
    const PowerDPResult four = engine.solve(
        tree.topology(), tree.scenario(), config.modes, config.costs, threaded);
    const PowerDPResult warm = engine.solve(
        tree.topology(), tree.scenario(), config.modes, config.costs, cached);
    ASSERT_EQ(one.feasible, four.feasible) << context;
    ASSERT_EQ(one.feasible, warm.feasible) << context;
    expect_same_frontier(four.frontier, one.frontier, context + " 4 threads");
    expect_same_frontier(warm.frontier, one.frontier, context + " cached");
    EXPECT_EQ(four.stats.merge_pairs, one.stats.merge_pairs) << context;
    EXPECT_EQ(warm.stats.merge_pairs, one.stats.merge_pairs) << context;
    if (!one.feasible) continue;

    const std::vector<PowerParetoPoint> full = full_root_scan(
        tree.topology(), tree.scenario(), config.modes, config.costs,
        engine.dims, cache, engine.price(tree.scenario()),
        engine.root_dims(tree.topology(), tree.scenario()),
        &tally.near_ties);
    expect_same_frontier(one.frontier, full, context + " vs full root scan");

    if (nodes <= oracle_nodes) {
      ++tally.oracle_trees;
      const std::vector<CostPowerPoint> oracle =
          exhaustive_cost_power_frontier(tree.topology(), tree.scenario(),
                                         config.modes, config.costs);
      ASSERT_EQ(one.frontier.size(), oracle.size()) << context;
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(one.frontier[i].cost, oracle[i].cost)
            << context << " oracle point " << i;
        EXPECT_EQ(one.frontier[i].power, oracle[i].power)
            << context << " oracle point " << i;
      }
    }
  }
}

}  // namespace treeplace::testing
