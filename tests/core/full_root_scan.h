// A reference for the power DPs: the unpruned count-vector DP.
//
// The engines keep only non-dominated labels per table and pair the root's
// two operand lists directly (core/pareto_root.h).  This header solves the
// same instance the direct way and reads no engine state: per internal
// node, every reachable count vector with its least flow, children
// combined along the same balanced merge tree (each child expanded by its
// own placement options, then joined in halves), the client mass folded
// in, and at the root every cell x root option scanned into the frontier
// sweep.  Ties go to the first candidate reaching the least flow in
// ascending count-vector order — the join kernel's rule — so the witness
// placements are the ones the paper's table DP picks.  Tests compare the
// engines' frontiers, values and witnesses, against it bit for bit.
//
// The count-vector semantics (which dimensions a replica increments, how
// a root count vector prices) come from the test's own copy of each key,
// never from the engine.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/exhaustive.h"
#include "core/power_common.h"
#include "core/power_dp.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "model/cost.h"
#include "model/modes.h"
#include "model/placement.h"
#include "support/check.h"
#include "support/prng.h"
#include "tree/tree.h"

namespace treeplace::testing {

/// Prices one root count vector: cost, power and servers exactly as the
/// engine's make_candidate does (same operations, same order).
struct RootPrice {
  double cost = 0.0;
  double power = 0.0;
  int servers = 0;
};
using PriceFn = std::function<RootPrice(const std::vector<int>& counts)>;
/// The count-vector dimensions a replica on `node` at mode w increments.
using ReplicaDimsFn =
    std::function<std::vector<std::size_t>(NodeId node, int w)>;

namespace detail {

/// Where a cell's least flow came from: a replica on `node` over a child
/// cell, or the join of two operand cells.
struct Witness {
  NodeId node = kNoNode;
  int mode = -1;
  std::shared_ptr<const Witness> left;
  std::shared_ptr<const Witness> right;
};

struct Cell {
  RequestCount flow = 0;
  std::shared_ptr<const Witness> witness;
};

/// Count vectors encoded mixed-radix with dimension 0 most significant, so
/// the map's key order is the ascending flat order of every box.
using Table = std::map<std::uint64_t, Cell>;

class UnprunedDp {
 public:
  UnprunedDp(const Topology& topo, const Scenario& scen, const ModeSet& modes,
             std::size_t dims, const ReplicaDimsFn& replica_dims)
      : topo_(topo),
        scen_(scen),
        modes_(modes),
        dims_(dims),
        replica_dims_(replica_dims),
        radix_(static_cast<std::uint64_t>(topo.num_internal()) + 2),
        weight_(dims, 1) {
    for (std::size_t d = dims; d-- > 1;) {
      TREEPLACE_CHECK_MSG(
          weight_[d] <= ~std::uint64_t{0} / radix_ / radix_,
          "count vectors too wide for the oracle's 64-bit key");
      weight_[d - 1] = weight_[d] * radix_;
    }
  }

  std::vector<int> decode(std::uint64_t key) const {
    std::vector<int> digits(dims_);
    for (std::size_t d = 0; d < dims_; ++d) {
      digits[d] = static_cast<int>(key / weight_[d]);
      key %= weight_[d];
    }
    return digits;
  }

  std::uint64_t add_replica(std::uint64_t key, NodeId node, int w) const {
    for (const std::size_t d : replica_dims_(node, w)) key += weight_[d];
    return key;
  }

  /// The node's children combined (the root table before its client mass
  /// folds in); nullopt when some client mass below exceeds W_M.
  std::optional<Table> combined(NodeId j) const {
    const auto children = topo_.internal_children(j);
    if (children.empty()) return Table{{0, Cell{0, nullptr}}};
    return combine(children, 0, children.size());
  }

 private:
  static void offer(Table& t, std::uint64_t key, RequestCount flow,
                    std::shared_ptr<const Witness> witness) {
    auto [it, inserted] = t.try_emplace(key, Cell{flow, witness});
    if (!inserted && flow < it->second.flow) it->second = {flow, witness};
  }

  std::optional<Table> combine(std::span<const NodeId> children,
                               std::size_t lo, std::size_t hi) const {
    if (hi - lo == 1) return leaf(children[lo]);
    const std::size_t mid = lo + (hi - lo) / 2;
    std::optional<Table> left = combine(children, lo, mid);
    if (!left) return std::nullopt;
    std::optional<Table> right = combine(children, mid, hi);
    if (!right) return std::nullopt;
    Table out;
    for (const auto& [a, ca] : *left) {
      for (const auto& [b, cb] : *right) {
        const RequestCount f = ca.flow + cb.flow;
        if (f > modes_.max_capacity()) continue;
        offer(out, a + b, f,
              std::make_shared<const Witness>(
                  Witness{kNoNode, -1, ca.witness, cb.witness}));
      }
    }
    return out;
  }

  /// Child c's folded table, extended by a replica on c at every mode
  /// that can carry the cell's flow.
  std::optional<Table> leaf(NodeId c) const {
    const RequestCount base = scen_.client_mass(c);
    if (base > modes_.max_capacity()) return std::nullopt;
    std::optional<Table> inner = combined(c);
    if (!inner) return std::nullopt;
    Table out;
    for (const auto& [v, cell] : *inner) {
      const RequestCount f = cell.flow + base;
      if (f > modes_.max_capacity()) continue;
      offer(out, v, f, cell.witness);
      for (int w = modes_.mode_for_load(f); w < modes_.count(); ++w) {
        offer(out, add_replica(v, c, w), 0,
              std::make_shared<const Witness>(
                  Witness{c, w, cell.witness, nullptr}));
      }
    }
    return out;
  }

  const Topology& topo_;
  const Scenario& scen_;
  const ModeSet& modes_;
  const std::size_t dims_;
  const ReplicaDimsFn& replica_dims_;
  const std::uint64_t radix_;
  std::vector<std::uint64_t> weight_;
};

inline void add_witness(const std::shared_ptr<const Witness>& w,
                        Placement& placement) {
  if (w == nullptr) return;
  if (w->node != kNoNode) placement.add(w->node, w->mode);
  add_witness(w->left, placement);
  add_witness(w->right, placement);
}

}  // namespace detail

/// The frontier of the unpruned count-vector DP over `dims`-wide count
/// vectors (empty when infeasible).  Points carry the evaluator's prices,
/// like the engines' frontiers.  `near_ties`, when set, counts adjacent
/// sorted candidates whose costs differ by a rounding-sized amount
/// (0 < gap <= 1e-9) — the cases the pruning margins exist for.
inline std::vector<PowerParetoPoint> unpruned_frontier(
    const Topology& topo, const Scenario& scen, const ModeSet& modes,
    const CostModel& costs, std::size_t dims, const PriceFn& price,
    const ReplicaDimsFn& replica_dims, std::size_t* near_ties = nullptr) {
  const NodeId root = topo.root();
  const detail::UnprunedDp dp(topo, scen, modes, dims, replica_dims);
  const RequestCount base = scen.client_mass(root);
  if (base > modes.max_capacity()) return {};
  const std::optional<detail::Table> table = dp.combined(root);
  if (!table) return {};

  struct Candidate {
    RootPrice price;
    std::uint64_t key;
    int root_mode;
    const detail::Cell* cell;
  };
  std::vector<Candidate> candidates;
  for (const auto& [key, cell] : *table) {
    const RequestCount f = cell.flow + base;
    if (f > modes.max_capacity()) continue;
    if (f == 0) candidates.push_back({price(dp.decode(key)), key, -1, &cell});
    for (int w = modes.mode_for_load(f); w < modes.count(); ++w) {
      candidates.push_back(
          {price(dp.decode(dp.add_replica(key, root, w))), key, w, &cell});
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
              if (a.key != b.key) return a.key < b.key;
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
    detail::add_witness(c.cell->witness, point.placement);
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

/// One engine's side of the oracle comparisons: its solve entry point,
/// its count-vector width, its candidate pricing and its replica
/// dimensions for one instance.
struct RootFuzzEngine {
  PowerEngineFn solve;
  std::size_t dims = 0;
  std::function<PriceFn(const Scenario&)> price;
  std::function<ReplicaDimsFn(const Scenario&)> replica_dims;

  std::vector<PowerParetoPoint> oracle(const Tree& tree, const ModeSet& modes,
                                       const CostModel& costs,
                                       std::size_t* near_ties = nullptr) const {
    return unpruned_frontier(tree.topology(), tree.scenario(), modes, costs,
                             dims, price(tree.scenario()),
                             replica_dims(tree.scenario()), near_ties);
  }
};

struct RootFuzzConfig {
  std::string name;
  ModeSet modes;
  CostModel costs;
};

struct RootFuzzTally {
  int oracle_trees = 0;     ///< trees also checked against exhaustive-power
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

/// Solves `trees` random gen trees per config two ways — one-shot and
/// through a cache — and demands bit-identical frontiers, witnesses and
/// work counters between them and bit-identical frontiers and witnesses
/// against the unpruned DP; trees of at most `oracle_nodes` internal
/// nodes are also checked bit for bit against the exhaustive-power
/// oracle's values.  Adds the regime's coverage to `tally`.
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
    dp::PowerSubtreeCache cache;
    PowerDPOptions cached;
    cached.cache = &cache;
    const PowerDPResult one = engine.solve(tree.topology(), tree.scenario(),
                                           config.modes, config.costs, {});
    const PowerDPResult warm = engine.solve(
        tree.topology(), tree.scenario(), config.modes, config.costs, cached);
    ASSERT_EQ(one.feasible, warm.feasible) << context;
    expect_same_frontier(warm.frontier, one.frontier, context + " cached");
    EXPECT_EQ(warm.stats.merge_pairs, one.stats.merge_pairs) << context;
    EXPECT_EQ(warm.stats.labels, one.stats.labels) << context;

    const std::vector<PowerParetoPoint> full =
        engine.oracle(tree, config.modes, config.costs, &tally.near_ties);
    ASSERT_EQ(one.feasible, !full.empty()) << context;
    expect_same_frontier(one.frontier, full, context + " vs unpruned DP");
    if (!one.feasible) continue;

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
