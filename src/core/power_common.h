// Shared result types for the MinPower-BoundedCost dynamic programs.
//
// Both the exact and the symmetric-cost DP answer every cost bound in one
// pass: the root scan yields the full Pareto frontier of attainable
// (cost, power) pairs, each with a reconstructed placement.  A bounded-cost
// query is then a binary search; MinPower is the frontier's last point.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "model/cost.h"
#include "model/placement.h"

namespace treeplace {

struct PowerParetoPoint {
  double cost = 0.0;
  double power = 0.0;
  Placement placement;
  CostBreakdown breakdown;
};

/// Wall-clock split of one power solve into its phases.  Always on (a
/// few clock reads per solve) and timing-only: nothing here feeds a result
/// value, a work counter or a bit-identity gate.
struct PowerPhaseSeconds {
  double plan = 0.0;         ///< dirty planning (signature diff)
  double join = 0.0;         ///< leaf expansions, slot joins, base folds
  double root = 0.0;         ///< root join and Pareto frontier selection
  double reconstruct = 0.0;  ///< decision walks of the frontier points
  double evaluate = 0.0;     ///< re-pricing the frontier placements

  PowerPhaseSeconds& operator+=(const PowerPhaseSeconds& other);
  PowerPhaseSeconds& operator-=(const PowerPhaseSeconds& other);
};

/// Every PowerPhaseSeconds field, for code that treats the phases alike.
inline constexpr std::array<double PowerPhaseSeconds::*, 5> kPowerPhases{
    &PowerPhaseSeconds::plan, &PowerPhaseSeconds::join,
    &PowerPhaseSeconds::root, &PowerPhaseSeconds::reconstruct,
    &PowerPhaseSeconds::evaluate};

inline PowerPhaseSeconds& PowerPhaseSeconds::operator+=(
    const PowerPhaseSeconds& other) {
  for (const auto field : kPowerPhases) this->*field += other.*field;
  return *this;
}

inline PowerPhaseSeconds& PowerPhaseSeconds::operator-=(
    const PowerPhaseSeconds& other) {
  for (const auto field : kPowerPhases) this->*field -= other.*field;
  return *this;
}

struct PowerSolveStats {
  /// (left label, right label) pairs visited by the slot joins and the
  /// root join.
  std::uint64_t merge_pairs = 0;
  /// Labels kept by every slot built (leaf expansions and joins, after
  /// pruning): a deterministic count of the tables' size, so a pruning
  /// regression shows up as a counter change.
  std::uint64_t labels = 0;
  /// Merge-plan slots actually built (leaf expansions + internal joins).
  /// A cold solve builds 2k-1 per node with k internal children; a warm
  /// solve with one dirty child builds O(log k) (see dp::MergePlan).
  std::uint64_t merge_steps = 0;
  /// Warm-start accounting: subtree tables rebuilt this solve vs. spliced
  /// in from the cache.  A cold solve recomputes every internal node.
  std::uint64_t nodes_recomputed = 0;
  std::uint64_t nodes_reused = 0;
  /// NodeSignatures compared while planning: num_internal on the full
  /// sweep, the touched-set size on the delta fast path.
  std::uint64_t signatures_checked = 0;
  double solve_seconds = 0.0;
  PowerPhaseSeconds phases;
};

struct PowerDPResult {
  bool feasible = false;
  /// Ascending cost, strictly descending power.
  std::vector<PowerParetoPoint> frontier;
  PowerSolveStats stats;

  /// Minimum-power point whose cost is within `bound` (inclusive, with a
  /// 1e-9 tolerance); nullptr when no solution fits the budget.
  const PowerParetoPoint* best_within_cost(double bound) const {
    const PowerParetoPoint* best = nullptr;
    for (const PowerParetoPoint& p : frontier) {
      if (p.cost <= bound + 1e-9) best = &p;  // power decreases along the list
    }
    return best;
  }

  /// Unconstrained minimum power (MinPower); nullptr when infeasible.
  const PowerParetoPoint* min_power() const {
    return frontier.empty() ? nullptr : &frontier.back();
  }
};

}  // namespace treeplace
