// The Pareto root join of the power DPs.
//
// The root's frontier needs only a few points, yet joining its last
// merge-plan step into a full table is the largest join of a solve by
// far (~160k cells on the aggregated 400-node benchmark tree, 89% of a
// cold solve's pairs).  The power engines therefore never build that
// table: they pair the two operand slots' *non-dominated* cells instead.
//
// Why pruning an operand cell is exact: a candidate's cost and power are
// linear in its count vector (plus a constant), so a cell has a partial
// cost and a partial power, and both add across the join.  If cell a'
// has a flow no larger than cell a and a partial cost and partial power
// each lower by more than a tolerance, then for every completion (the
// other operand's cell b, the root's own option) a' + b is feasible
// whenever a + b is — it even admits every root mode a + b does — and is
// strictly better in both objectives.  The frontier sweep (ascending
// cost, strictly descending power) therefore never keeps a candidate
// built on a: dropping it changes neither the frontier values nor which
// witness is chosen.  The same holds when a' and a share a cost key
// (their candidates then cost bit-identically) and a' has the lower
// power by more than the tolerance.
//
// The tolerance is what keeps near-ties exact.  Two count vectors can
// price to the same real cost yet round one ulp apart (10.25 against
// 10.250000000000002); pruning on exact ties or on rounding-level
// differences would let the rounding decide which of them survives and
// can lose the one the full scan's comparator picks.  A cell is dropped
// only when it is worse by more than the tolerance in *both* criteria.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dp_cache.h"
#include "core/dp_util.h"
#include "core/power_common.h"
#include "model/cost.h"
#include "model/modes.h"
#include "model/placement.h"
#include "support/timer.h"
#include "tree/scenario.h"
#include "tree/topology.h"

namespace treeplace::dp {

/// One non-dominated cell of a root-join operand.
struct RootCell {
  std::uint32_t flat = 0;  ///< index in the operand slot's box
  RequestCount flow = 0;
  /// Digit dot-product against the root box strides: two cells' dots add
  /// to the flat index of their join in the root box.
  std::uint64_t dot = 0;
  double cost = 0.0;   ///< partial cost (see RootPricing)
  double power = 0.0;  ///< partial power: sum of digit x power coefficient
  /// Mixed-radix code of the cell's cost-group sums: equal keys mean equal
  /// group sums, hence bit-identical candidate costs for every completion.
  std::uint64_t cost_key = 0;
};

/// How the root-join operand cells are priced.  Each box dimension adds
/// its digit to one cost group; a cell's partial cost is the sum over
/// groups of (group digit sum x group coefficient), always evaluated in
/// group order, so cells with equal group sums price bit-identically.
/// The symmetric DP groups its per-mode server dimensions (its candidate
/// cost depends only on the server total and the same/changed reuse
/// counts); the exact DP gives every dimension its own group.
struct RootPricing {
  std::vector<std::uint32_t> cost_group;  ///< per dimension
  std::vector<double> group_cost;         ///< per group
  std::vector<double> power_coef;         ///< per dimension
  double cost_tol = 0.0;
  double power_tol = 0.0;
};

/// The root join's operand slots: the last merge-plan step's two
/// operands; a root with one internal child has its leaf slot on the left
/// only, a childless root has neither.  kNoSlot stands for the single
/// empty cell (flow 0, all counts 0).
struct RootOperands {
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  std::uint32_t left = kNoSlot;
  std::uint32_t right = kNoSlot;
};

inline RootOperands root_operands(const MergePlan& mplan) {
  RootOperands ops;
  if (mplan.num_leaves() == 1) ops.left = 0;
  if (!mplan.steps().empty()) {
    ops.left = mplan.steps().back().left;
    ops.right = mplan.steps().back().right;
  }
  return ops;
}

/// The root keeps no folded table: every solve's root join reads its
/// operand slots, so a clean root whose slot snapshots were shed (or never
/// restored) must be rebuilt instead of spliced.  Patches a planned solve
/// accordingly.
inline void require_root_operands(const Topology& topo,
                                  PowerSubtreeCache* cache, DirtyPlan& plan) {
  const std::size_t ri = topo.internal_index(topo.root());
  if (cache == nullptr || plan.dirty[ri] != 0 || cache->resumable(ri)) return;
  plan.dirty[ri] = 1;
  plan.resume[ri] = 0;
  cache->invalidate(ri);
}

/// The box a full join of the root's operands would fill (their bounds
/// added up; all-zero for a childless root).  Candidate flats index this
/// box, so they tie-break exactly as that join's output cells would.
Box root_box(const PowerNodeState& s, const RootOperands& ops,
             std::size_t dims);

/// The non-dominated valid cells of one operand slot of the root's state
/// (kNoSlot: the single empty cell), in ascending flat order.  Cell a'
/// dominates a when a'.flow <= a.flow, a'.power < a.power - power_tol,
/// and a'.cost < a.cost - cost_tol or the two share a cost key.  Adds the
/// scan's work — operand cells visited plus dominance tests run — to
/// `scan_work`.
void root_operand_cells(const PowerNodeState& s, std::uint32_t slot,
                        const Box& root_box, const RootPricing& pricing,
                        std::vector<RootCell>& out, std::uint64_t& scan_work);

/// One candidate of the root join: a feasible pair of kept operand cells
/// completed by one of the root's own options.
struct RootCandidate {
  double cost = 0.0;
  double power = 0.0;
  std::uint32_t flat = 0;      ///< the pair's cell in the root box
  std::int8_t root_mode = -1;  ///< -1: no server at root
  int servers = 0;
  RequestCount flow = 0;   ///< open flow at the root, client mass folded
  std::uint32_t left = 0;  ///< operand cells (see RootOperands)
  std::uint32_t right = 0;
};

/// Pairs every kept left cell with every kept right cell under the W_M
/// cut, with the root's client mass `base` folded in, and expands each
/// feasible pair into the root's own options: no server (only when the
/// folded flow is 0) and a server at every mode that can carry it.
/// `add_root_server(counts, w)` bumps the count-vector dimensions of a
/// root server at mode w; `price(counts, flat, w)` is the engine's
/// make_candidate (cost, power, servers, flat and root mode filled).
/// Counts the pairs visited into `pairs`.
template <typename AddRootServer, typename Price>
std::vector<RootCandidate> pair_root_cells(std::span<const RootCell> left,
                                           std::span<const RootCell> right,
                                           const Box& root_box,
                                           RequestCount base,
                                           const ModeSet& modes,
                                           std::uint64_t& pairs,
                                           AddRootServer&& add_root_server,
                                           Price&& price) {
  const RequestCount w_max = modes.max_capacity();
  std::vector<RootCandidate> candidates;
  std::vector<int> digits(root_box.dims());
  std::vector<int> counts(root_box.dims());
  for (const RootCell& a : left) {
    for (const RootCell& b : right) {
      ++pairs;
      const RequestCount joined = a.flow + b.flow;
      if (joined > w_max || joined + base > w_max) continue;
      const RequestCount f = joined + base;
      const std::size_t flat = static_cast<std::size_t>(a.dot + b.dot);
      root_box.decode(flat, digits);
      const auto add = [&](std::int8_t w) {
        RootCandidate c = price(counts, flat, w);
        c.flow = f;
        c.left = a.flat;
        c.right = b.flat;
        candidates.push_back(c);
      };
      if (f == 0) {
        counts.assign(digits.begin(), digits.end());
        add(-1);
      }
      for (int w = modes.mode_for_load(f); w < modes.count(); ++w) {
        counts.assign(digits.begin(), digits.end());
        add_root_server(counts, w);
        add(static_cast<std::int8_t>(w));
      }
    }
  }
  return candidates;
}

/// Sorts the candidates and sweeps out the Pareto frontier: ascending
/// cost, strictly descending power (1e-9 margins), the comparator-first
/// candidate kept on ties.  The comparator ends on the flat the full root
/// table would have used, then (flow, left cell, right cell) — the join
/// kernel's min-flow, first-occurrence winner — so the witness of every
/// point is the one a full root scan would choose.
std::vector<RootCandidate> select_root_frontier(
    std::vector<RootCandidate> candidates);

/// Walks a root candidate's operand cells: walk(slot, flat) for the left
/// operand and, when the root has one, the right.  A childless root has
/// nothing to walk.
template <typename WalkSlot>
void walk_root_operands(const MergePlan& mplan, const RootCandidate& c,
                        WalkSlot&& walk) {
  const RootOperands ops = root_operands(mplan);
  if (ops.left == RootOperands::kNoSlot) return;
  walk(ops.left, c.left);
  if (ops.right != RootOperands::kNoSlot) walk(ops.right, c.right);
}

/// Turns the chosen candidates into frontier points: `reconstruct(c,
/// placement)` fills the placement (root server included), which is then
/// re-priced by the evaluator.  Times the two steps into `phases`.
template <typename Reconstruct>
void emit_root_frontier(std::span<const RootCandidate> chosen,
                        const Topology& topo, const Scenario& scen,
                        const ModeSet& modes, const CostModel& costs,
                        Reconstruct&& reconstruct,
                        PowerDPResult& result, PowerPhaseSeconds& phases) {
  if (chosen.empty()) return;
  result.feasible = true;
  result.frontier.reserve(chosen.size());
  for (const RootCandidate& c : chosen) {
    Stopwatch phase;
    PowerParetoPoint point;
    reconstruct(c, point.placement);
    phases.reconstruct += phase.seconds();
    phase.reset();
    point.breakdown = evaluate_cost(topo, scen, point.placement, costs);
    point.cost = point.breakdown.cost;
    point.power = total_power(point.placement, modes);
    TREEPLACE_DCHECK(std::fabs(point.cost - c.cost) < 1e-6);
    TREEPLACE_DCHECK(std::fabs(point.power - c.power) < 1e-6);
    phases.evaluate += phase.seconds();
    result.frontier.push_back(std::move(point));
  }
}

/// The pruning tolerance for one criterion: 1e-6 absolute, widened to
/// cover rounding when `scale` — a bound on the summed magnitudes of every
/// term of a candidate's value — is large (powers of high-capacity modes
/// reach 1e15, where one ulp is already 0.125).
inline double near_tie_tolerance(double scale) { return 1e-6 + 1e-10 * scale; }

}  // namespace treeplace::dp
