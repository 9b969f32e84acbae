// Pareto label machinery of the power DPs: dominance pruning and the root
// join.
//
// The power engines store every merge-plan slot and folded node table as a
// short list of labels (core/dp_cache.h): a count vector, its least flow
// and the decision behind it.  After every leaf expansion and join a list
// is pruned to its non-dominated labels, and the root pairs its two
// operand lists directly instead of building its last table.
//
// Why pruning is exact: a candidate's cost and power are linear in its
// count vector (plus a constant), so a label has a partial cost and a
// partial power, and both add across every later join, expansion and
// fold.  If label a' has a flow no larger than label a and a partial cost
// and partial power each lower by more than a tolerance, then for every
// completion (the rest of the tree, the root's own option) the solution
// built on a' is feasible whenever the one built on a is — a smaller flow
// admits every server mode and passes every W_M cut a larger one does —
// and is strictly better in both objectives.  The frontier sweep
// (ascending cost, strictly descending power) therefore never keeps a
// candidate built on a: dropping it changes neither the frontier values
// nor which witness is chosen.  The same holds when a' and a share a cost
// key (their candidates then cost bit-identically) and a' has the lower
// power by more than the tolerance.  The labels a frontier witness is
// built from are never dominated, so each keeps the flow and the
// first-occurrence decision the unpruned count-vector table gives it.
//
// The tolerance is what keeps near-ties exact.  Two count vectors can
// price to the same real cost yet round one ulp apart (10.25 against
// 10.250000000000002); pruning on exact ties or on rounding-level
// differences would let the rounding decide which of them survives and
// can lose the one the full scan's comparator picks.  A label is dropped
// only when it is worse by more than the tolerance in *both* criteria.
// The tolerances depend only on the topology size, the modes and the
// costs — what the cache params key — so warm and cold solves prune alike.
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

/// How labels are priced for pruning.  Each box dimension adds its digit
/// to one cost group; a label's partial cost is the sum over groups of
/// (group digit sum x group coefficient), always evaluated in group
/// order, so labels with equal group sums price bit-identically.  The
/// symmetric DP groups its per-mode server dimensions (its candidate cost
/// depends only on the server total and the same/changed reuse counts);
/// the exact DP gives every dimension its own group.
struct LabelPricing {
  std::vector<std::uint32_t> cost_group;  ///< per dimension
  std::vector<double> group_cost;         ///< per group
  std::vector<double> power_coef;         ///< per dimension
  double cost_tol = 0.0;
  double power_tol = 0.0;
};

/// Reusable buffers of prune_labels.
struct PruneScratch {
  struct Priced {
    RequestCount flow = 0;
    double cost = 0.0;
    double power = 0.0;
    std::uint64_t cost_key = 0;
  };
  std::vector<Priced> priced;
  std::vector<std::uint32_t> kept;
  std::vector<int> digits;
  std::vector<std::uint64_t> sums;
  std::vector<std::uint64_t> key_weight;
};

/// Prunes `labels` (count vectors over `box`, ascending flat, one label
/// per flat) to its non-dominated set, keeping ascending flat order.
/// Label a' dominates a when a'.flow <= a.flow, a'.power < a.power -
/// power_tol, and a'.cost < a.cost - cost_tol or the two share a cost key.
/// Dominance is a strict partial order (the margins add up along a chain,
/// and a key-equal link keeps the cost), so the result is its set of
/// maximal elements whatever the scan order.
void prune_labels(const Box& box, const LabelPricing& pricing,
                  std::vector<Label>& labels, PruneScratch& scratch);

/// The root join's operand slots: the last merge-plan step's two
/// operands; a root with one internal child has its leaf slot on the left
/// only, a childless root has neither.  kNoSlot stands for the single
/// empty label (flow 0, all counts 0).
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
/// operand slots, so a clean root whose cache entry is not resumable (its
/// slots were shed, or never restored) must be rebuilt instead of
/// spliced.  Patches a planned solve accordingly.
inline void require_root_operands(const Topology& topo,
                                  PowerSubtreeCache* cache, DirtyPlan& plan) {
  const std::size_t ri = topo.internal_index(topo.root());
  if (cache == nullptr || plan.dirty[ri] != 0 || cache->resumable(ri)) return;
  plan.dirty[ri] = 1;
  plan.resume[ri] = 0;
  cache->invalidate(ri);
}

/// Appends, per label of `table`, its digit dot-product against
/// `target`'s strides (target has at least the table's dimensions): two
/// labels' dots add to the flat index of their join in `target`.
void label_dots(const LabelTable& table, const Box& target,
                std::vector<std::uint64_t>& out);

/// One candidate of the root join: a feasible pair of kept operand cells
/// completed by one of the root's own options.
struct RootCandidate {
  double cost = 0.0;
  double power = 0.0;
  std::uint64_t flat = 0;      ///< the pair's cell in the root box
  std::int8_t root_mode = -1;  ///< -1: no server at root
  int servers = 0;
  RequestCount flow = 0;   ///< open flow at the root, client mass folded
  std::uint32_t left = 0;  ///< operand labels' positions (see RootOperands)
  std::uint32_t right = 0;
};

/// Pairs every left label with every right label under the W_M cut, with
/// the root's client mass `base` folded in, and expands each feasible pair
/// into the root's own options: no server (only when the folded flow is 0)
/// and a server at every mode that can carry it.  `ldot`/`rdot` are the
/// labels' dots against `root_box` (label_dots).  `add_root_server(counts,
/// w)` bumps the count-vector dimensions of a root server at mode w;
/// `price(counts, flat, w)` is the engine's make_candidate (cost, power,
/// servers, flat and root mode filled).  Counts the pairs visited into
/// `pairs`.
template <typename AddRootServer, typename Price>
std::vector<RootCandidate> pair_root_labels(
    std::span<const Label> left, std::span<const std::uint64_t> ldot,
    std::span<const Label> right, std::span<const std::uint64_t> rdot,
    const Box& root_box, RequestCount base, const ModeSet& modes,
    std::uint64_t& pairs, AddRootServer&& add_root_server, Price&& price) {
  const RequestCount w_max = modes.max_capacity();
  std::vector<RootCandidate> candidates;
  std::vector<int> digits(root_box.dims());
  std::vector<int> counts(root_box.dims());
  for (std::size_t a = 0; a < left.size(); ++a) {
    for (std::size_t b = 0; b < right.size(); ++b) {
      ++pairs;
      const RequestCount joined = left[a].flow + right[b].flow;
      if (joined > w_max || joined + base > w_max) continue;
      const RequestCount f = joined + base;
      const std::uint64_t flat = ldot[a] + rdot[b];
      root_box.decode(flat, digits);
      const auto add = [&](std::int8_t w) {
        RootCandidate c = price(counts, flat, w);
        c.flow = f;
        c.left = static_cast<std::uint32_t>(a);
        c.right = static_cast<std::uint32_t>(b);
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
/// table would have used, then (flow, left label, right label) — labels
/// sit in ascending flat order, so this is the join kernel's min-flow,
/// first-occurrence winner — and the witness of every point is the one a
/// full root scan would choose.
std::vector<RootCandidate> select_root_frontier(
    std::vector<RootCandidate> candidates);

/// Walks a root candidate's operand labels: walk(slot, position) for the
/// left operand and, when the root has one, the right.  A childless root has
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
