// DP for MinPower-BoundedCost (paper Section 4.3, Theorem 3).
//
// State per subtree: a count vector of servers, with the minimal flow
// leaving the subtree per state (the generalization of Lemma 1: cost and
// power depend only on the counts, and a smaller residual flow never hurts
// upward feasibility).  The engine stores each table as a short list of
// labels — (count vector, flow, decision) — pruned after every leaf
// expansion and join to the labels no other label beats in flow, partial
// cost and partial power at once (core/pareto_root.h).  The frontier and
// its witness placements are bit-identical to the full count-vector
// table's, and a list never holds more labels than that table has valid
// cells, so the bounds below still hold; on the benchmark trees a list
// holds a few dozen labels against thousands of cells.  One engine runs
// the DP over either of two keys.
//
// The exact key, solve_power_exact(), is
//   (n_1..n_M, e_{1,1}..e_{M,M})
// new servers per mode and reused pre-existing servers per (original mode,
// new mode) pair.  The key dimensionality is M + M², exponential in the
// number of modes — the paper's O(N^{2M²+2M+1}) bound — but every
// dimension is bounded by the actual node counts of the partial subtree,
// which keeps moderate instances (M = 2, N ≤ 50) tractable; this is what
// the paper means by "practical usefulness limited to small values of M".
// The NoPre variant is the same algorithm with all e-dimensions collapsed
// to zero, recovering the O(N^{2M+1}) bound.
//
// The reduced key, solve_power_symmetric(), serves symmetric costs: when
// create_i and delete_i do not depend on the mode and changed_{o,i}
// depends only on whether o == i — the structure of every experiment in
// the paper's Section 5.2 — the exact state collapses to
//   (m_1..m_M, e_same, e_changed)
// where m_w counts all servers configured at mode w, e_same the reused
// servers that kept their original mode and e_changed those that moved.
// Cost and power are functions of this reduced vector, so keeping the
// minimal residual flow per reduced state preserves optimality (same
// exchange argument as Lemma 1).  The state space shrinks from
// O(N^M · E^{M²}) to O(N^M · E²), which is what makes the paper-scale
// Figure 8-11 sweeps affordable.  Equality of the produced frontier with
// solve_power_exact() is enforced by randomized property tests and by
// bench/ablation_symmetric.
#pragma once

#include "core/dp_cache.h"
#include "core/power_common.h"
#include "model/cost.h"
#include "model/modes.h"
#include "tree/tree.h"

namespace treeplace {

/// Options of one power solve.
struct PowerDPOptions {
  /// Optional externally-owned per-subtree tables (see core/dp_cache.h).
  /// When set, the solve reuses cached tables of internal nodes whose
  /// solver-visible inputs are unchanged since the cache was filled, and
  /// leaves its own tables behind for the next solve — results are
  /// bit-identical to a cold solve, only the work counters shrink.  The
  /// caller must serialize solves sharing one cache.
  dp::PowerSubtreeCache* cache = nullptr;
  /// Optional edit span for cached solves: when it names every edit since
  /// the cache's previous solve (see the fast-path contract in
  /// core/dp_cache.h), planning checks only the touched nodes instead of
  /// sweeping all N signatures.  Empty always means "unknown" and selects
  /// the sweep.  The span must outlive the solve call.
  std::span<const ScenarioDelta> deltas = {};
};

/// Solves MinPower-BoundedCost-{No,With}Pre exactly over one scenario of a
/// shared topology (the scenario's pre-existing flags and original modes
/// define E).  `costs` may be fully general (Eq. 4).  Returns the complete
/// cost-power Pareto frontier.
PowerDPResult solve_power_exact(const Topology& topo, const Scenario& scen,
                                const ModeSet& modes, const CostModel& costs,
                                const PowerDPOptions& options = {});
inline PowerDPResult solve_power_exact(const Tree& tree, const ModeSet& modes,
                                       const CostModel& costs,
                                       const PowerDPOptions& options = {}) {
  return solve_power_exact(tree.topology(), tree.scenario(), modes, costs,
                           options);
}

/// The same frontier over the reduced key.  Requires costs.is_symmetric();
/// use solve_power_exact() otherwise.
PowerDPResult solve_power_symmetric(const Topology& topo,
                                    const Scenario& scen,
                                    const ModeSet& modes,
                                    const CostModel& costs,
                                    const PowerDPOptions& options = {});
inline PowerDPResult solve_power_symmetric(const Tree& tree,
                                           const ModeSet& modes,
                                           const CostModel& costs,
                                           const PowerDPOptions& options = {}) {
  return solve_power_symmetric(tree.topology(), tree.scenario(), modes, costs,
                               options);
}

}  // namespace treeplace
