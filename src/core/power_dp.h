// DP for MinPower-BoundedCost (paper Section 4.3, Theorem 3).
//
// State per subtree: a count vector of servers, with the minimal flow
// leaving the subtree per state (the generalization of Lemma 1: cost and
// power depend only on the counts, and a smaller residual flow never hurts
// upward feasibility).  One engine runs the DP over either of two keys.
//
// The exact key, solve_power_exact(), is
//   (n_1..n_M, e_{1,1}..e_{M,M})
// new servers per mode and reused pre-existing servers per (original mode,
// new mode) pair.  The table dimensionality is M + M², exponential in the
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

class ThreadPool;  // support/thread_pool.h

/// Solver-internal parallelism for the power DPs.  The per-child merge
/// loops are sharded over `threads` workers (see core/merge_kernel.h); the
/// resulting tables — and therefore frontier values, placements and the
/// merge-pair work counter — are bit-identical to the serial solve for any
/// thread count.
struct PowerDPOptions {
  std::size_t threads = 1;  ///< 1 = serial; workers are spawned lazily
  /// Optional long-lived pool to shard on (its size then decides the shard
  /// count); when null and threads > 1, the solve spawns its own workers
  /// lazily.  Registered solvers pass Solver::worker_pool() so repeated
  /// solves never pay per-solve thread churn.
  ThreadPool* pool = nullptr;
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
/// use solve_power_exact() otherwise.  `options.threads` shards the
/// per-child merges (bit-identical results).
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

/// Cache-only decision walk: emits the placement of the subtree rooted at
/// `j` for the chosen flat index into its cached root table, reading the
/// per-slot decisions the last completed solve left behind (packed entries
/// are unpacked on the way).  Works for either key's cache.
void reconstruct_power_subtree(const Topology& topo,
                               dp::PowerSubtreeCache& cache,
                               dp::MergePlanCache& plans, NodeId j,
                               std::size_t flat, Placement& placement);

}  // namespace treeplace
