// MinCost-WithPre: optimal replica-set update with pre-existing servers.
//
// Implements the paper's Section 3 dynamic program (Algorithms 1-4,
// Theorem 1).  Per internal node j, a table indexed by (e, n) — exactly e
// reused pre-existing servers and n new servers strictly below j — stores
// the minimal number of requests that must traverse j (Lemma 1: among
// placements with the same counts, one minimizing the traversing requests
// can always be extended to a global optimum).  Children are merged one at
// a time, each merge also considering a replica on the merged child.
//
// Complexity is the paper's O(N·(N-E+1)²·(E+1)²) ≤ O(N^5) worst case, but
// every index is bounded by the actual pre-existing/new node counts of the
// partial subtree, which makes realistic trees orders of magnitude cheaper
// (measured by bench/ablation_bounds).
//
// Deviation from the paper's Algorithm 4 (see DESIGN.md): for every root
// table entry we evaluate both "no server at root" (requires zero residual
// flow) and "server at root" (residual ≤ W), so configurations where
// keeping an idle pre-existing root is cheaper than deleting it are found
// even when delete > 1.
#pragma once

#include <cstdint>

#include "core/dp_cache.h"
#include "model/cost.h"
#include "model/placement.h"
#include "tree/tree.h"

namespace treeplace {

struct MinCostConfig {
  RequestCount capacity = 10;  ///< W, per-server request capacity
  double create = 0.1;         ///< extra cost of operating a new server
  double delete_cost = 0.01;   ///< cost of removing a pre-existing server
  /// Optional externally-owned per-subtree tables (see core/dp_cache.h):
  /// reuses tables of internal nodes unchanged since the cache was filled;
  /// results are bit-identical to a cold solve.  Solves sharing one cache
  /// must be serialized by the caller.
  dp::MinCostSubtreeCache* cache = nullptr;
  /// Optional edit span for cached solves (fast-path contract in
  /// core/dp_cache.h): a complete span lets planning skip the O(N)
  /// signature sweep.  Empty = unknown = full sweep.
  std::span<const ScenarioDelta> deltas;
};

struct MinCostResult {
  bool feasible = false;
  Placement placement;       ///< all servers at mode 0
  CostBreakdown breakdown;   ///< recomputed by the independent evaluator
  /// Inner-loop iterations actually executed (ablation metric; the paper's
  /// unbounded loops would execute N·(N-E+1)²·(E+1)² of them).
  std::uint64_t merge_iterations = 0;
  /// Merge-plan slots built (leaf expansions + internal joins): 2k-1 per
  /// recomputed node with k internal children on a cold solve, O(log k)
  /// per dirty node on a subtree-resumed warm solve.
  std::uint64_t merge_steps = 0;
  /// Warm-start accounting: subtree tables rebuilt this solve vs. spliced
  /// in from the cache.  A cold solve recomputes every internal node.
  std::uint64_t nodes_recomputed = 0;
  std::uint64_t nodes_reused = 0;
  /// NodeSignatures compared while planning (see PowerSolveStats).
  std::uint64_t signatures_checked = 0;
  /// Output cells spliced from snapshots by lazy root-path joins.
  std::uint64_t cells_skipped = 0;
  /// Arena bytes holding flow/decision tables at the end of the solve.
  std::uint64_t table_bytes = 0;
};

/// Solves MinCost-WithPre over one scenario of a shared topology (the
/// scenario's pre-existing flags define E).  With E empty this degenerates
/// to MinCost-NoPre and returns a minimum replica count solution.
MinCostResult solve_min_cost_with_pre(const Topology& topo,
                                      const Scenario& scen,
                                      const MinCostConfig& config);
inline MinCostResult solve_min_cost_with_pre(const Tree& tree,
                                             const MinCostConfig& config) {
  return solve_min_cost_with_pre(tree.topology(), tree.scenario(), config);
}

}  // namespace treeplace
