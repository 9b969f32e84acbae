// The uniform strategy interface all placement algorithms implement.
//
// A Solver is a stateless strategy object: solve() maps an Instance to a
// Solution and may be called concurrently from many threads.  The attached
// SolverInfo describes what the strategy can do — its objective, whether it
// is exact or a heuristic, whether it exploits multiple power modes or the
// pre-existing server set, and any instance-size limit — so generic
// consumers (CLI, experiments, bench/solver_matrix) can select and gate
// strategies without knowing them individually.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "solver/instance.h"
#include "solver/solution.h"
#include "tree/scenario_delta.h"

namespace treeplace {

class SolveSession;  // solver/session.h

/// Capability bits a strategy advertises through Solver::caps(): generic
/// consumers test bits, new capabilities add bits instead of virtuals.
enum class SolverCaps : std::uint32_t {
  kNone = 0,
  /// solve() with a session actually reuses SolveSession DP state (a
  /// solver without this bit degrades to a recorded cold solve).
  kIncremental = 1u << 0,
};

inline constexpr SolverCaps operator|(SolverCaps a, SolverCaps b) {
  return static_cast<SolverCaps>(static_cast<std::uint32_t>(a) |
                                 static_cast<std::uint32_t>(b));
}
inline constexpr SolverCaps operator&(SolverCaps a, SolverCaps b) {
  return static_cast<SolverCaps>(static_cast<std::uint32_t>(a) &
                                 static_cast<std::uint32_t>(b));
}
inline constexpr bool any(SolverCaps c) { return c != SolverCaps::kNone; }

/// The unified solve entry point's argument: an instance, optionally
/// paired with a persistent session and the scenario edits since that
/// session's previous solve.  `deltas` without `session` is meaningless
/// and ignored.  The delta-span contract: a non-empty span must name
/// *every* edit since the session's previous solve — relative to the
/// previously solved scenario, or to a common base scenario both solves'
/// spans fork from (the serving loop's pattern).  Small complete spans let
/// the engines skip the O(N) per-node signature sweep (see
/// core/dp_cache.h); an empty span always selects the full signature diff
/// (always correct).
struct SolveRequest {
  const Instance& instance;
  std::span<const ScenarioDelta> deltas = {};
  SolveSession* session = nullptr;
};

/// What a solver optimizes.  Min-count solvers (GR) are classified as
/// kMinCost: replica count is the dominant term of the Eq. 2 cost.
enum class Objective {
  kMinCost,   ///< Eq. 2 / Eq. 4 reconfiguration cost
  kMinPower,  ///< Eq. 3 power (bi-criteria with the cost budget)
};

struct SolverInfo {
  std::string name;     ///< registry key, e.g. "update-dp"
  std::string summary;  ///< one-line description for --list-algos
  Objective objective = Objective::kMinCost;
  /// True for provably optimal algorithms (w.r.t. `objective`, on the
  /// instance class stated in `summary`); false for heuristics.
  bool exact = false;
  /// True when the solver exploits multiple power modes (M > 1); every
  /// solver must still accept single-mode instances.
  bool needs_modes = false;
  /// True when the solver can take advantage of pre-existing servers; false
  /// means it merely tolerates them (prices reuse by accident, like GR).
  bool supports_pre_existing = false;
  /// False for oracles that certify optimal values without reconstructing a
  /// placement (Solution::placement stays empty).
  bool provides_placement = true;
  /// True when the algorithm requires a single-mode cost model (M = 1).
  bool single_mode_only = false;
  /// Hard instance-size cap (internal nodes); 0 means unbounded.
  std::size_t max_internal = 0;

  /// Whether this solver accepts an instance of the given size/mode count.
  bool accepts(std::size_t num_internal, int num_modes) const {
    if (max_internal != 0 && num_internal > max_internal) return false;
    if (single_mode_only && num_modes > 1) return false;
    return true;
  }
};

class Solver {
 public:
  /// Tunables that apply across strategies, set on a solver instance before
  /// it is used.  set_options() is NOT thread-safe against concurrent
  /// solve() calls: configure the solver first, then share it freely
  /// (solve() itself stays const and thread-safe).
  struct Options {
    /// Worker threads for solver-internal parallelism.  Accepted for every
    /// strategy; the built-in ones all solve serially (the power DPs'
    /// label tables leave too little work per join to shard), so results
    /// and counters are the same for any value.
    int threads = 1;
  };

  explicit Solver(SolverInfo info) : info_(std::move(info)) {}
  virtual ~Solver() = default;

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  const SolverInfo& info() const { return info_; }
  const std::string& name() const { return info_.name; }

  const Options& options() const { return options_; }
  void set_options(const Options& options) {
    TREEPLACE_CHECK_MSG(options.threads >= 1,
                        "Solver::Options::threads must be >= 1");
    options_ = options;
  }

  /// Solves `instance`.  Must be thread-safe (const, no mutable state).
  virtual Solution solve(const Instance& instance) const = 0;

  /// The unified entry point: solves request.instance, reusing (and
  /// updating) request.session's DP caches when the strategy advertises
  /// SolverCaps::kIncremental.  Results are bit-identical to
  /// solve(request.instance) either way; only the work shrinks.  With a
  /// session the caller must hold request.session->solve_mutex() across
  /// the call (SolveDispatcher does); without one this is a plain
  /// thread-safe cold solve.  The base implementation records a cold
  /// solve on the session (if any), then runs solve(request.instance).
  virtual Solution solve(const SolveRequest& request) const;

  /// Capability bits (see SolverCaps).  The default advertises nothing;
  /// strategies with warm-start support return kIncremental and must
  /// override solve(const SolveRequest&).
  virtual SolverCaps caps() const { return SolverCaps::kNone; }

 private:
  SolverInfo info_;
  Options options_;
};

}  // namespace treeplace
