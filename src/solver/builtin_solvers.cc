// Every algorithm of the library, wrapped as a registered Solver strategy.
//
// The wrappers contain no algorithmic logic of their own: they adapt the
// bespoke entry points (GreedyResult, MinCostResult, PowerDPResult, ...) to
// the uniform Instance -> Solution contract and recompute all reported
// accounting through the independent evaluator in model/placement.h, so a
// Solution's breakdown/power always agree with validate()'s view of the
// placement regardless of which strategy produced it.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/dp_update.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/greedy_power.h"
#include "core/heuristics.h"
#include "core/power_dp.h"
#include "core/power_dp_symmetric.h"
#include "model/placement.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/check.h"
#include "support/timer.h"

namespace treeplace {
namespace {

/// Builds a Solution around a single-mode placement (servers at mode 0):
/// minimizes modes on multi-mode instances, then recomputes cost and power
/// with the independent evaluator.
Solution finish_placement(const Instance& in, bool feasible,
                          Placement placement, SolveStats stats) {
  Solution s;
  s.feasible = feasible;
  s.stats = stats;
  if (!feasible) return s;
  if (in.modes.count() > 1) {
    minimize_modes(in.topo(), in.scen(), placement, in.modes);
  }
  s.placement = std::move(placement);
  s.breakdown = evaluate_cost(in.topo(), in.scen(), s.placement, in.costs);
  s.power = total_power(s.placement, in.modes);
  s.budget_met =
      !in.cost_budget || s.breakdown.cost <= *in.cost_budget + 1e-9;
  return s;
}

/// Builds a Solution from a Pareto frontier: the selected point is the
/// least-power one within the budget, falling back to the unconstrained
/// minimum-power point when nothing fits.
Solution finish_frontier(const Instance& in, bool feasible,
                         std::vector<PowerParetoPoint> frontier,
                         SolveStats stats) {
  Solution s;
  s.feasible = feasible && !frontier.empty();
  s.frontier = std::move(frontier);
  s.stats = stats;
  if (!s.feasible) return s;
  const PowerParetoPoint* pick =
      in.cost_budget ? s.best_within_cost(*in.cost_budget) : s.min_power();
  if (pick == nullptr) {
    s.budget_met = false;
    pick = s.min_power();
  }
  s.placement = pick->placement;
  s.breakdown = pick->breakdown;
  s.power = pick->power;
  return s;
}

// --- Greedy family ---------------------------------------------------------

class GreedySolver : public Solver {
 public:
  GreedySolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "greedy";
    info.summary =
        "GR of Wu/Lin/Liu [19]: bottom-up flow absorption, optimal replica "
        "count, oblivious to pre-existing servers and power";
    info.objective = Objective::kMinCost;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    GreedyResult r = solve_greedy_min_count(in.topo(), in.scen(), in.capacity());
    return finish_placement(in, r.feasible, std::move(r.placement),
                            {timer.seconds(), 0});
  }
};

class GreedyPreferPreSolver : public Solver {
 public:
  GreedyPreferPreSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "greedy-pre";
    info.summary =
        "GR with reuse-aware tie-breaking: absorbs pre-existing children on "
        "flow ties, keeping GR's count optimality (Section 6 heuristic)";
    info.objective = Objective::kMinCost;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    GreedyResult r = solve_greedy_prefer_pre(in.topo(), in.scen(), in.capacity());
    return finish_placement(in, r.feasible, std::move(r.placement),
                            {timer.seconds(), 0});
  }
};

class GreedyReuseSolver : public Solver {
 public:
  GreedyReuseSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "greedy-reuse";
    info.summary =
        "greedy-pre refined by reuse local search: hill-climbs created "
        "servers onto idle pre-existing nodes (Section 6 heuristic; "
        "single-mode instances)";
    info.objective = Objective::kMinCost;
    info.supports_pre_existing = true;
    // improve_reuse prices swaps with the Eq. 2 model only; rather than
    // silently degrading to greedy-pre on power instances, decline them.
    info.single_mode_only = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    TREEPLACE_CHECK_MSG(in.modes.count() == 1 && in.costs.num_modes() == 1,
                        "greedy-reuse requires a single-mode instance "
                        "(improve_reuse prices swaps with Eq. 2); use "
                        "greedy-pre for multi-mode instances");
    Stopwatch timer;
    GreedyResult r = solve_greedy_prefer_pre(in.topo(), in.scen(), in.capacity());
    SolveStats stats;
    if (r.feasible) {
      const LocalSearchStats ls = improve_reuse(
          in.topo(), in.scen(), in.capacity(), in.costs, r.placement);
      stats.work = ls.evaluated;
    }
    stats.seconds = timer.seconds();
    return finish_placement(in, r.feasible, std::move(r.placement), stats);
  }
};

// --- Optimal update DP (Section 3) -----------------------------------------

class UpdateDpSolver : public Solver {
 public:
  UpdateDpSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "update-dp";
    info.summary =
        "MinCost-WithPre DP (Theorem 1): optimal replica-set update with "
        "pre-existing servers; exact for single-mode instances";
    info.objective = Objective::kMinCost;
    info.exact = true;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    return solve_with_cache(in, {}, nullptr);
  }

  SolverCaps caps() const override { return SolverCaps::kIncremental; }

  Solution solve(const SolveRequest& request) const override {
    if (request.session == nullptr) return solve(request.instance);
    request.session->check_topology(request.instance.topology);
    return solve_with_cache(request.instance, request.deltas,
                            request.session);
  }

 private:
  Solution solve_with_cache(const Instance& in,
                            std::span<const ScenarioDelta> deltas,
                            SolveSession* session) const {
    Stopwatch timer;
    MinCostConfig config{in.capacity(), in.costs.create(0), in.costs.del(0)};
    // The DP plans against the single-mode Eq. 2 model and only reads the
    // pre-existing flags; on multi-mode instances, collapse the original
    // modes to 0 for its internal accounting (finish_placement re-prices
    // the returned placement against the real instance).
    bool multi_mode_pre = false;
    for (NodeId id : in.scen().pre_existing_nodes()) {
      if (in.scen().original_mode(id) != 0) multi_mode_pre = true;
    }
    std::optional<Scenario> collapsed;
    if (multi_mode_pre) {
      // Forking the scenario is cheap (flat arrays, shared topology).
      collapsed.emplace(in.scen());
      for (NodeId id : collapsed->pre_existing_nodes()) {
        collapsed->set_pre_existing(id, 0);
      }
    }
    const Scenario& scen = multi_mode_pre ? *collapsed : in.scen();
    if (session != nullptr) {
      config.cache = &session->min_cost_cache(name());
      config.deltas = deltas;
    }
    MinCostResult r = solve_min_cost_with_pre(in.topo(), scen, config);
    if (session != nullptr) {
      session->record_warm(r.nodes_recomputed, r.nodes_reused, r.merge_steps,
                           r.signatures_checked, r.cells_skipped);
    }
    return finish_placement(in, r.feasible, std::move(r.placement),
                            {timer.seconds(), r.merge_iterations});
  }
};

// --- Power DPs (Section 4) -------------------------------------------------

class PowerExactSolver : public Solver {
 public:
  PowerExactSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "power-exact";
    info.summary =
        "exact MinPower-BoundedCost DP (Theorem 3): full cost-power Pareto "
        "frontier under the general Eq. 4 cost model";
    info.objective = Objective::kMinPower;
    info.exact = true;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    PowerDPResult r = run_dp(in, dp_options());
    return finish(in, std::move(r));
  }

  SolverCaps caps() const override { return SolverCaps::kIncremental; }

  Solution solve(const SolveRequest& request) const override {
    const Instance& in = request.instance;
    if (request.session == nullptr) return solve(in);
    SolveSession& session = *request.session;
    session.check_topology(in.topology);
    PowerDPOptions opts = dp_options();
    opts.cache = &session.power_cache(name());
    opts.deltas = request.deltas;
    PowerDPResult r = run_dp(in, opts);
    session.record_warm(r.stats);
    return finish(in, std::move(r));
  }

 private:
  PowerDPOptions dp_options() const {
    PowerDPOptions opts;
    opts.threads = static_cast<std::size_t>(options().threads);
    opts.pool = worker_pool();
    return opts;
  }

  static PowerDPResult run_dp(const Instance& in, const PowerDPOptions& opts) {
    return solve_power_exact(in.topo(), in.scen(), in.modes, in.costs, opts);
  }

  static Solution finish(const Instance& in, PowerDPResult r) {
    return finish_frontier(in, r.feasible, std::move(r.frontier),
                           {r.stats.solve_seconds, r.stats.merge_pairs});
  }
};

class PowerSymmetricSolver : public Solver {
 public:
  PowerSymmetricSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "power-sym";
    info.summary =
        "reduced-state MinPower-BoundedCost DP for symmetric cost models "
        "(the paper's experimental setting); identical frontier, much "
        "faster";
    info.objective = Objective::kMinPower;
    info.exact = true;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    PowerDPResult r = run_dp(in, dp_options());
    return finish(in, std::move(r));
  }

  SolverCaps caps() const override { return SolverCaps::kIncremental; }

  Solution solve(const SolveRequest& request) const override {
    const Instance& in = request.instance;
    if (request.session == nullptr) return solve(in);
    SolveSession& session = *request.session;
    session.check_topology(in.topology);
    PowerDPOptions opts = dp_options();
    opts.cache = &session.power_cache(name());
    opts.deltas = request.deltas;
    PowerDPResult r = run_dp(in, opts);
    session.record_warm(r.stats);
    return finish(in, std::move(r));
  }

 private:
  PowerDPOptions dp_options() const {
    PowerDPOptions opts;
    opts.threads = static_cast<std::size_t>(options().threads);
    opts.pool = worker_pool();
    return opts;
  }

  PowerDPResult run_dp(const Instance& in, const PowerDPOptions& opts) const {
    TREEPLACE_CHECK_MSG(in.costs.is_symmetric(),
                        "power-sym requires a symmetric cost model; use "
                        "power-exact for general Eq. 4 costs");
    return solve_power_symmetric(in.topo(), in.scen(), in.modes, in.costs,
                                 opts);
  }

  static Solution finish(const Instance& in, PowerDPResult r) {
    return finish_frontier(in, r.feasible, std::move(r.frontier),
                           {r.stats.solve_seconds, r.stats.merge_pairs});
  }
};

// --- Power heuristics ------------------------------------------------------

class PowerGreedySolver : public Solver {
 public:
  PowerGreedySolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "power-greedy";
    info.summary =
        "the paper's power-adapted GR (Section 5.2): capacity sweep over "
        "[W_1, W_M], candidates priced with Eq. 4 and mode-minimized";
    info.objective = Objective::kMinPower;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    const GreedyPowerResult gr =
        solve_greedy_power(in.topo(), in.scen(), in.modes, in.costs);
    // Prune the sweep's candidates to their Pareto frontier; any bounded-
    // cost query answered from the frontier matches the answer over the
    // full candidate list.
    std::vector<PowerParetoPoint> points;
    for (const GreedyPowerCandidate& c : gr.candidates) {
      if (!c.feasible) continue;
      points.push_back(PowerParetoPoint{c.cost, c.power, c.placement,
                                        c.breakdown});
    }
    std::sort(points.begin(), points.end(),
              [](const PowerParetoPoint& a, const PowerParetoPoint& b) {
                return a.cost != b.cost ? a.cost < b.cost : a.power < b.power;
              });
    std::vector<PowerParetoPoint> frontier;
    for (PowerParetoPoint& p : points) {
      if (!frontier.empty() && p.power >= frontier.back().power - 1e-12) {
        continue;
      }
      frontier.push_back(std::move(p));
    }
    const bool feasible = !frontier.empty();
    return finish_frontier(in, feasible, std::move(frontier),
                           {timer.seconds(), gr.candidates.size()});
  }
};

class PowerLocalSearchSolver : public Solver {
 public:
  PowerLocalSearchSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "power-ls";
    info.summary =
        "greedy seed refined by bounded-cost power local search: add/remove/"
        "move + mode re-minimization, first improvement (Section 6 "
        "heuristic)";
    info.objective = Objective::kMinPower;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    GreedyResult seed =
        solve_greedy_min_count(in.topo(), in.scen(), in.capacity());
    if (!seed.feasible) {
      Solution s;
      s.stats.seconds = timer.seconds();
      return s;
    }
    Placement placement = std::move(seed.placement);
    minimize_modes(in.topo(), in.scen(), placement, in.modes);
    const double bound =
        in.cost_budget.value_or(std::numeric_limits<double>::infinity());
    SolveStats stats;
    // The seed may already exceed a tight budget; local search requires an
    // in-budget start, so we then report the unrefined seed with
    // budget_met = false rather than failing.
    if (evaluate_cost(in.topo(), in.scen(), placement, in.costs).cost <=
        bound + 1e-9) {
      const LocalSearchStats ls = improve_power(
          in.topo(), in.scen(), in.modes, in.costs, bound, placement);
      stats.work = ls.evaluated;
    }
    stats.seconds = timer.seconds();
    Solution s;
    s.feasible = true;
    s.placement = std::move(placement);
    s.breakdown = evaluate_cost(in.topo(), in.scen(), s.placement, in.costs);
    s.power = total_power(s.placement, in.modes);
    s.budget_met = s.breakdown.cost <= bound + 1e-9;
    s.stats = stats;
    return s;
  }
};

// --- Exhaustive oracles ----------------------------------------------------

class ExhaustiveCostSolver : public Solver {
 public:
  ExhaustiveCostSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "exhaustive-cost";
    info.summary =
        "brute-force MinCost oracle: enumerates all server subsets "
        "(ground truth for tests; small single-mode instances only)";
    info.objective = Objective::kMinCost;
    info.exact = true;
    info.supports_pre_existing = true;
    info.single_mode_only = true;
    info.max_internal = kExhaustiveMaxInternal;
    return info;
  }
  Solution solve(const Instance& in) const override {
    TREEPLACE_CHECK_MSG(in.costs.num_modes() == 1,
                        "exhaustive-cost requires a single-mode cost model");
    Stopwatch timer;
    auto oracle =
        exhaustive_min_cost(in.topo(), in.scen(), in.capacity(), in.costs);
    Solution s;
    s.stats.seconds = timer.seconds();
    if (!oracle.has_value()) return s;
    s.feasible = true;
    s.placement = std::move(oracle->placement);
    s.breakdown = oracle->breakdown;
    s.power = total_power(s.placement, in.modes);
    s.budget_met =
        !in.cost_budget || s.breakdown.cost <= *in.cost_budget + 1e-9;
    return s;
  }
};

class ExhaustivePowerSolver : public Solver {
 public:
  ExhaustivePowerSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "exhaustive-power";
    info.summary =
        "brute-force cost-power frontier oracle with witness placements "
        "reconstructed per frontier point (small instances only)";
    info.objective = Objective::kMinPower;
    info.exact = true;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    // Tighter than kExhaustiveMaxInternal: the per-server mode enumeration
    // makes this oracle ~3^N, not 2^N.
    info.max_internal = 14;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    std::vector<ExhaustiveParetoPoint> points =
        exhaustive_cost_power_frontier_placements(in.topo(), in.scen(),
                                                  in.modes, in.costs);
    std::vector<PowerParetoPoint> frontier;
    frontier.reserve(points.size());
    for (ExhaustiveParetoPoint& p : points) {
      CostBreakdown breakdown =
          evaluate_cost(in.topo(), in.scen(), p.placement, in.costs);
      frontier.push_back(PowerParetoPoint{p.cost, p.power,
                                          std::move(p.placement),
                                          std::move(breakdown)});
    }
    const bool feasible = !frontier.empty();
    return finish_frontier(in, feasible, std::move(frontier),
                           {timer.seconds(), 0});
  }
};

template <typename SolverClass>
void add_to(SolverRegistry& registry) {
  registry.add(SolverClass::make_info(),
               [] { return std::make_unique<SolverClass>(); });
}

}  // namespace

namespace detail {

void register_builtin_solvers(SolverRegistry& registry) {
  add_to<GreedySolver>(registry);
  add_to<GreedyPreferPreSolver>(registry);
  add_to<GreedyReuseSolver>(registry);
  add_to<UpdateDpSolver>(registry);
  add_to<PowerExactSolver>(registry);
  add_to<PowerSymmetricSolver>(registry);
  add_to<PowerGreedySolver>(registry);
  add_to<PowerLocalSearchSolver>(registry);
  add_to<ExhaustiveCostSolver>(registry);
  add_to<ExhaustivePowerSolver>(registry);
}

}  // namespace detail
}  // namespace treeplace
