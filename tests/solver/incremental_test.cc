// Warm-start solves must be bit-identical to cold solves.
//
// The SolveSession layer promises that a solve(SolveRequest) over a
// persistent session returns exactly what solve() returns on the same
// instance — same feasibility, placements, cost/power accounting and
// frontier — while recomputing only the dirty subtrees.  These tests fuzz
// random delta sequences (request perturbations, pre-existing toggles,
// full clears, deliberate infeasible excursions) over random trees and
// compare every warm solve against a cold reference, for the three
// incremental engines (power-exact, power-sym, update-dp) at 1 and 4
// solver threads.  They are also the staleness net for the signature-diff
// invalidation in core/dp_cache.h.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/check.h"
#include "support/prng.h"
#include "tests/support/test_math.h"
#include "tree/scenario_delta.h"

namespace treeplace {
namespace {

Tree make_fuzz_tree(std::uint64_t seed, std::uint64_t index,
                    int num_internal) {
  TreeGenConfig config;
  config.num_internal = num_internal;
  config.shape = TreeShape{2, 4};
  config.client_probability = 0.8;
  config.min_requests = 1;
  config.max_requests = 5;
  Tree tree = generate_tree(config, seed, index);
  Xoshiro256 pre_rng = make_rng(seed, index, RngStream::kPreExisting);
  assign_random_pre_existing(tree, num_internal / 4, pre_rng,
                             /*num_modes=*/2);
  return tree;
}

/// One random step: 1-4 deltas, occasionally an infeasible request volume
/// (far above every capacity) so the feasible -> infeasible -> feasible
/// transitions exercise the cache's invalidation bookkeeping.
std::vector<ScenarioDelta> random_step(const Topology& topo, Xoshiro256& rng) {
  std::vector<ScenarioDelta> deltas;
  const int edits = 1 + static_cast<int>(rng.uniform(0, 3));
  for (int e = 0; e < edits; ++e) {
    switch (rng.uniform(0, 11)) {
      case 0:
        deltas.push_back(ScenarioDelta::clear_all_pre());
        break;
      case 1:
      case 2: {
        const auto& ids = topo.internal_ids();
        deltas.push_back(ScenarioDelta::set_pre_existing(
            ids[rng.uniform(0, ids.size() - 1)],
            static_cast<int>(rng.uniform(0, 1))));
        break;
      }
      case 3: {
        const auto& ids = topo.internal_ids();
        deltas.push_back(ScenarioDelta::clear_pre_existing(
            ids[rng.uniform(0, ids.size() - 1)]));
        break;
      }
      case 4: {
        // Infeasible excursion: one client asks for more than W_M.
        const auto& ids = topo.client_ids();
        deltas.push_back(ScenarioDelta::set_requests(
            ids[rng.uniform(0, ids.size() - 1)], 50));
        break;
      }
      default: {
        const auto& ids = topo.client_ids();
        deltas.push_back(ScenarioDelta::set_requests(
            ids[rng.uniform(0, ids.size() - 1)], rng.uniform(0, 5)));
        break;
      }
    }
  }
  return deltas;
}

void expect_identical(const Solution& warm, const Solution& cold,
                      const std::string& context) {
  ASSERT_EQ(warm.feasible, cold.feasible) << context;
  EXPECT_EQ(warm.budget_met, cold.budget_met) << context;
  EXPECT_EQ(warm.placement, cold.placement) << context;
  if (!cold.feasible) return;
  EXPECT_DOUBLE_EQ(warm.breakdown.cost, cold.breakdown.cost) << context;
  EXPECT_DOUBLE_EQ(warm.power, cold.power) << context;
  EXPECT_EQ(warm.breakdown.servers, cold.breakdown.servers) << context;
  EXPECT_EQ(warm.breakdown.reused, cold.breakdown.reused) << context;
  ASSERT_EQ(warm.frontier.size(), cold.frontier.size()) << context;
  for (std::size_t i = 0; i < cold.frontier.size(); ++i) {
    EXPECT_DOUBLE_EQ(warm.frontier[i].cost, cold.frontier[i].cost) << context;
    EXPECT_DOUBLE_EQ(warm.frontier[i].power, cold.frontier[i].power)
        << context;
    EXPECT_EQ(warm.frontier[i].placement, cold.frontier[i].placement)
        << context;
  }
}

struct FuzzSetup {
  std::string algo;
  int num_internal = 24;
  bool single_mode = false;
};

void run_fuzz(const FuzzSetup& setup, int solver_threads) {
  const ModeSet modes = setup.single_mode
                            ? ModeSet::single(10)
                            : ModeSet({5, 10}, 12.5, 3.0);
  const CostModel costs =
      setup.single_mode
          ? CostModel::simple(0.1, 0.01)
          : CostModel::uniform(modes.count(), 0.1, 0.01, 0.001, 0.001);

  const auto warm_solver = make_solver(setup.algo);
  const auto cold_solver = make_solver(setup.algo);
  warm_solver->set_options(Solver::Options{solver_threads});
  cold_solver->set_options(Solver::Options{solver_threads});
  ASSERT_TRUE(any(warm_solver->caps() & SolverCaps::kIncremental));

  for (std::uint64_t index = 0; index < 2; ++index) {
    Tree tree = make_fuzz_tree(77, index, setup.num_internal);
    SolveSession session(tree.topology_ptr());
    Xoshiro256 rng = make_rng(77, index, RngStream::kWorkloadUpdate);
    for (int step = 0; step < 12; ++step) {
      const std::vector<ScenarioDelta> deltas =
          random_step(tree.topology(), rng);
      for (const ScenarioDelta& delta : deltas) {
        apply_delta(tree.scenario(), delta);
      }
      // Single-mode instances project original modes to 0, exactly as the
      // serving loop does (Instance::single_mode semantics).
      const Instance instance =
          setup.single_mode
              ? Instance::single_mode(tree.topology_ptr(), tree.scenario(),
                                      10, 0.1, 0.01)
              : Instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                         std::nullopt};
      const Solution cold = cold_solver->solve(instance);
      const Solution warm =
          warm_solver->solve(SolveRequest{instance, deltas, &session});
      expect_identical(warm, cold,
                       setup.algo + " threads=" +
                           std::to_string(solver_threads) + " tree=" +
                           std::to_string(index) + " step=" +
                           std::to_string(step));
      // Warm never does more DP work than cold on the same instance.
      EXPECT_LE(warm.stats.work, cold.stats.work);
    }
    const SolveSession::Stats stats = session.stats();
    EXPECT_EQ(stats.warm_solves, 12u);
    EXPECT_EQ(stats.cold_solves, 0u);
    // Small delta steps must actually reuse subtrees, not just match.
    EXPECT_GT(stats.nodes_reused, 0u);
  }
}

TEST(IncrementalSolveTest, PowerSymWarmIdenticalToColdSerial) {
  run_fuzz({"power-sym", 24, false}, /*solver_threads=*/1);
}

TEST(IncrementalSolveTest, PowerSymWarmIdenticalToColdThreaded) {
  run_fuzz({"power-sym", 24, false}, /*solver_threads=*/4);
}

TEST(IncrementalSolveTest, PowerExactWarmIdenticalToColdSerial) {
  run_fuzz({"power-exact", 12, false}, /*solver_threads=*/1);
}

TEST(IncrementalSolveTest, PowerExactWarmIdenticalToColdThreaded) {
  run_fuzz({"power-exact", 12, false}, /*solver_threads=*/4);
}

TEST(IncrementalSolveTest, UpdateDpWarmIdenticalToColdSerial) {
  run_fuzz({"update-dp", 24, true}, /*solver_threads=*/1);
}

TEST(IncrementalSolveTest, UpdateDpWarmIdenticalToColdThreaded) {
  run_fuzz({"update-dp", 24, true}, /*solver_threads=*/4);
}

TEST(IncrementalSolveTest, SingleClientDeltaRecomputesOnlyTheRootPath) {
  Tree tree = make_fuzz_tree(78, 0, 24);
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const auto solver = make_solver("power-sym");
  SolveSession session(tree.topology_ptr());

  const Instance base{tree.topology_ptr(), tree.scenario(), modes, costs,
                      std::nullopt};
  solver->solve(SolveRequest{base, {}, &session});
  const SolveSession::Stats after_cold = session.stats();
  EXPECT_EQ(after_cold.nodes_recomputed, tree.num_internal());
  EXPECT_EQ(after_cold.nodes_reused, 0u);

  // Touch one client: only its parent's root path may be recomputed.
  const NodeId client = tree.client_ids().front();
  const std::vector<ScenarioDelta> deltas{
      ScenarioDelta::set_requests(client, tree.requests(client) + 1)};
  apply_delta(tree.scenario(), deltas.front());
  const Instance edited{tree.topology_ptr(), tree.scenario(), modes, costs,
                        std::nullopt};
  solver->solve(SolveRequest{edited, deltas, &session});
  const SolveSession::Stats after_warm = session.stats();

  std::size_t path_len = 0;
  for (NodeId j = tree.parent(client); j != kNoNode; j = tree.parent(j)) {
    ++path_len;
  }
  EXPECT_EQ(after_warm.nodes_recomputed - after_cold.nodes_recomputed,
            path_len);
  EXPECT_EQ(after_warm.nodes_reused, tree.num_internal() - path_len);
}

/// A wide star: one root whose internal children each carry one client.
/// The shape where the balanced merge tree pays off most — the old
/// left-deep chain redid up to k merges per delta, the tree O(log k).
Tree make_star_tree(int fanout) {
  TreeBuilder builder;
  const NodeId root = builder.add_root();
  for (int i = 0; i < fanout; ++i) {
    const NodeId child = builder.add_internal(root);
    builder.add_client(child, /*requests=*/1 + (i % 4));
  }
  return std::move(builder).build();
}

TEST(IncrementalSolveTest, StarDeltaRedoesLogKMergeSteps) {
  constexpr int kFanout = 48;
  for (const char* algo : {"power-sym", "power-exact", "update-dp"}) {
    Tree tree = make_star_tree(kFanout);
    const bool single_mode = std::string(algo) == "update-dp";
    const ModeSet modes = single_mode ? ModeSet::single(10)
                                      : ModeSet({5, 10}, 12.5, 3.0);
    const CostModel costs =
        single_mode ? CostModel::simple(0.1, 0.01)
                    : CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
    const auto solver = make_solver(algo);
    SolveSession session(tree.topology_ptr());

    const auto instance = [&] {
      return single_mode
                 ? Instance::single_mode(tree.topology_ptr(), tree.scenario(),
                                         10, 0.1, 0.01)
                 : Instance{tree.topology_ptr(), tree.scenario(), modes,
                            costs, std::nullopt};
    };
    solver->solve(SolveRequest{instance(), {}, &session});
    const SolveSession::Stats cold = session.stats();
    // Cold: every slot of the root's merge tree plus nothing per leaf
    // child (they have no internal children of their own) — except, for
    // the power DPs, the root slot itself, which their root join pairs
    // from its two operands instead of building.
    EXPECT_EQ(cold.merge_steps, 2u * kFanout - (single_mode ? 1 : 2))
        << algo;

    // One client under one arm: the arm refolds its base (0 slots), the
    // root redoes that arm's leaf + its ceil(log2 k) root path.
    const NodeId client = tree.client_ids()[kFanout / 2];
    const std::vector<ScenarioDelta> deltas{
        ScenarioDelta::set_requests(client, tree.requests(client) + 1)};
    apply_delta(tree.scenario(), deltas.front());
    solver->solve(SolveRequest{instance(), deltas, &session});
    const SolveSession::Stats warm = session.stats();

    const std::uint64_t redo = warm.merge_steps - cold.merge_steps;
    EXPECT_LE(redo, static_cast<std::uint64_t>(test::ceil_log2(kFanout) + 1))
        << algo << ": a single-arm delta must redo O(log k) merge slots";
    EXPECT_GE(redo, 1u) << algo;
    EXPECT_EQ(warm.nodes_recomputed - cold.nodes_recomputed, 2u) << algo;
    EXPECT_EQ(warm.nodes_reused, static_cast<std::uint64_t>(kFanout - 1))
        << algo;
  }
}

TEST(IncrementalSolveTest, WarmSolveSplicesCellsThroughLazyJoins) {
  // One dirty arm of a wide star: update-dp's re-joined root slots see one
  // changed operand with a small value diff, so the lazy kernel path must
  // splice (not recompute) the cells outside the delta's footprint —
  // while staying bit-identical to a cold solve and doing no more work.
  // (The power DPs' label tables have no lazy joins.)
  constexpr int kFanout = 64;
  {
    const std::string algo = "update-dp";
    Tree tree = make_star_tree(kFanout);
    const auto warm_solver = make_solver(algo);
    const auto cold_solver = make_solver(algo);
    SolveSession session(tree.topology_ptr());

    const auto instance = [&] {
      return Instance::single_mode(tree.topology_ptr(), tree.scenario(), 10,
                                   0.1, 0.01);
    };
    warm_solver->solve(SolveRequest{instance(), {}, &session});
    // A cold solve has no snapshots to splice from.
    EXPECT_EQ(session.stats().cells_skipped, 0u) << algo;

    const NodeId client = tree.client_ids()[kFanout / 3];
    const std::vector<ScenarioDelta> deltas{
        ScenarioDelta::set_requests(client, tree.requests(client) + 1)};
    apply_delta(tree.scenario(), deltas.front());
    const Solution warm =
        warm_solver->solve(SolveRequest{instance(), deltas, &session});
    const Solution cold = cold_solver->solve(instance());
    expect_identical(warm, cold, algo + " lazy warm");
    EXPECT_LE(warm.stats.work, cold.stats.work) << algo;
    EXPECT_GT(session.stats().cells_skipped, 0u)
        << algo << ": a one-arm delta must splice root-join cells";
  }
}

TEST(IncrementalSolveTest, BurstDeltaBatchKeepsTheLazyJoinPath) {
  // A burst: several clients across different arms change in one step, so
  // the root's merge tree sees joins where BOTH operands moved.  The
  // two-sided lazy kernel must still splice cells (not bail to full
  // rebuilds) while staying bit-identical to a cold solve.  (update-dp
  // only: the power DPs' label tables have no lazy joins.)
  constexpr int kFanout = 48;
  {
    const std::string algo = "update-dp";
    Tree tree = make_star_tree(kFanout);
    const auto warm_solver = make_solver(algo);
    const auto cold_solver = make_solver(algo);
    SolveSession session(tree.topology_ptr());

    const auto instance = [&] {
      return Instance::single_mode(tree.topology_ptr(), tree.scenario(), 10,
                                   0.1, 0.01);
    };
    warm_solver->solve(SolveRequest{instance(), {}, &session});

    Xoshiro256 rng(0x6b75u * static_cast<std::uint64_t>(algo[0]));
    std::uint64_t spliced_steps = 0;
    for (int step = 0; step < 4; ++step) {
      // 4-6 clients per burst, spread over distinct arms.
      const int burst = 4 + static_cast<int>(rng.uniform(0, 2));
      std::vector<ScenarioDelta> deltas;
      for (int b = 0; b < burst; ++b) {
        const NodeId client =
            tree.client_ids()[(b * (kFanout / burst) + step) % kFanout];
        deltas.push_back(ScenarioDelta::set_requests(
            client, 1 + (tree.requests(client) + step) % 5));
        apply_delta(tree.scenario(), deltas.back());
      }
      const std::uint64_t before = session.stats().cells_skipped;
      const Solution warm =
          warm_solver->solve(SolveRequest{instance(), deltas, &session});
      expect_identical(warm, cold_solver->solve(instance()),
                       algo + " burst step " +
                           std::to_string(step));
      if (session.stats().cells_skipped > before) ++spliced_steps;
    }
    EXPECT_GE(spliced_steps, 3u)
        << algo << ": burst deltas must keep splicing through lazy joins "
        << "instead of bailing to full rebuilds";
  }
}

TEST(IncrementalSolveTest, ByteBudgetShedsColdestSubtreesFirst) {
  // Repeatedly dirty one arm of a star: its root path becomes hot, every
  // other arm stays at zero invalidations.  Budget shedding must evict the
  // cold arms and keep the hot path resident.
  constexpr int kFanout = 16;
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const auto solver = make_solver("power-sym");

  const auto run_steps = [&](Tree& tree, SolveSession& session) {
    const NodeId hot_client = tree.client_ids()[kFanout / 2];
    const Instance base{tree.topology_ptr(), tree.scenario(), modes, costs,
                        std::nullopt};
    solver->solve(SolveRequest{base, {}, &session});
    for (int step = 0; step < 4; ++step) {
      const std::vector<ScenarioDelta> deltas{ScenarioDelta::set_requests(
          hot_client, tree.requests(hot_client) + 1)};
      apply_delta(tree.scenario(), deltas.front());
      const Instance edited{tree.topology_ptr(), tree.scenario(), modes,
                            costs, std::nullopt};
      solver->solve(SolveRequest{edited, deltas, &session});
    }
    return hot_client;
  };

  // Dry run on an unbounded session to size a budget that forces state
  // shedding (the root's merge snapshots alone must not satisfy it).
  Tree sizing = make_star_tree(kFanout);
  SolveSession unbounded(sizing.topology_ptr());
  run_steps(sizing, unbounded);
  auto& sized = unbounded.power_cache("power-sym");
  const Topology& topo = sizing.topology();
  const std::size_t root_idx = topo.internal_index(sizing.root());
  std::size_t total = 0;
  std::size_t cold_arms = 0;
  for (std::size_t i = 0; i < sized.size(); ++i) {
    total += sized.state_bytes(i);
    // Untouched arms carry only the cold-attach invalidation.
    if (i != root_idx && sized.dirty_count(i) <= 1) {
      cold_arms += sized.state_bytes(i);
    }
  }
  ASSERT_GT(cold_arms, 0u);
  const std::size_t budget = (total - sized.snapshot_bytes(root_idx)) -
                             cold_arms / 2;

  Tree tree = make_star_tree(kFanout);
  SolveSession session(tree.topology_ptr(),
                       SolveSession::Options{/*max_bytes=*/budget});
  const NodeId hot_client = run_steps(tree, session);
  const std::size_t hot_arm =
      tree.topology().internal_index(tree.parent(hot_client));

  const SolveSession::Stats stats = session.stats();
  EXPECT_GT(stats.tables_dropped, 0u);
  auto& cache = session.power_cache("power-sym");
  // The hot path (dirtied every step) survives; only cold arms are shed.
  EXPECT_TRUE(cache.valid(hot_arm));
  EXPECT_TRUE(cache.valid(tree.topology().internal_index(tree.root())));
  std::size_t shed_cold = 0;
  for (std::size_t i = 0; i < cache.size(); ++i) {
    if (!cache.valid(i)) {
      EXPECT_LT(cache.dirty_count(i), cache.dirty_count(hot_arm))
          << "shed node " << i << " was not colder than the hot path";
      ++shed_cold;
    }
  }
  EXPECT_GT(shed_cold, 0u);
}

TEST(IncrementalSolveTest, SmallDeltaSkipsTheSignatureSweep) {
  Tree tree = make_star_tree(48);
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const auto warm_solver = make_solver("power-sym");
  const auto cold_solver = make_solver("power-sym");
  SolveSession session(tree.topology_ptr());

  const Instance base{tree.topology_ptr(), tree.scenario(), modes, costs,
                      std::nullopt};
  warm_solver->solve(SolveRequest{base, {}, &session});
  const std::uint64_t n = tree.num_internal();
  // A cold attach has nothing to diff against: zero checks.
  EXPECT_EQ(session.stats().signatures_checked, 0u);

  const auto step = [&](NodeId client) {
    const std::vector<ScenarioDelta> deltas{
        ScenarioDelta::set_requests(client, tree.requests(client) + 3)};
    apply_delta(tree.scenario(), deltas.front());
    const Instance edited{tree.topology_ptr(), tree.scenario(), modes, costs,
                          std::nullopt};
    const Solution warm =
        warm_solver->solve(SolveRequest{edited, deltas, &session});
    expect_identical(warm, cold_solver->solve(edited), "delta step");
  };

  // The first span after an unknown predecessor still sweeps (it primes
  // the touched-set tracking)...
  step(tree.client_ids()[0]);
  EXPECT_EQ(session.stats().signatures_checked, n);

  // ...then consecutive complete spans take the fast path: only the
  // current span's touched nodes union the previous span's are checked.
  step(tree.client_ids()[1]);
  const std::uint64_t after_fast = session.stats().signatures_checked;
  EXPECT_LE(after_fast, n + 2);

  // An unattributable span (clear-all) falls back to the full sweep.
  const std::vector<ScenarioDelta> clear{ScenarioDelta::clear_all_pre()};
  apply_delta(tree.scenario(), clear.front());
  const Instance cleared{tree.topology_ptr(), tree.scenario(), modes, costs,
                         std::nullopt};
  const Solution warm2 =
      warm_solver->solve(SolveRequest{cleared, clear, &session});
  EXPECT_EQ(session.stats().signatures_checked, after_fast + n);
  expect_identical(warm2, cold_solver->solve(cleared), "sweep fallback");
}

TEST(IncrementalSolveTest, ByteBudgetShedsStateButKeepsResults) {
  Tree tree = make_fuzz_tree(81, 0, 24);
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const auto warm_solver = make_solver("power-sym");
  const auto cold_solver = make_solver("power-sym");

  // A budget small enough to force shedding but nonzero, so the session
  // keeps the cheapest tables: results must stay bit-identical, only the
  // reuse counters may degrade.
  SolveSession session(tree.topology_ptr(),
                       SolveSession::Options{/*max_bytes=*/8 * 1024});
  Xoshiro256 rng = make_rng(81, 0, RngStream::kWorkloadUpdate);
  for (int step = 0; step < 6; ++step) {
    const std::vector<ScenarioDelta> deltas = random_step(tree.topology(),
                                                          rng);
    for (const ScenarioDelta& delta : deltas) {
      apply_delta(tree.scenario(), delta);
    }
    const Instance instance{tree.topology_ptr(), tree.scenario(), modes,
                            costs, std::nullopt};
    const Solution warm =
        warm_solver->solve(SolveRequest{instance, deltas, &session});
    expect_identical(warm, cold_solver->solve(instance),
                     "budget step " + std::to_string(step));
  }
  const SolveSession::Stats stats = session.stats();
  EXPECT_LE(stats.bytes_resident, 8u * 1024u);
  EXPECT_GT(stats.snapshots_dropped + stats.tables_dropped, 0u);

  // An unbounded session never sheds (and skips the accounting walk:
  // bytes_resident stays untracked at 0).
  SolveSession unbounded(tree.topology_ptr());
  warm_solver->solve(SolveRequest{
      Instance{tree.topology_ptr(), tree.scenario(), modes, costs,
               std::nullopt},
      {},
      &unbounded});
  EXPECT_EQ(unbounded.stats().snapshots_dropped, 0u);
  EXPECT_EQ(unbounded.stats().tables_dropped, 0u);
  EXPECT_EQ(unbounded.stats().bytes_resident, 0u);
}

TEST(IncrementalSolveTest, RejectsInstanceOfDifferentTopology) {
  Tree a = make_fuzz_tree(80, 0, 12);
  Tree b = make_fuzz_tree(80, 1, 12);
  const auto solver = make_solver("power-sym");
  SolveSession session(a.topology_ptr());
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const Instance other{b.topology_ptr(), b.scenario(), modes, costs,
                       std::nullopt};
  EXPECT_THROW(solver->solve(SolveRequest{other, {}, &session}), CheckError);
}

TEST(IncrementalSolveTest, NonIncrementalSolverFallsBackCold) {
  Tree tree = make_fuzz_tree(79, 0, 16);
  const auto solver = make_solver("greedy");
  EXPECT_FALSE(any(solver->caps() & SolverCaps::kIncremental));
  SolveSession session(tree.topology_ptr());
  const Instance instance =
      Instance::single_mode(tree.topology_ptr(), tree.scenario(), 10, 0.1,
                            0.01);
  const Solution warm = solver->solve(SolveRequest{instance, {}, &session});
  const Solution cold = solver->solve(instance);
  expect_identical(warm, cold, "greedy fallback");
  EXPECT_EQ(session.stats().cold_solves, 1u);
  EXPECT_EQ(session.stats().warm_solves, 0u);
}

}  // namespace
}  // namespace treeplace
