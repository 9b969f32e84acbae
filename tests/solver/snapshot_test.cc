// Session snapshots must restore warm state bit-identically.
//
// SolveSession::save/restore (core/dp_snapshot.h + support/binio.h)
// promise that a session written to bytes and restored — even into a
// session over a *separately built* identical topology, the process-
// restart case — plans exactly the warm solve the live session would
// have: same solutions, same work counters (nodes recomputed/reused,
// merge steps, signature checks, spliced cells), for all three
// incremental engines at 1 and 4 solver threads.  The rejection tests
// cover the other half of the contract: truncated, corrupted,
// wrong-version, wrong-magic and wrong-topology snapshots throw
// CheckError and leave the target session untouched (no partial
// restore), so a bad file degrades to a cold start, never to wrong
// results.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/preexisting.h"
#include "core/dp_cache.h"
#include "gen/tree_gen.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/binio.h"
#include "support/check.h"
#include "support/prng.h"
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

/// One random attributable step (no clear-all: the fuzz exercises the
/// delta fast path, whose planning state must round-trip too).
std::vector<ScenarioDelta> random_step(const Topology& topo, Xoshiro256& rng) {
  std::vector<ScenarioDelta> deltas;
  const int edits = 1 + static_cast<int>(rng.uniform(0, 2));
  for (int e = 0; e < edits; ++e) {
    switch (rng.uniform(0, 7)) {
      case 0: {
        const auto& ids = topo.internal_ids();
        deltas.push_back(ScenarioDelta::set_pre_existing(
            ids[rng.uniform(0, ids.size() - 1)],
            static_cast<int>(rng.uniform(0, 1))));
        break;
      }
      case 1: {
        const auto& ids = topo.internal_ids();
        deltas.push_back(ScenarioDelta::clear_pre_existing(
            ids[rng.uniform(0, ids.size() - 1)]));
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

void expect_identical(const Solution& got, const Solution& want,
                      const std::string& context) {
  ASSERT_EQ(got.feasible, want.feasible) << context;
  EXPECT_EQ(got.budget_met, want.budget_met) << context;
  EXPECT_EQ(got.placement, want.placement) << context;
  if (!want.feasible) return;
  EXPECT_DOUBLE_EQ(got.breakdown.cost, want.breakdown.cost) << context;
  EXPECT_DOUBLE_EQ(got.power, want.power) << context;
  EXPECT_EQ(got.breakdown.servers, want.breakdown.servers) << context;
  EXPECT_EQ(got.breakdown.reused, want.breakdown.reused) << context;
  ASSERT_EQ(got.frontier.size(), want.frontier.size()) << context;
  for (std::size_t i = 0; i < want.frontier.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.frontier[i].cost, want.frontier[i].cost) << context;
    EXPECT_DOUBLE_EQ(got.frontier[i].power, want.frontier[i].power)
        << context;
    EXPECT_EQ(got.frontier[i].placement, want.frontier[i].placement)
        << context;
  }
}

struct FuzzSetup {
  std::string algo;
  int num_internal = 24;
  bool single_mode = false;
};

Instance make_instance(Tree& tree, const FuzzSetup& setup,
                       const ModeSet& modes, const CostModel& costs) {
  return setup.single_mode
             ? Instance::single_mode(tree.topology_ptr(), tree.scenario(), 10,
                                     0.1, 0.01)
             : Instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                        std::nullopt};
}

std::string save_to_bytes(SolveSession& session) {
  std::ostringstream sink;
  binio::Writer writer(sink);
  session.save(writer);
  return sink.str();
}

void restore_from_bytes(SolveSession& session, const std::string& bytes) {
  std::istringstream source(bytes);
  binio::Reader reader(source, bytes.size());
  session.restore(reader);
}

/// The work counters of one solve, as a session-stats delta.
struct WorkDelta {
  std::uint64_t nodes_recomputed, nodes_reused, merge_steps,
      signatures_checked, cells_skipped;

  static WorkDelta diff(const SolveSession::Stats& after,
                        const SolveSession::Stats& before) {
    return {after.nodes_recomputed - before.nodes_recomputed,
            after.nodes_reused - before.nodes_reused,
            after.merge_steps - before.merge_steps,
            after.signatures_checked - before.signatures_checked,
            after.cells_skipped - before.cells_skipped};
  }
};

void expect_same_work(const WorkDelta& got, const WorkDelta& want,
                      const std::string& context) {
  EXPECT_EQ(got.nodes_recomputed, want.nodes_recomputed) << context;
  EXPECT_EQ(got.nodes_reused, want.nodes_reused) << context;
  EXPECT_EQ(got.merge_steps, want.merge_steps) << context;
  EXPECT_EQ(got.signatures_checked, want.signatures_checked) << context;
  EXPECT_EQ(got.cells_skipped, want.cells_skipped) << context;
}

void run_snapshot_fuzz(const FuzzSetup& setup, int solver_threads) {
  const ModeSet modes = setup.single_mode
                            ? ModeSet::single(10)
                            : ModeSet({5, 10}, 12.5, 3.0);
  const CostModel costs =
      setup.single_mode
          ? CostModel::simple(0.1, 0.01)
          : CostModel::uniform(modes.count(), 0.1, 0.01, 0.001, 0.001);

  const auto solver = make_solver(setup.algo);
  const auto cold_solver = make_solver(setup.algo);
  solver->set_options(Solver::Options{solver_threads});
  cold_solver->set_options(Solver::Options{solver_threads});
  ASSERT_TRUE(any(solver->caps() & SolverCaps::kIncremental));

  for (std::uint64_t index = 0; index < 2; ++index) {
    // The live session accumulates warm state over a few delta steps.
    Tree tree = make_fuzz_tree(91, index, setup.num_internal);
    SolveSession live(tree.topology_ptr());
    Xoshiro256 rng = make_rng(91, index, RngStream::kWorkloadUpdate);
    std::vector<ScenarioDelta> history;

    solver->solve(SolveRequest{make_instance(tree, setup, modes, costs), {},
                               &live});
    for (int step = 0; step < 4; ++step) {
      const std::vector<ScenarioDelta> deltas =
          random_step(tree.topology(), rng);
      for (const ScenarioDelta& d : deltas) {
        apply_delta(tree.scenario(), d);
        history.push_back(d);
      }
      solver->solve(SolveRequest{make_instance(tree, setup, modes, costs),
                                 deltas, &live});
    }

    const std::string bytes = save_to_bytes(live);
    ASSERT_FALSE(bytes.empty());
    // Serialization is deterministic: saving twice gives identical bytes.
    EXPECT_EQ(bytes, save_to_bytes(live));

    // Restore into a session over a *separately built* identical topology
    // (the process-restart case: same structure, different object) whose
    // scenario replayed the same edit history.
    Tree tree2 = make_fuzz_tree(91, index, setup.num_internal);
    for (const ScenarioDelta& d : history) apply_delta(tree2.scenario(), d);
    SolveSession restored(tree2.topology_ptr());
    restore_from_bytes(restored, bytes);

    // One more delta step, solved on both sessions plus a cold reference:
    // solutions and warm work counters must match bit-identically.
    for (int step = 0; step < 3; ++step) {
      const std::string context =
          setup.algo + " threads=" + std::to_string(solver_threads) +
          " tree=" + std::to_string(index) + " post-restore step " +
          std::to_string(step);
      const std::vector<ScenarioDelta> deltas =
          random_step(tree.topology(), rng);
      for (const ScenarioDelta& d : deltas) {
        apply_delta(tree.scenario(), d);
        apply_delta(tree2.scenario(), d);
      }
      const Instance live_inst = make_instance(tree, setup, modes, costs);
      const Instance restored_inst = make_instance(tree2, setup, modes,
                                                   costs);
      const SolveSession::Stats live_before = live.stats();
      const SolveSession::Stats restored_before = restored.stats();
      const Solution warm_live =
          solver->solve(SolveRequest{live_inst, deltas, &live});
      const Solution warm_restored =
          solver->solve(SolveRequest{restored_inst, deltas, &restored});
      const Solution cold = cold_solver->solve(live_inst);

      expect_identical(warm_live, cold, context + " (live vs cold)");
      expect_identical(warm_restored, cold, context + " (restored vs cold)");
      EXPECT_EQ(warm_live.stats.work, warm_restored.stats.work) << context;
      expect_same_work(
          WorkDelta::diff(restored.stats(), restored_before),
          WorkDelta::diff(live.stats(), live_before), context);
    }
    // The restored session went warm from its very first solve — the whole
    // point of persistence (a cold session would re-attach and recompute).
    EXPECT_EQ(restored.stats().cold_solves, 0u);
    EXPECT_GT(restored.stats().nodes_reused, 0u);
  }
}

TEST(SessionSnapshotTest, PowerSymRoundTripSerial) {
  run_snapshot_fuzz({"power-sym", 24, false}, /*solver_threads=*/1);
}

TEST(SessionSnapshotTest, PowerSymRoundTripThreaded) {
  run_snapshot_fuzz({"power-sym", 24, false}, /*solver_threads=*/4);
}

TEST(SessionSnapshotTest, PowerExactRoundTripSerial) {
  run_snapshot_fuzz({"power-exact", 12, false}, /*solver_threads=*/1);
}

TEST(SessionSnapshotTest, PowerExactRoundTripThreaded) {
  run_snapshot_fuzz({"power-exact", 12, false}, /*solver_threads=*/4);
}

TEST(SessionSnapshotTest, UpdateDpRoundTripSerial) {
  run_snapshot_fuzz({"update-dp", 24, true}, /*solver_threads=*/1);
}

TEST(SessionSnapshotTest, UpdateDpRoundTripThreaded) {
  run_snapshot_fuzz({"update-dp", 24, true}, /*solver_threads=*/4);
}

// ---------------------------------------------------------------------------
// Compaction: SolveSession::compact() packs resident tables losslessly.

// compact() packs the dense MinCost tables; the power engines' label
// tables have nothing to pack.  The gate is monotonicity (compact never
// grows a session), idempotence, and the same bit-identity and
// serialization checks, for every engine.
void run_compact_fuzz(const FuzzSetup& setup) {
  const ModeSet modes = setup.single_mode
                            ? ModeSet::single(10)
                            : ModeSet({5, 10}, 12.5, 3.0);
  const CostModel costs =
      setup.single_mode
          ? CostModel::simple(0.1, 0.01)
          : CostModel::uniform(modes.count(), 0.1, 0.01, 0.001, 0.001);
  const auto solver = make_solver(setup.algo);
  const auto cold_solver = make_solver(setup.algo);

  Tree tree = make_fuzz_tree(93, 0, setup.num_internal);
  SolveSession session(tree.topology_ptr());
  Xoshiro256 rng = make_rng(93, 0, RngStream::kWorkloadUpdate);
  solver->solve(
      SolveRequest{make_instance(tree, setup, modes, costs), {}, &session});

  for (int step = 0; step < 6; ++step) {
    // Compact between steps: resident bytes must not grow, and the next
    // warm solve (which unpacks on demand) must stay bit-identical.
    const std::string unpacked_bytes = save_to_bytes(session);
    const std::size_t before = session.resident_bytes();
    const std::size_t after = session.compact();
    EXPECT_EQ(session.resident_bytes(), after);
    EXPECT_LE(after, before) << setup.algo << " step " << step
                             << ": compact() must never grow a session";
    EXPECT_EQ(session.compact(), after) << "compact() must be idempotent";
    // A compacted session serializes to the same bytes as an unpacked one
    // (deterministic pack), so persistence is compaction-oblivious.
    EXPECT_EQ(save_to_bytes(session), unpacked_bytes)
        << setup.algo << " step " << step;

    const std::vector<ScenarioDelta> deltas =
        random_step(tree.topology(), rng);
    for (const ScenarioDelta& d : deltas) apply_delta(tree.scenario(), d);
    const Instance instance = make_instance(tree, setup, modes, costs);
    const Solution warm =
        solver->solve(SolveRequest{instance, deltas, &session});
    expect_identical(warm, cold_solver->solve(instance),
                     setup.algo + " compacted step " + std::to_string(step));
  }

  // Round-trip a compacted session through the snapshot and ensure the
  // restored session solves identically warm.
  const std::string bytes = save_to_bytes(session);
  Tree tree2 = make_fuzz_tree(93, 0, setup.num_internal);
  // Replay the live scenario wholesale (same topology, same state).
  for (NodeId client : tree.client_ids()) {
    tree2.set_requests(client, tree.requests(client));
  }
  for (NodeId node : tree.internal_ids()) {
    if (tree.pre_existing(node)) {
      tree2.set_pre_existing(node, tree.original_mode(node));
    } else {
      tree2.clear_pre_existing(node);
    }
  }
  SolveSession restored(tree2.topology_ptr());
  restore_from_bytes(restored, bytes);
  const std::vector<ScenarioDelta> deltas =
      random_step(tree2.topology(), rng);
  for (const ScenarioDelta& d : deltas) {
    apply_delta(tree.scenario(), d);
    apply_delta(tree2.scenario(), d);
  }
  const Instance instance = make_instance(tree2, setup, modes, costs);
  const Solution warm =
      solver->solve(SolveRequest{instance, deltas, &restored});
  expect_identical(warm, cold_solver->solve(instance),
                   setup.algo + " restored-from-compacted");
  EXPECT_EQ(restored.stats().cold_solves, 0u);
}

TEST(SessionSnapshotTest, CompactIsLosslessPowerSym) {
  run_compact_fuzz({"power-sym", 24, false});
}

TEST(SessionSnapshotTest, CompactIsLosslessPowerExact) {
  run_compact_fuzz({"power-exact", 12, false});
}

TEST(SessionSnapshotTest, CompactShrinksLosslesslyUpdateDp) {
  run_compact_fuzz({"update-dp", 24, true});
}

// ---------------------------------------------------------------------------
// Byte-flip fuzz over a power-engine session (RejectionRig below uses
// update-dp).

/// Star of chains (16 arms x 3 internal links, a client per link) with a
/// pre-existing server on every third arm.
Tree make_chain_star() {
  TreeBuilder builder;
  const NodeId root = builder.add_root();
  for (int a = 0; a < 16; ++a) {
    NodeId at = root;
    for (int d = 0; d < 3; ++d) {
      at = builder.add_internal(at);
      builder.add_client(at, 1 + ((a + d) % 3));
    }
    if (a % 3 == 0) builder.set_pre_existing(at, 0);
  }
  return std::move(builder).build();
}

TEST(SessionSnapshotTest, PowerSymSnapshotCorruptionRejectedCleanly) {
  Tree tree = make_chain_star();
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const auto solver = make_solver("power-sym");
  const auto cold_solver = make_solver("power-sym");
  const auto instance = [&] {
    return Instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                    std::nullopt};
  };

  SolveSession session(tree.topology_ptr());
  const NodeId hot = tree.client_ids()[2];
  solver->solve(SolveRequest{instance(), {}, &session});
  for (int step = 0; step < 3; ++step) {
    const std::vector<ScenarioDelta> deltas{
        ScenarioDelta::set_requests(hot, 1 + step)};
    apply_delta(tree.scenario(), deltas.front());
    solver->solve(SolveRequest{instance(), deltas, &session});
  }
  const std::string bytes = save_to_bytes(session);

  // Flip sampled bytes across the whole snapshot: every corruption must
  // throw, and the target must stay untouched — still able to solve
  // bit-identically afterwards.
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 29);
  for (std::size_t i = 0; i < bytes.size(); i += stride) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    SolveSession target(tree.topology_ptr());
    EXPECT_THROW(restore_from_bytes(target, corrupted), CheckError)
        << "flipped byte " << i << " not rejected";
    const Solution warm = solver->solve(SolveRequest{instance(), {}, &target});
    expect_identical(warm, cold_solver->solve(instance()),
                     "post-failed-restore solve");
  }

  // The pristine bytes still restore fine, and warm: the next delta
  // solve splices the restored subtree tables.
  SolveSession target(tree.topology_ptr());
  restore_from_bytes(target, bytes);
  const std::vector<ScenarioDelta> deltas{ScenarioDelta::set_requests(hot, 4)};
  apply_delta(tree.scenario(), deltas.front());
  expect_identical(solver->solve(SolveRequest{instance(), deltas, &target}),
                   cold_solver->solve(instance()),
                   "restore-after-corruption-fuzz");
  EXPECT_GT(target.stats().nodes_reused, 0u);
}

/// Rewrites the CRC trailer of a snapshot after its bytes were edited.
void fix_crc(std::string& bytes) {
  const std::uint32_t crc =
      binio::crc32_update(0, bytes.data(), bytes.size() - 4);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<char>(crc >> (8 * i));
  }
}

TEST(SessionSnapshotTest, MalformedPowerTablesRejectedDespiteValidCrc) {
  // A CRC only proves the bytes arrived as written.  A snapshot whose
  // label tables no solve could have built — a decision past its operand
  // list or the child's list, a mode out of range, labels out of flat
  // order, a flow above W_M, a box or bounds that do not match the tree —
  // must be rejected whole too, or the next solve would index past the
  // lists.  Each file here is saved from a tampered cache, so its CRC is
  // valid.
  Tree tree = make_chain_star();
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const auto solver = make_solver("power-sym");
  const Instance instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                          std::nullopt};
  const Solution cold = solver->solve(instance);
  const Topology& topo = tree.topology();
  const std::size_t root = topo.internal_index(tree.root());
  const std::size_t arm = topo.internal_index(topo.internal_children(
      tree.root())[0]);  // the root's leaf slot 0 expands this node
  const std::uint32_t join = static_cast<std::uint32_t>(
      topo.internal_children(tree.root()).size());  // joins slots 0 and 1

  using Tamper = void (*)(dp::PowerSubtreeCache&, std::size_t root,
                          std::size_t arm, std::uint32_t join);
  const std::vector<std::pair<std::string, Tamper>> tampers = {
      {"leaf mode out of range",
       [](dp::PowerSubtreeCache& c, std::size_t r, std::size_t, std::uint32_t) {
         c.state(r).slots[0].labels[0].dec.mode = 2;
       }},
      {"leaf decision past the child's list",
       [](dp::PowerSubtreeCache& c, std::size_t r, std::size_t a,
          std::uint32_t) {
         c.state(r).slots[0].labels[0].dec.right =
             static_cast<std::uint32_t>(c.state(a).table.labels.size());
       }},
      {"join decision past its left operand",
       [](dp::PowerSubtreeCache& c, std::size_t r, std::size_t,
          std::uint32_t j) {
         c.state(r).slots[j].labels[0].dec.left =
             static_cast<std::uint32_t>(c.state(r).slots[0].labels.size());
       }},
      {"labels out of flat order",
       [](dp::PowerSubtreeCache& c, std::size_t r, std::size_t,
          std::uint32_t j) {
         auto& labels = c.state(r).slots[j].labels;
         std::swap(labels[0], labels[1]);
       }},
      {"flow above W_M",
       [](dp::PowerSubtreeCache& c, std::size_t r, std::size_t,
          std::uint32_t) { c.state(r).slots[0].labels[0].flow = 11; }},
      {"join box not its operands' sum",
       [](dp::PowerSubtreeCache& c, std::size_t r, std::size_t,
          std::uint32_t j) {
         dp::LabelTable& t = c.state(r).slots[j];
         std::vector<int> bounds = t.box.bounds();
         bounds[0] += 1;
         t.box = dp::label_box(std::move(bounds));
       }},
      {"folded label not in its root slot",
       [](dp::PowerSubtreeCache& c, std::size_t, std::size_t a,
          std::uint32_t) { c.state(a).table.labels[0].dec.right += 1; }},
      {"bounds beyond the node's own options",
       [](dp::PowerSubtreeCache& c, std::size_t, std::size_t a,
          std::uint32_t) { c.state(a).incl_bounds[0] += 2; }},
  };
  for (const auto& [name, tamper] : tampers) {
    SolveSession session(tree.topology_ptr());
    solver->solve(SolveRequest{instance, {}, &session});
    dp::PowerSubtreeCache& cache = session.power_cache("power-sym");
    ASSERT_GE(cache.state(root).slots[join].labels.size(), 2u);
    // The untampered file restores; the tampered one must not.
    SolveSession pristine(tree.topology_ptr());
    restore_from_bytes(pristine, save_to_bytes(session));
    tamper(cache, root, arm, join);
    SolveSession target(tree.topology_ptr());
    EXPECT_THROW(restore_from_bytes(target, save_to_bytes(session)),
                 CheckError)
        << name << " not rejected";
    expect_identical(solver->solve(SolveRequest{instance, {}, &target}), cold,
                     "solve after rejecting: " + name);
  }

  // Byte flips with the CRC rewritten: each file is rejected, or it
  // restores and the next solve reads only in-bounds entries (its result
  // may differ — a flipped flow is still a plausible table).  A restore
  // that passes must never leave a solve reading past a list, which the
  // sanitizer builds check.
  SolveSession session(tree.topology_ptr());
  solver->solve(SolveRequest{instance, {}, &session});
  const std::string bytes = save_to_bytes(session);
  int rejected = 0;
  const std::size_t stride = std::max<std::size_t>(1, bytes.size() / 211);
  for (std::size_t i = 24; i + 4 < bytes.size(); i += stride) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x5A);
    fix_crc(flipped);
    SolveSession target(tree.topology_ptr());
    try {
      restore_from_bytes(target, flipped);
    } catch (const CheckError&) {
      ++rejected;
      continue;
    }
    try {
      solver->solve(SolveRequest{instance, {}, &target});
    } catch (const CheckError&) {
      // A debug build's consistency checks may refuse the plausible but
      // wrong tables; only out-of-bounds reads are ruled out here.
    }
  }
  EXPECT_GT(rejected, 0);
}

// ---------------------------------------------------------------------------
// Rejection: bad snapshots throw CheckError and leave no partial state.

struct RejectionRig {
  Tree tree = make_fuzz_tree(92, 0, 12);
  ModeSet modes = ModeSet::single(10);
  CostModel costs = CostModel::simple(0.1, 0.01);
  std::unique_ptr<Solver> solver = make_solver("update-dp");
  std::string bytes;

  RejectionRig() {
    SolveSession session(tree.topology_ptr());
    const Instance instance = Instance::single_mode(
        tree.topology_ptr(), tree.scenario(), 10, 0.1, 0.01);
    solver->solve(SolveRequest{instance, {}, &session});
    const NodeId client = tree.client_ids().front();
    const std::vector<ScenarioDelta> deltas{
        ScenarioDelta::set_requests(client, tree.requests(client) + 1)};
    apply_delta(tree.scenario(), deltas.front());
    solver->solve(
        SolveRequest{Instance::single_mode(tree.topology_ptr(),
                                           tree.scenario(), 10, 0.1, 0.01),
                     deltas, &session});
    std::ostringstream sink;
    binio::Writer writer(sink);
    session.save(writer);
    bytes = sink.str();
  }

  /// A session that failed a restore must still solve bit-identically to
  /// cold — the no-partial-restore guarantee in action.
  void expect_untouched_and_usable(SolveSession& session) {
    const Instance instance = Instance::single_mode(
        tree.topology_ptr(), tree.scenario(), 10, 0.1, 0.01);
    const Solution warm = solver->solve(SolveRequest{instance, {}, &session});
    const Solution cold = solver->solve(instance);
    expect_identical(warm, cold, "post-failed-restore solve");
  }
};

TEST(SessionSnapshotTest, TruncatedSnapshotsRejectedCleanly) {
  RejectionRig rig;
  ASSERT_GT(rig.bytes.size(), 64u);
  // Every header byte plus ~100 samples across the body and the very end.
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < 64; ++i) cuts.push_back(i);
  const std::size_t stride = std::max<std::size_t>(1, rig.bytes.size() / 97);
  for (std::size_t i = 64; i < rig.bytes.size(); i += stride) {
    cuts.push_back(i);
  }
  cuts.push_back(rig.bytes.size() - 1);
  for (const std::size_t cut : cuts) {
    SolveSession session(rig.tree.topology_ptr());
    EXPECT_THROW(
        restore_from_bytes(session, rig.bytes.substr(0, cut)), CheckError)
        << "truncation at byte " << cut << " not rejected";
  }
  // The session is untouched after a failed restore (spot-check).
  SolveSession session(rig.tree.topology_ptr());
  EXPECT_THROW(
      restore_from_bytes(session, rig.bytes.substr(0, rig.bytes.size() / 2)),
      CheckError);
  rig.expect_untouched_and_usable(session);
}

TEST(SessionSnapshotTest, CorruptSnapshotsRejectedCleanly) {
  RejectionRig rig;
  const std::size_t stride = std::max<std::size_t>(1, rig.bytes.size() / 53);
  for (std::size_t i = 0; i < rig.bytes.size(); i += stride) {
    std::string corrupted = rig.bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x5A);
    SolveSession session(rig.tree.topology_ptr());
    EXPECT_THROW(restore_from_bytes(session, corrupted), CheckError)
        << "flipped byte " << i << " not rejected";
    rig.expect_untouched_and_usable(session);
  }
}

TEST(SessionSnapshotTest, WrongVersionRejected) {
  RejectionRig rig;
  std::string bad = rig.bytes;
  bad[8] = 99;  // the u32 version field follows the 8-byte magic
  SolveSession session(rig.tree.topology_ptr());
  EXPECT_THROW(restore_from_bytes(session, bad), CheckError);
  rig.expect_untouched_and_usable(session);
}

TEST(SessionSnapshotTest, PreviousVersionRejectedWholeAndColdStarts) {
  // A version-3 file (written while the power DPs still stored dense
  // count-vector tables) or an older one must be refused outright with
  // its version named, CRC intact, and the session must then cold-start
  // to the live session's frontier.
  Tree tree = make_fuzz_tree(95, 0, 16);
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const Instance instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                          std::nullopt};
  const auto solver = make_solver("power-sym");
  SolveSession live(tree.topology_ptr());
  const Solution warm = solver->solve(SolveRequest{instance, {}, &live});
  for (const char version : {3, 2}) {
    const std::string context = "version " + std::to_string(version);
    std::string old = save_to_bytes(live);
    ASSERT_GT(old.size(), 16u);
    old[8] = version;  // the u32 version field follows the 8-byte magic
    fix_crc(old);

    SolveSession restored(tree.topology_ptr());
    try {
      restore_from_bytes(restored, old);
      ADD_FAILURE() << "a " << context << " snapshot was accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot " + context),
                std::string::npos)
          << e.what();
    }
    const Solution cold_start =
        solver->solve(SolveRequest{instance, {}, &restored});
    expect_identical(cold_start, warm, "cold start after a " + context);
    expect_identical(cold_start, solver->solve(instance),
                     "cold start vs one-shot solve, " + context);
    const SolveSession::Stats stats = restored.stats();
    EXPECT_EQ(stats.nodes_recomputed, tree.num_internal()) << context;
    EXPECT_EQ(stats.nodes_reused, 0u) << context;
  }
}

TEST(SessionSnapshotTest, WrongMagicRejected) {
  RejectionRig rig;
  std::string bad = rig.bytes;
  bad[0] = 'X';
  SolveSession session(rig.tree.topology_ptr());
  EXPECT_THROW(restore_from_bytes(session, bad), CheckError);
}

TEST(SessionSnapshotTest, WrongTopologyRejected) {
  RejectionRig rig;
  Tree other = make_fuzz_tree(93, 1, 12);
  ASSERT_NE(other.topology().structural_hash(),
            rig.tree.topology().structural_hash());
  SolveSession session(other.topology_ptr());
  EXPECT_THROW(restore_from_bytes(session, rig.bytes), CheckError);
}

TEST(SessionSnapshotTest, EmptySessionRoundTrips) {
  Tree tree = make_fuzz_tree(94, 0, 12);
  SolveSession session(tree.topology_ptr());
  const std::string bytes = save_to_bytes(session);
  SolveSession restored(tree.topology_ptr());
  restore_from_bytes(restored, bytes);  // no caches: header + CRC only
  EXPECT_EQ(restored.stats().warm_solves, 0u);
}

}  // namespace
}  // namespace treeplace
