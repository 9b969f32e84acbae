// Externally-owned per-subtree DP state: the warm-start substrate.
//
// Every bottom-up DP in this library fills one NodeState per internal node
// (see core/dp_util.h).  Historically those states were locals of one solve
// call; a SubtreeCache moves their ownership out, so they can survive in a
// SolveSession (solver/session.h) and be reused by the next solve over the
// same topology.
//
// Invalidation is *signature-diff based*: the cache records, per internal
// node, the exact solver-visible inputs its table was computed from (client
// mass, pre-existing flag, original mode — a dp::NodeSignature).  A warm
// solve recomputes a node iff its signature changed or any child was
// recomputed (dirtiness propagates along the root path, the
// subtree-locality argument of the paper's update setting).  Within a
// recomputed node, the balanced merge tree (dp::MergePlan) is resumed
// *per slot*: clean children's leaf slots and every internal slot whose
// child range stayed clean are spliced in from the cached snapshots, so a
// single dirty child costs O(log k) slot rebuilds instead of the whole
// merge chain.
//
// Two planning paths produce the same DirtyPlan:
//   * the full signature sweep compares every internal node's signature
//     against the cache — always correct, O(N) signature builds;
//   * the delta fast path trusts a caller-supplied ScenarioDelta span to
//     name every edit and checks only the touched nodes (union'd with the
//     previous solve's touched set, so serve-style base-fork callers are
//     covered).  It is taken only when the span is attributable, the cache
//     is fully valid, and the touched set is small.
// The fast path makes the span a soft *contract*: it must list every edit
// since the session's previous solve (relative to that scenario or to a
// common base scenario both spans fork from).  Callers that cannot promise
// that pass an empty span, which always selects the full sweep — so
// legacy no-hint callers keep their correctness unconditionally.
//
// Engine parameters that shape the tables are folded into a params
// signature: W for the MinCost DP; for the power DPs the mode count, the
// key's width and the mode capacities, and also the mode powers and cost
// coefficients, because they price the labels that pruning compares
// (core/pareto_root.h).  Any change wipes the cache, so a session never
// mixes tables across incompatible solves and a warm solve prunes exactly
// like its cold twin.
//
// Snapshot format (core/dp_snapshot.h + support/binio.h): a SubtreeCache
// serializes to an endian-stable binary record so a SolveSession can be
// saved to disk and restored warm after a process restart or a shard
// migration.  Layout (all scalars little-endian, format version 4):
//
//   per cache:  params count + values, node count n, then per node:
//     NodeSignature (client_mass u64, original_mode i32),
//     valid u8, resumable u8, dirty_count u64,
//     the engine NodeState:
//       power DPs — the folded label table, incl_bounds, then the slot
//         count and every merge-plan slot's label table; a label table is
//         its box bounds, a label count, and per label flow u64, flat
//         u64, operand positions u32 u32 and mode i8;
//       MinCost DP — eb, nb, the folded flow table, the slot decisions,
//         slot_eb, slot_nb and the slot flow tables (PackedTable /
//         PackedDecisions encodings);
//   then the last_touched hint (known u8, count, NodeIds).
//
// The enclosing session file adds a magic ("TPSNAP01"), a format version,
// the topology's structural_hash, and a CRC32 trailer; restore rejects any
// mismatch or truncation as a whole (no partial restore), as well as
// power label tables no solve could have built (boxes that do not match
// the tree, labels out of order, decisions past their lists), and an
// older version starts the session cold.  Because the signatures, validity
// flags, dirty counts and the last_touched hint all round-trip, a restored
// cache plans exactly the warm solve the in-memory cache would have —
// work counters and results are bit-identical.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/dp_util.h"
#include "core/merge_kernel.h"
#include "model/cost.h"
#include "model/modes.h"
#include "tree/scenario.h"
#include "tree/scenario_delta.h"
#include "tree/topology.h"

namespace treeplace::dp {

/// The solver-visible inputs of one internal node, as the DPs read them:
/// the node's client mass and its pre-existing state (original_mode >= 0
/// iff the node is in E).  Engines that ignore original modes (the
/// single-mode MinCost DP) normalize the mode to 0 before storing.
struct NodeSignature {
  RequestCount client_mass = 0;
  std::int32_t original_mode = -1;  ///< -1 = not pre-existing

  friend bool operator==(const NodeSignature&,
                         const NodeSignature&) = default;
};

namespace detail {

template <typename T>
std::size_t vector_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
std::size_t arena_tables_bytes(const std::vector<ArenaTable<T>>& v) {
  std::size_t total = vector_bytes(v);
  for (const auto& table : v) total += table.capacity_bytes();
  return total;
}

template <typename T>
void release_arena_tables(std::vector<ArenaTable<T>>& v,
                          TableArena& arena) noexcept {
  for (auto& table : v) table.clear(arena);
  v.clear();
  v.shrink_to_fit();
}

inline std::size_t packed_tables_bytes(const std::vector<PackedTable>& v) {
  std::size_t total = vector_bytes(v);
  for (const PackedTable& t : v) total += t.heap_bytes();
  return total;
}

inline std::size_t packed_decisions_bytes(
    const std::vector<PackedDecisions>& v) {
  std::size_t total = vector_bytes(v);
  for (const PackedDecisions& t : v) total += t.heap_bytes();
  return total;
}

}  // namespace detail

/// One label of a power-DP table: a count vector (its flat index in the
/// table's box), the least flow leaving the partial subtree with those
/// counts, and the decision that produced that flow.  In a merge-plan
/// slot, `dec` holds the two operand labels' positions (internal slot) or
/// the child's folded label and the mode of a replica on the child (leaf
/// slot); a folded table's label carries its root-slot label's decision.
/// Flats are 64-bit: a box holds every count vector the subtree's nodes
/// could reach, (n+1)^M x (|E|+1)^2 cells for the symmetric key, which
/// passes 2^32 on a few hundred nodes while the list stays a few dozen
/// labels long.
struct Label {
  RequestCount flow = 0;
  std::uint64_t flat = 0;
  Decision dec;
};

/// The box of a label table: any size up to 2^64 cells (kMaxLabelCells).
inline Box label_box(std::vector<int> bounds) {
  return Box(std::move(bounds), kMaxLabelCells);
}

/// A label table: the box of every count vector it can hold, and its
/// non-dominated labels (core/pareto_root.h) in strictly ascending flat
/// order.  A list never holds more labels than its box has valid cells —
/// the count-vector table of the paper's DP — so Theorem 3's polynomial
/// bound still holds; pruning only shrinks it (to a few dozen labels on
/// the benchmark trees, against thousands of valid cells).
struct LabelTable {
  Box box;
  std::vector<Label> labels;

  std::size_t bytes() const {
    return detail::vector_bytes(labels) +
           detail::vector_bytes(box.bounds()) +
           box.dims() * sizeof(std::size_t);
  }
};

/// Per-node state of the power DPs (exact and symmetric share the shape):
/// the folded table (children combined along the merge tree, client mass
/// folded in), the bounds the parent's leaf box sees, and one label table
/// per merge-plan slot.  The slot tables are at once the decisions the
/// reconstruction walks and the snapshots a warm re-solve resumes from:
/// it rebuilds only the dirty leaves and the internal slots on their root
/// paths.  The tree root keeps neither a folded table nor its last merge
/// slot — the root join pairs that step's two operand slots instead
/// (core/pareto_root.h).  Labels are plain heap vectors: the arena, the
/// packed encodings and snapshot shedding serve the dense MinCost tables
/// only, so the hooks below that take them are no-ops.
struct PowerNodeState {
  LabelTable table;
  std::vector<int> incl_bounds;
  std::vector<LabelTable> slots;  ///< one per merge-plan slot

  static constexpr bool packed = false;
  void pack(TableArena&) {}
  void unpack(TableArena&) {}
  /// Nothing to shed: the slot tables hold the decisions.  The cache still
  /// clears the node's resumable flag, so its next dirty solve rebuilds
  /// every slot.
  void drop_snapshots(TableArena&) noexcept {}
  void release(TableArena&) noexcept { *this = PowerNodeState(); }

  std::size_t snapshot_bytes() const { return 0; }
  std::size_t total_bytes() const {
    std::size_t total = table.bytes() + detail::vector_bytes(incl_bounds) +
                        detail::vector_bytes(slots);
    for (const LabelTable& t : slots) total += t.bytes();
    return total;
  }
};

/// Per-node state of the MinCost-WithPre DP: the folded flow table and
/// one dense table per merge-plan slot, over (eb, nb) bound pairs (a
/// slot's table is a flat array over Box({eb, nb}), i.e. indexed
/// e*(nb+1)+n).  Decisions use the shared dp::Decision record — for
/// internal slots the two operand flats, for leaf slots `right` = the
/// child's flat and `mode` = 1 when a replica sits on the child itself —
/// so merges run through the join kernel (core/merge_kernel.h).
struct MinCostNodeState {
  int eb = 0;  ///< pre-existing nodes strictly below
  int nb = 0;  ///< non-pre-existing internal nodes strictly below
  ArenaTable<RequestCount> flow;
  std::vector<ArenaTable<Decision>> slot_decisions;
  /// Per-slot (eb, nb) bounds; kept by every solve (reconstruction
  /// re-derives flat indices from them).
  std::vector<int> slot_eb;
  std::vector<int> slot_nb;
  std::vector<ArenaTable<RequestCount>> slot_flows;  ///< cached solves only

  /// Lossless compaction: flow tables move into PackedTable encodings,
  /// decision tables into PackedDecisions, and their arena blocks are
  /// returned.  The solver calls SubtreeCache::ensure_unpacked before
  /// reading or rebuilding a node — including reconstruction, which walks
  /// decisions.  Packing commits per node only when the encoding is
  /// actually smaller than the arena blocks it frees — tiny tables
  /// (one-cell leaf slots) stay arena-backed rather than paying the
  /// per-encoding bookkeeping, so compact() never grows a node.
  bool packed = false;
  PackedTable packed_flow;
  std::vector<PackedTable> packed_slot_flows;
  std::vector<PackedDecisions> packed_slot_decisions;

  void pack(TableArena& arena) {
    if (packed) return;
    PackedTable pf = PackedTable::pack(flow.span());
    std::vector<PackedTable> psf(slot_flows.size());
    for (std::size_t k = 0; k < slot_flows.size(); ++k) {
      psf[k] = PackedTable::pack(slot_flows[k].span());
    }
    std::vector<PackedDecisions> psd(slot_decisions.size());
    for (std::size_t k = 0; k < slot_decisions.size(); ++k) {
      // Elide dead cells behind the slot flow's validity runs when the
      // companion table is still resident (it is not after snapshots were
      // shed); dense otherwise.
      if (k < slot_flows.size() &&
          slot_flows[k].size() == slot_decisions[k].size()) {
        psd[k] = PackedDecisions::pack(slot_decisions[k].span(),
                                       slot_flows[k].span());
      } else {
        psd[k] = PackedDecisions::pack(slot_decisions[k].span());
      }
    }
    std::size_t unpacked_bytes = flow.capacity_bytes();
    for (const auto& t : slot_flows) unpacked_bytes += t.capacity_bytes();
    for (const auto& t : slot_decisions) unpacked_bytes += t.capacity_bytes();
    std::size_t packed_bytes = pf.heap_bytes() +
                               detail::vector_bytes(psf) +
                               detail::vector_bytes(psd);
    for (const auto& p : psf) packed_bytes += p.heap_bytes();
    for (const auto& p : psd) packed_bytes += p.heap_bytes();
    if (packed_bytes >= unpacked_bytes) return;
    packed_flow = std::move(pf);
    flow.clear(arena);
    packed_slot_flows = std::move(psf);
    for (auto& t : slot_flows) t.clear(arena);
    packed_slot_decisions = std::move(psd);
    for (auto& t : slot_decisions) t.clear(arena);
    packed = true;
  }

  void unpack(TableArena& arena) {
    if (!packed) return;
    flow.resize_uninit(arena, packed_flow.cells());
    packed_flow.unpack(flow.span());
    packed_flow.clear();
    TREEPLACE_DCHECK(slot_flows.size() == packed_slot_flows.size());
    for (std::size_t k = 0; k < packed_slot_flows.size(); ++k) {
      slot_flows[k].resize_uninit(arena, packed_slot_flows[k].cells());
      packed_slot_flows[k].unpack(slot_flows[k].span());
    }
    packed_slot_flows.clear();
    packed_slot_flows.shrink_to_fit();
    TREEPLACE_DCHECK(slot_decisions.size() == packed_slot_decisions.size());
    for (std::size_t k = 0; k < packed_slot_decisions.size(); ++k) {
      slot_decisions[k].resize_uninit(arena,
                                      packed_slot_decisions[k].cells());
      packed_slot_decisions[k].unpack(slot_decisions[k].span());
    }
    packed_slot_decisions.clear();
    packed_slot_decisions.shrink_to_fit();
    packed = false;
  }

  void drop_snapshots(TableArena& arena) noexcept {
    detail::release_arena_tables(slot_flows, arena);
    packed_slot_flows.clear();
    packed_slot_flows.shrink_to_fit();
  }

  void release(TableArena& arena) noexcept {
    drop_snapshots(arena);
    flow.clear(arena);
    packed_flow.clear();
    packed_slot_decisions.clear();
    packed_slot_decisions.shrink_to_fit();
    packed = false;
    detail::release_arena_tables(slot_decisions, arena);
    eb = 0;
    nb = 0;
    slot_eb.clear();
    slot_eb.shrink_to_fit();
    slot_nb.clear();
    slot_nb.shrink_to_fit();
  }

  std::size_t snapshot_bytes() const {
    return detail::arena_tables_bytes(slot_flows) +
           detail::packed_tables_bytes(packed_slot_flows);
  }
  std::size_t total_bytes() const {
    return snapshot_bytes() + flow.capacity_bytes() +
           packed_flow.heap_bytes() + detail::vector_bytes(slot_eb) +
           detail::vector_bytes(slot_nb) +
           detail::arena_tables_bytes(slot_decisions) +
           detail::packed_decisions_bytes(packed_slot_decisions);
  }
};

/// One engine's cached per-subtree tables over one topology.  Owned by a
/// SolveSession; engines receive a pointer and leave their NodeStates
/// behind for the next solve.  Not thread-safe: warm solves over one cache
/// must be serialized (SolveSession::solve_mutex).
template <typename NodeState>
class SubtreeCache {
 public:
  /// Binds the cache to a (topology, engine-params) pair, wiping all state
  /// when either differs from the previous solve.  Returns true when the
  /// surviving entries may be reused (same topology, same params).
  bool attach(const Topology* topo, std::vector<std::uint64_t> params) {
    const std::size_t n = topo->num_internal();
    if (topo == topo_ && params == params_ && states_.size() == n) {
      return true;
    }
    topo_ = topo;
    params_ = std::move(params);
    arena_.reset();  // invalidates every table the old states pointed into
    states_.assign(n, NodeState{});
    sigs_.assign(n, NodeSignature{});
    valid_.assign(n, 0);
    resumable_.assign(n, 0);
    dirty_counts_.assign(n, 0);
    num_valid_ = 0;
    last_touched_.clear();
    last_touched_known_ = false;
    return false;
  }

  /// The cached state slot of dense internal index `i` (engine-owned
  /// layout; meaningful only while valid(i)).
  NodeState& state(std::size_t i) { return states_[i]; }
  const NodeState& state(std::size_t i) const { return states_[i]; }
  const NodeSignature& signature(std::size_t i) const { return sigs_[i]; }
  /// The engine-params signature bound by the last attach() — serialized
  /// by snapshots so a restore re-binds the identical (topology, params)
  /// pair and the next attach() returns warm.
  const std::vector<std::uint64_t>& params() const { return params_; }
  bool valid(std::size_t i) const { return valid_[i] != 0; }
  /// True while the node's merge-tree snapshots survive: a dirty re-solve
  /// may then resume per slot instead of rebuilding from scratch.
  bool resumable(std::size_t i) const { return resumable_[i] != 0; }
  /// True when every node is valid — the precondition of the delta fast
  /// path (an invalid node must be recomputed even if untouched).
  bool all_valid() const { return num_valid_ == states_.size(); }

  void invalidate(std::size_t i) {
    if (valid_[i] != 0) --num_valid_;
    valid_[i] = 0;
    // Hotness signal for budget shedding: every plan-time invalidation
    // counts, so a node on the delta path of every solve (the root, hot
    // subtrees) outscores one that is only re-dirtied when shedding forces
    // a recompute — even while both sit invalid between solves.
    ++dirty_counts_[i];
  }
  void commit(std::size_t i, const NodeSignature& sig) {
    if (valid_[i] == 0) ++num_valid_;
    sigs_[i] = sig;
    valid_[i] = 1;
    resumable_[i] = 1;
  }

  /// Byte-budget hooks (SolveSession::enforce_budget).  Dropping snapshots
  /// keeps the node spliceable while clean; dropping the whole state
  /// forces a recompute on the next solve (still bit-identical, just paid
  /// again).
  void drop_snapshots(std::size_t i) {
    states_[i].drop_snapshots(arena_);
    resumable_[i] = 0;
  }
  void drop_state(std::size_t i) {
    states_[i].release(arena_);
    // Shedding is not a dirtiness event: invalidate without bumping the
    // hotness counter, or the evicted-coldest would look hotter next round.
    if (valid_[i] != 0) --num_valid_;
    valid_[i] = 0;
    resumable_[i] = 0;
  }
  std::size_t snapshot_bytes(std::size_t i) const {
    return states_[i].snapshot_bytes();
  }
  std::size_t state_bytes(std::size_t i) const {
    return states_[i].total_bytes();
  }

  /// Lossless compaction hooks (see NodeState::pack): engines call
  /// ensure_unpacked before reading or rebuilding a node's tables;
  /// SolveSession::compact packs every cached entry between solves.
  void ensure_unpacked(std::size_t i) { states_[i].unpack(arena_); }
  bool packed(std::size_t i) const { return states_[i].packed; }
  void pack_entry(std::size_t i) {
    if (valid_[i] != 0 || resumable_[i] != 0) states_[i].pack(arena_);
  }
  /// Packs every cached entry; returns how many moved to packed form.
  std::size_t pack_all() {
    std::size_t moved = 0;
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i].packed) continue;
      pack_entry(i);
      if (states_[i].packed) ++moved;
    }
    return moved;
  }

  /// The touched-node hint of the previous planned solve (see the delta
  /// fast path in plan_warm_solve).
  bool last_touched_known() const { return last_touched_known_; }
  const std::vector<NodeId>& last_touched() const { return last_touched_; }
  void set_last_touched(std::vector<NodeId> touched, bool known) {
    last_touched_ = std::move(touched);
    last_touched_known_ = known;
  }

  std::size_t size() const { return states_.size(); }

  /// The arena every cached table lives in.  Engines allocate replacement
  /// slot tables from here during warm solves; solve_mutex serializes them.
  TableArena& arena() { return arena_; }

  /// How often node `i` has been invalidated since attach — the hotness
  /// signal of budget shedding (root-path nodes are dirtied every warm
  /// solve, leaf-fringe nodes rarely; shed the cold ones first).
  std::uint64_t dirty_count(std::size_t i) const { return dirty_counts_[i]; }

  /// Snapshot-restore hook: re-establishes node `i`'s planning metadata
  /// exactly as serialized (core/dp_snapshot.h fills state(i) first, then
  /// calls this).  Unlike commit(), it restores the validity/resumability
  /// flags and the hotness counter verbatim — including invalid entries —
  /// so a restored cache plans the same warm solve the saved one would.
  void restore_entry(std::size_t i, const NodeSignature& sig, bool valid,
                     bool resumable, std::uint64_t dirty_count) {
    sigs_[i] = sig;
    if (valid && valid_[i] == 0) ++num_valid_;
    if (!valid && valid_[i] != 0) --num_valid_;
    valid_[i] = valid ? 1 : 0;
    resumable_[i] = resumable ? 1 : 0;
    dirty_counts_[i] = dirty_count;
  }

 private:
  const Topology* topo_ = nullptr;
  std::vector<std::uint64_t> params_;
  TableArena arena_;
  std::vector<NodeState> states_;
  std::vector<NodeSignature> sigs_;
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint8_t> resumable_;
  std::vector<std::uint64_t> dirty_counts_;
  std::size_t num_valid_ = 0;
  std::vector<NodeId> last_touched_;
  bool last_touched_known_ = false;
};

using PowerSubtreeCache = SubtreeCache<PowerNodeState>;
using MinCostSubtreeCache = SubtreeCache<MinCostNodeState>;

/// The params signature of the power DPs: the mode count and the key's
/// count-vector width (`dims`), the mode capacities (they drive merge
/// feasibility and mode_for_load), and the mode powers and cost
/// coefficients (they price the labels that pruning compares, and derive
/// its margins), so a warm solve prunes exactly like its cold twin.
inline std::vector<std::uint64_t> capacity_params(const ModeSet& modes,
                                                  const CostModel& costs,
                                                  std::size_t dims) {
  std::vector<std::uint64_t> params{
      static_cast<std::uint64_t>(modes.count()), dims};
  const auto bits = [&params](double v) {
    params.push_back(std::bit_cast<std::uint64_t>(v));
  };
  for (int w = 0; w < modes.count(); ++w) {
    params.push_back(static_cast<std::uint64_t>(modes.capacity(w)));
    bits(modes.power(w));
    bits(costs.create(w));
    bits(costs.del(w));
    for (int o = 0; o < modes.count(); ++o) bits(costs.changed(o, w));
  }
  return params;
}

/// The mode count, key width and W_M that capacity_params recorded;
/// nullopt when `params` is not laid out as capacity_params writes it.
struct PowerParamsShape {
  int modes = 0;
  std::size_t dims = 0;
  RequestCount max_capacity = 0;
};
inline std::optional<PowerParamsShape> power_params_shape(
    std::span<const std::uint64_t> params) {
  if (params.size() < 2 || params[0] == 0 || params[0] > 127) {
    return std::nullopt;
  }
  const std::uint64_t m = params[0];
  if (params.size() != 2 + m * (m + 4)) return std::nullopt;
  PowerParamsShape shape{static_cast<int>(m),
                         static_cast<std::size_t>(params[1]), 0};
  for (std::uint64_t w = 0; w < m; ++w) {
    shape.max_capacity =
        std::max(shape.max_capacity, RequestCount{params[2 + w * (m + 4)]});
  }
  return shape;
}

/// The recompute schedule of one warm (or cold) solve.
struct DirtyPlan {
  /// Dense internal-index flags: 1 = the node's table must be recomputed
  /// (own inputs changed, or any internal child dirty).
  std::vector<std::uint8_t> dirty;
  /// For dirty nodes: 1 = the node's merge-tree snapshots from the
  /// previous completed solve are present, so clean children's slots may
  /// be spliced in and only dirty leaves + their root paths (and the base
  /// fold) re-run.  0 = rebuild the whole merge tree.
  std::vector<std::uint8_t> resume;
  /// For dirty nodes with resume: 1 = the node's own client mass changed,
  /// so the base fold must re-run even when every child slot is clean.
  std::vector<std::uint8_t> base_changed;
  /// NodeSignatures actually built and compared: num_internal on the full
  /// sweep, the touched-set size on the delta fast path.
  std::uint64_t signatures_checked = 0;
};

/// Per-slot dirtiness of one node's merge plan: which leaf expansions and
/// internal joins a (re)build must run.  Shared by all three DP engines so
/// the propagation rule cannot diverge between them.
struct SlotDirtiness {
  std::vector<std::uint8_t> dirty;  ///< one flag per merge-plan slot
  bool any = false;                 ///< any slot dirty (k == 0 => false)
};

/// Seeds leaf dirtiness from the children's DirtyPlan flags (a recomputed
/// child may have a different table, so its leaf must be re-expanded) and
/// propagates through the internal steps.  Without `resume`, every slot
/// is dirty — the full rebuild of a cold or non-resumable node.
inline SlotDirtiness plan_slot_dirtiness(const DirtyPlan& plan,
                                         const Topology& topo,
                                         std::span<const NodeId> children,
                                         const MergePlan& mplan,
                                         bool resume) {
  SlotDirtiness slots;
  slots.dirty.assign(mplan.num_slots(), resume ? 0 : 1);
  slots.any = !resume && !children.empty();
  if (!resume) return slots;
  for (std::size_t c = 0; c < children.size(); ++c) {
    if (plan.dirty[topo.internal_index(children[c])] != 0) {
      slots.dirty[c] = 1;
      slots.any = true;
    }
  }
  if (slots.any) {
    for (std::size_t t = 0; t < mplan.steps().size(); ++t) {
      const MergePlan::Step& step = mplan.steps()[t];
      if (slots.dirty[step.left] != 0 || slots.dirty[step.right] != 0) {
        slots.dirty[mplan.step_slot(t)] = 1;
      }
    }
  }
  return slots;
}

/// Internal nodes a delta span can touch: the parent of an edited client,
/// the node of a pre-existing edit.  nullopt when the span contains an
/// edit that cannot be attributed to specific nodes (kClearAllPre, an
/// out-of-range id, or an empty span — empty means "no information", not
/// "no edits", because legacy callers mutate scenarios without deltas).
inline std::optional<std::vector<NodeId>> delta_touched_internal(
    const Topology& topo, std::span<const ScenarioDelta> deltas) {
  if (deltas.empty()) return std::nullopt;
  std::vector<NodeId> touched;
  touched.reserve(deltas.size());
  for (const ScenarioDelta& d : deltas) {
    switch (d.op) {
      case ScenarioDelta::Op::kSetRequests: {
        if (!topo.valid_id(d.node) || !topo.is_client(d.node)) {
          return std::nullopt;
        }
        touched.push_back(topo.parent(d.node));
        break;
      }
      case ScenarioDelta::Op::kSetPreExisting:
      case ScenarioDelta::Op::kClearPreExisting: {
        if (!topo.valid_id(d.node) || !topo.is_internal(d.node)) {
          return std::nullopt;
        }
        touched.push_back(d.node);
        break;
      }
      case ScenarioDelta::Op::kClearAllPre:
        return std::nullopt;
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

/// Plans a warm solve: determines the recompute set (delta fast path when
/// possible, else the full signature sweep — see the header comment) and
/// invalidates every dirty slot up front, so an early infeasible exit can
/// never leave a stale entry marked valid (slot resumption still works
/// this round: the snapshots survive invalidation, and validity is
/// re-committed only after a node is fully reprocessed).
template <typename NodeState, typename MakeSignature>
DirtyPlan plan_warm_solve(const Topology& topo, SubtreeCache<NodeState>* cache,
                          std::vector<std::uint64_t> params,
                          const MakeSignature& make_signature,
                          std::span<const ScenarioDelta> deltas = {}) {
  const std::size_t n = topo.num_internal();
  DirtyPlan plan;
  plan.dirty.assign(n, 1);
  plan.resume.assign(n, 0);
  plan.base_changed.assign(n, 1);
  if (cache == nullptr) return plan;  // one-shot solve: everything dirty
  const bool warm = cache->attach(&topo, std::move(params));
  std::optional<std::vector<NodeId>> touched =
      delta_touched_internal(topo, deltas);

  // Delta fast path: the span names every possible edit since the previous
  // solve (union'd with the previous span for base-forking callers), the
  // cache has no invalid stragglers, and the touched set is small enough
  // that skipping the O(N) sweep is worth it.
  bool planned = false;
  if (warm && touched && cache->last_touched_known() && cache->all_valid()) {
    std::vector<NodeId> effective = *touched;
    effective.insert(effective.end(), cache->last_touched().begin(),
                     cache->last_touched().end());
    std::sort(effective.begin(), effective.end());
    effective.erase(std::unique(effective.begin(), effective.end()),
                    effective.end());
    if (effective.size() * 8 <= n) {
      plan.dirty.assign(n, 0);
      plan.resume.assign(n, 0);
      plan.base_changed.assign(n, 0);
      for (NodeId j : effective) {
        const std::size_t i = topo.internal_index(j);
        const NodeSignature sig = make_signature(j);
        ++plan.signatures_checked;
        if (cache->signature(i) == sig) continue;
        if (cache->signature(i).client_mass != sig.client_mass) {
          plan.base_changed[i] = 1;
        }
        for (NodeId a = j; a != kNoNode; a = topo.parent(a)) {
          const std::size_t ai = topo.internal_index(a);
          if (plan.dirty[ai] != 0) break;  // path above already marked
          plan.dirty[ai] = 1;
          plan.resume[ai] = cache->resumable(ai) ? 1 : 0;
        }
      }
      planned = true;
    }
  }

  if (!planned && warm) {
    for (NodeId j : topo.internal_post_order()) {
      const std::size_t i = topo.internal_index(j);
      const NodeSignature sig = make_signature(j);
      ++plan.signatures_checked;
      const bool was_valid = cache->valid(i);
      bool d = !was_valid || !(cache->signature(i) == sig);
      plan.base_changed[i] =
          (!was_valid || cache->signature(i).client_mass != sig.client_mass)
              ? 1
              : 0;
      for (NodeId c : topo.internal_children(j)) {
        if (plan.dirty[topo.internal_index(c)] != 0) {
          d = true;
          break;
        }
      }
      plan.dirty[i] = d ? 1 : 0;
      plan.resume[i] = (d && was_valid && cache->resumable(i)) ? 1 : 0;
    }
  }

  // Record this span for the next solve's fast path; an unattributable
  // span poisons the hint (the next solve must full-sweep once).
  cache->set_last_touched(touched ? std::move(*touched)
                                  : std::vector<NodeId>{},
                          touched.has_value());

  for (std::size_t i = 0; i < n; ++i) {
    if (plan.dirty[i] != 0) cache->invalidate(i);
  }
  return plan;
}

}  // namespace treeplace::dp
