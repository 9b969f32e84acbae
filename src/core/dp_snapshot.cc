#include "core/dp_snapshot.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace treeplace::dp {

namespace {

// Sanity caps for read-side length prefixes: DP tables are capped at 2^32
// cells (core/dp_util.h), per-node slot counts at 2k-1 merge slots.  A
// prefix beyond these is corruption, not a big instance.
constexpr std::uint64_t kMaxCells = std::uint64_t{1} << 32;
constexpr std::uint32_t kMaxSlots = 1u << 24;

// Flow tables are serialized as PackedTable encodings (dead-cell runs
// elided, cells at the narrowest width that holds the table's maximum) —
// the on-disk twin of in-memory session compaction.  pack() is
// deterministic, so a packed in-memory state (written verbatim) and an
// unpacked one (packed on the fly) serialize to identical bytes.
void write_packed_table(binio::Writer& w, const PackedTable& p) {
  w.u64(p.cells());
  w.u8(p.width());
  w.u32(static_cast<std::uint32_t>(p.runs().size()));
  for (const PackedTable::Run& run : p.runs()) {
    w.u32(run.start);
    w.u32(run.length);
  }
  w.raw(p.payload().data(), p.payload().size());
}

PackedTable read_packed_table(binio::Reader& r) {
  // Bound every length prefix by both the DP cell cap and the bytes left
  // in the file, so a corrupted prefix fails as truncation before it can
  // allocate; from_parts() then validates the run structure itself.
  const std::uint64_t cells = r.u64();
  TREEPLACE_CHECK_MSG(cells <= kMaxCells, "snapshot flow table too large");
  const std::uint8_t width = r.u8();
  const std::uint32_t num_runs = r.u32();
  TREEPLACE_CHECK_MSG(num_runs <= cells &&
                          num_runs <= r.remaining_bytes() / 8,
                      "snapshot flow table runs bogus");
  std::vector<PackedTable::Run> runs(num_runs);
  std::uint64_t covered = 0;
  for (PackedTable::Run& run : runs) {
    run.start = r.u32();
    run.length = r.u32();
    covered += run.length;
  }
  TREEPLACE_CHECK_MSG(width != 0 && covered <= cells &&
                          covered * width <= r.remaining_bytes(),
                      "snapshot flow table payload bogus");
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(covered * width));
  r.raw(payload.data(), payload.size());
  return PackedTable::from_parts(cells, width, std::move(runs),
                                 std::move(payload));
}

void write_flow_table(binio::Writer& w, const ArenaTable<RequestCount>& t) {
  write_packed_table(w, PackedTable::pack(t.span()));
}

void read_flow_table(binio::Reader& r, TableArena& arena,
                     ArenaTable<RequestCount>& t) {
  const PackedTable p = read_packed_table(r);
  t.resize_uninit(arena, static_cast<std::size_t>(p.cells()));
  p.unpack(t.span());
}

// Decision tables travel in the PackedDecisions narrow encoding (operand
// flats at 1/2/4 bytes instead of padded u32 pairs); like flow tables,
// deterministic pack keeps the bytes identical whether the in-memory
// state was packed or not.
void write_packed_decisions(binio::Writer& w, const PackedDecisions& p) {
  w.u64(p.cells());
  w.u8(p.elided() ? 1 : 0);
  w.u8(p.left_width());
  w.u8(p.right_width());
  w.u32(static_cast<std::uint32_t>(p.runs().size()));
  for (const PackedTable::Run& run : p.runs()) {
    w.u32(run.start);
    w.u32(run.length);
  }
  w.raw(p.payload().data(), p.payload().size());
}

PackedDecisions read_packed_decisions(binio::Reader& r) {
  const std::uint64_t cells = r.u64();
  TREEPLACE_CHECK_MSG(cells <= kMaxCells,
                      "snapshot decision table too large");
  const std::uint8_t elided = r.u8();
  const std::uint8_t left_width = r.u8();
  const std::uint8_t right_width = r.u8();
  const std::uint32_t num_runs = r.u32();
  TREEPLACE_CHECK_MSG(num_runs <= cells &&
                          num_runs <= r.remaining_bytes() / 8,
                      "snapshot decision table runs bogus");
  std::vector<PackedTable::Run> runs(num_runs);
  std::uint64_t covered = 0;
  for (PackedTable::Run& run : runs) {
    run.start = r.u32();
    run.length = r.u32();
    covered += run.length;
  }
  if (elided == 0) covered = cells;
  const std::uint64_t bytes =
      covered * (left_width + right_width + std::uint64_t{1});
  TREEPLACE_CHECK_MSG(covered <= cells && bytes <= r.remaining_bytes(),
                      "snapshot decision table payload bogus");
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(bytes));
  r.raw(payload.data(), payload.size());
  return PackedDecisions::from_parts(cells, elided, left_width, right_width,
                                     std::move(runs), std::move(payload));
}

/// `flow` is the slot's companion flow table when still resident (dead
/// cells elide behind its validity runs), nullptr otherwise — mirroring
/// the condition NodeState::pack() uses, so packed and unpacked states
/// keep serializing identically.
void write_decision_table(binio::Writer& w, const ArenaTable<Decision>& t,
                          const ArenaTable<RequestCount>* flow) {
  if (flow != nullptr && flow->size() == t.size()) {
    write_packed_decisions(w, PackedDecisions::pack(t.span(), flow->span()));
  } else {
    write_packed_decisions(w, PackedDecisions::pack(t.span()));
  }
}

void read_decision_table(binio::Reader& r, TableArena& arena,
                         ArenaTable<Decision>& t) {
  const PackedDecisions p = read_packed_decisions(r);
  t.resize_uninit(arena, static_cast<std::size_t>(p.cells()));
  p.unpack(t.span());
}

/// Writes one state's decision tables, pairing each with its companion
/// slot flow table for dead-cell elision.
template <typename NodeState>
void write_decision_tables(binio::Writer& w, const NodeState& s) {
  w.u32(static_cast<std::uint32_t>(s.slot_decisions.size()));
  if (s.packed) {
    for (const auto& p : s.packed_slot_decisions) write_packed_decisions(w, p);
    return;
  }
  for (std::size_t k = 0; k < s.slot_decisions.size(); ++k) {
    write_decision_table(w, s.slot_decisions[k],
                         k < s.slot_flows.size() ? &s.slot_flows[k] : nullptr);
  }
}

void write_int_vec(binio::Writer& w, const std::vector<int>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (const int x : v) w.i32(x);
}

std::vector<int> read_int_vec(binio::Reader& r) {
  const std::uint32_t n = r.u32();
  TREEPLACE_CHECK_MSG(n <= kMaxSlots && n <= r.remaining_bytes() / 4,
                      "snapshot int vector too large");
  std::vector<int> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = r.i32();
  return v;
}

void write_box(binio::Writer& w, const Box& box) {
  write_int_vec(w, box.bounds());
}

template <typename T, typename ReadOne>
void read_table_vec(binio::Reader& r, TableArena& arena,
                    std::vector<ArenaTable<T>>& out, const ReadOne& read_one) {
  const std::uint32_t n = r.u32();
  TREEPLACE_CHECK_MSG(n <= kMaxSlots, "snapshot slot count too large");
  out.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) read_one(r, arena, out[i]);
}

// A label table travels as its box bounds, then per label its flow,
// flat, operand positions and mode.
void write_label_table(binio::Writer& w, const LabelTable& t) {
  write_box(w, t.box);
  w.u32(static_cast<std::uint32_t>(t.labels.size()));
  for (const Label& l : t.labels) {
    w.u64(l.flow);
    w.u64(l.flat);
    w.u32(l.dec.left);
    w.u32(l.dec.right);
    w.i8(l.dec.mode);
  }
}

void read_label_table(binio::Reader& r, LabelTable& t) {
  t.box = label_box(read_int_vec(r));
  const std::uint32_t n = r.u32();
  // A list never outgrows its box (see LabelTable); 25 bytes per label.
  TREEPLACE_CHECK_MSG(n <= t.box.size() && n <= r.remaining_bytes() / 25,
                      "snapshot label table too large");
  t.labels.resize(n);
  for (Label& l : t.labels) {
    l.flow = r.u64();
    l.flat = r.u64();
    l.dec.left = r.u32();
    l.dec.right = r.u32();
    l.dec.mode = r.i8();
  }
}

/// Checks one label table of a restored power cache against the box the
/// engine derives for it (`bounds`): flats inside that box in strictly
/// ascending order, and no flow above W_M.
void check_label_table(const LabelTable& t, const std::vector<int>& bounds,
                       RequestCount max_capacity) {
  TREEPLACE_CHECK_MSG(t.box.bounds() == bounds,
                      "snapshot label table box does not match the tree");
  for (std::size_t k = 0; k < t.labels.size(); ++k) {
    const Label& l = t.labels[k];
    TREEPLACE_CHECK_MSG(l.flat < t.box.size(), "snapshot label out of box");
    TREEPLACE_CHECK_MSG(k == 0 || t.labels[k - 1].flat < l.flat,
                        "snapshot labels out of flat order");
    TREEPLACE_CHECK_MSG(l.flow <= max_capacity,
                        "snapshot label flow above W_M");
  }
}

/// Checks that a restored power cache holds tables the engine could have
/// left behind, so a CRC-valid file with malformed contents is rejected
/// whole instead of being indexed out of bounds by the next solve.  A
/// node is *fresh* when it and every node below it are valid: a solve
/// splices, resumes and walks only fresh nodes' tables and the slots of
/// valid nodes that cover fresh children; everything else is rebuilt
/// before it is read, so only those are checked.  Boxes must be the ones
/// the tree derives (a leaf slot's box is the child's incl_bounds, a join
/// slot's the sum of its operands', a folded table's its root slot's),
/// and every decision must index its operand lists, the child's folded
/// list, or a mode.
void check_power_cache(const Topology& topo, const PowerSubtreeCache& cache) {
  const std::optional<PowerParamsShape> shape =
      power_params_shape(cache.params());
  std::vector<std::uint8_t> fresh(topo.num_internal(), 0);
  MergePlanCache plans;
  for (const NodeId j : topo.internal_post_order()) {
    const std::size_t i = topo.internal_index(j);
    if (!cache.valid(i)) continue;
    TREEPLACE_CHECK_MSG(shape.has_value(), "snapshot power params malformed");
    const PowerNodeState& s = cache.state(i);
    const auto children = topo.internal_children(j);
    const MergePlan& mplan = plans.get(children.size());
    TREEPLACE_CHECK_MSG(s.slots.size() == mplan.num_slots(),
                        "snapshot slot count does not match the merge plan");
    // The root builds no slot for its last step: the root join pairs that
    // step's operands.
    const bool is_root = j == topo.root();
    const std::uint32_t built =
        mplan.num_slots() - (is_root && children.size() > 1 ? 1 : 0);
    std::vector<std::uint8_t> stale(mplan.num_slots(), 0);
    bool any_stale = false;
    for (std::uint32_t slot = 0; slot < built; ++slot) {
      const LabelTable& t = s.slots[slot];
      if (slot < mplan.num_leaves()) {
        const std::size_t c = topo.internal_index(children[slot]);
        if (fresh[c] == 0) {
          stale[slot] = 1;
          any_stale = true;
          continue;
        }
        const PowerNodeState& cs = cache.state(c);
        check_label_table(t, cs.incl_bounds, shape->max_capacity);
        for (const Label& l : t.labels) {
          TREEPLACE_CHECK_MSG(
              l.dec.mode >= -1 && l.dec.mode < shape->modes &&
                  l.dec.right < cs.table.labels.size(),
              "snapshot leaf decision out of range");
        }
        continue;
      }
      const MergePlan::Step& step = mplan.steps()[slot - mplan.num_leaves()];
      if (stale[step.left] != 0 || stale[step.right] != 0) {
        stale[slot] = 1;
        continue;
      }
      const LabelTable& left = s.slots[step.left];
      const LabelTable& right = s.slots[step.right];
      std::vector<int> bounds = left.box.bounds();
      for (std::size_t d = 0; d < bounds.size(); ++d) {
        bounds[d] += right.box.bounds()[d];
      }
      check_label_table(t, bounds, shape->max_capacity);
      for (const Label& l : t.labels) {
        TREEPLACE_CHECK_MSG(l.dec.left < left.labels.size() &&
                                l.dec.right < right.labels.size(),
                            "snapshot join decision out of its operands");
      }
    }
    if (any_stale) continue;
    fresh[i] = 1;
    if (is_root) continue;  // no folded table, no parent to read it
    // The folded table: the root slot shifted by the client mass, its
    // labels carrying the root slot's decisions.
    if (children.empty()) {
      check_label_table(s.table, std::vector<int>(shape->dims, 0),
                        shape->max_capacity);
    } else {
      const LabelTable& root = s.slots[mplan.root_slot()];
      check_label_table(s.table, root.box.bounds(), shape->max_capacity);
      for (const Label& l : s.table.labels) {
        TREEPLACE_CHECK_MSG(
            std::any_of(root.labels.begin(), root.labels.end(),
                        [&](const Label& r) {
                          return r.flat == l.flat &&
                                 r.dec.left == l.dec.left &&
                                 r.dec.right == l.dec.right &&
                                 r.dec.mode == l.dec.mode;
                        }),
            "snapshot folded label not in its root slot");
      }
    }
    // A node's own options add at most one unit to each dimension.
    const std::vector<int>& box = s.table.box.bounds();
    TREEPLACE_CHECK_MSG(s.incl_bounds.size() == box.size(),
                        "snapshot bounds have the wrong width");
    for (std::size_t d = 0; d < box.size(); ++d) {
      const int own = s.incl_bounds[d] - box[d];
      TREEPLACE_CHECK_MSG(own == 0 || own == 1,
                          "snapshot bounds do not match the folded table");
    }
  }
}

void write_state(binio::Writer& w, const PowerNodeState& s) {
  write_label_table(w, s.table);
  write_int_vec(w, s.incl_bounds);
  w.u32(static_cast<std::uint32_t>(s.slots.size()));
  for (const LabelTable& t : s.slots) write_label_table(w, t);
}

void read_state(binio::Reader& r, TableArena&, PowerNodeState& s) {
  read_label_table(r, s.table);
  s.incl_bounds = read_int_vec(r);
  const std::uint32_t slots = r.u32();
  TREEPLACE_CHECK_MSG(slots <= kMaxSlots && slots <= r.remaining_bytes() / 8,
                      "snapshot slot count too large");
  s.slots.resize(slots);
  for (LabelTable& t : s.slots) read_label_table(r, t);
}

void write_state(binio::Writer& w, const MinCostNodeState& s) {
  w.i32(s.eb);
  w.i32(s.nb);
  if (s.packed) {
    write_packed_table(w, s.packed_flow);
  } else {
    write_flow_table(w, s.flow);
  }
  write_decision_tables(w, s);
  write_int_vec(w, s.slot_eb);
  write_int_vec(w, s.slot_nb);
  w.u32(static_cast<std::uint32_t>(s.slot_flows.size()));
  if (s.packed) {
    for (const auto& p : s.packed_slot_flows) write_packed_table(w, p);
  } else {
    for (const auto& t : s.slot_flows) write_flow_table(w, t);
  }
}

void read_state(binio::Reader& r, TableArena& arena, MinCostNodeState& s) {
  s.eb = r.i32();
  s.nb = r.i32();
  read_flow_table(r, arena, s.flow);
  read_table_vec(r, arena, s.slot_decisions, read_decision_table);
  s.slot_eb = read_int_vec(r);
  s.slot_nb = read_int_vec(r);
  read_table_vec(r, arena, s.slot_flows, read_flow_table);
}

template <typename NodeState>
void save_cache_impl(binio::Writer& w, const SubtreeCache<NodeState>& cache) {
  w.u32(static_cast<std::uint32_t>(cache.params().size()));
  for (const std::uint64_t p : cache.params()) w.u64(p);
  w.u64(cache.size());
  for (std::size_t i = 0; i < cache.size(); ++i) {
    const NodeSignature& sig = cache.signature(i);
    w.u64(sig.client_mass);
    w.i32(sig.original_mode);
    w.u8(cache.valid(i) ? 1 : 0);
    w.u8(cache.resumable(i) ? 1 : 0);
    w.u64(cache.dirty_count(i));
    write_state(w, cache.state(i));
  }
  w.u8(cache.last_touched_known() ? 1 : 0);
  w.u64(cache.last_touched().size());
  for (const NodeId id : cache.last_touched()) w.i32(id);
}

template <typename NodeState>
void load_cache_impl(binio::Reader& r, const Topology* topo,
                     SubtreeCache<NodeState>& cache) {
  const std::uint32_t num_params = r.u32();
  TREEPLACE_CHECK_MSG(num_params <= kMaxSlots, "snapshot params too large");
  std::vector<std::uint64_t> params(num_params);
  for (std::uint32_t i = 0; i < num_params; ++i) params[i] = r.u64();
  cache.attach(topo, std::move(params));
  const std::uint64_t n = r.u64();
  TREEPLACE_CHECK_MSG(n == cache.size(),
                      "snapshot node count " << n << " != topology's "
                                             << cache.size());
  for (std::size_t i = 0; i < cache.size(); ++i) {
    NodeSignature sig;
    sig.client_mass = r.u64();
    sig.original_mode = r.i32();
    const bool valid = r.u8() != 0;
    const bool resumable = r.u8() != 0;
    const std::uint64_t dirty_count = r.u64();
    read_state(r, cache.arena(), cache.state(i));
    cache.restore_entry(i, sig, valid, resumable, dirty_count);
  }
  const bool known = r.u8() != 0;
  const std::uint64_t touched = r.u64();
  TREEPLACE_CHECK_MSG(touched <= cache.size(),
                      "snapshot touched set larger than the tree");
  std::vector<NodeId> last_touched(static_cast<std::size_t>(touched));
  for (NodeId& id : last_touched) {
    id = r.i32();
    TREEPLACE_CHECK_MSG(topo->valid_id(id) && topo->is_internal(id),
                        "snapshot touched id out of range");
  }
  cache.set_last_touched(std::move(last_touched), known);
}

}  // namespace

void save_cache(binio::Writer& w, const PowerSubtreeCache& cache) {
  save_cache_impl(w, cache);
}
void save_cache(binio::Writer& w, const MinCostSubtreeCache& cache) {
  save_cache_impl(w, cache);
}
void load_cache(binio::Reader& r, const Topology* topo,
                PowerSubtreeCache& cache) {
  load_cache_impl(r, topo, cache);
  check_power_cache(*topo, cache);
}
void load_cache(binio::Reader& r, const Topology* topo,
                MinCostSubtreeCache& cache) {
  load_cache_impl(r, topo, cache);
}

}  // namespace treeplace::dp
